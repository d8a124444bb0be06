"""The SRPT heuristic (Section V-C).

Shortest Remaining Processing Time, adapted to the edge-cloud platform:
at each event, repeatedly pick the (job, processor) pair that finishes
the earliest among unclaimed processors, claim both, and iterate.  SRPT
is O(1)-competitive for *average* stretch [28]; the paper evaluates it
against the max-stretch objective.

Re-execution comes for free: a job preempted on one resource may be
picked for another processor where its (fresh, from-scratch) remaining
time is the smallest — the estimates account for the lost progress.

SRPT runs the shared claim loop
(:meth:`~repro.schedulers.base.Rows.claim`) on duration rows.
"""

from __future__ import annotations

from typing import Sequence

from repro.schedulers.base import INF, BaseScheduler, Rows
from repro.sim.decision import Decision
from repro.sim.events import Event
from repro.sim.state import ALLOC_CLOUD, ALLOC_NONE
from repro.sim.view import SimulationView


def _pin_started(rows: Rows) -> None:
    """Started jobs may only run on their current resource."""
    for i, kind in enumerate(rows.kind):
        if kind != ALLOC_NONE:
            for fresh in rows.fresh:
                fresh[i] = INF
        if kind == ALLOC_CLOUD:
            rows.edge[i] = INF


class SrptScheduler(BaseScheduler):
    """Earliest-finisher-first placement.

    ``allow_restart=False`` disables re-execution: once a job has
    started somewhere it may only continue there (preemption stays
    allowed).  This isolates the value of the model's re-execution rule
    (§III) — the paper's SRPT explicitly relies on restarts ("a job
    that has been preempted by another job might start again (from
    scratch) on another processor").
    """

    name = "srpt"

    def __init__(self, *, allow_restart: bool = True, failure_aware: bool = False):
        self.allow_restart = allow_restart
        self.failure_aware = failure_aware
        if not allow_restart:
            self.name = "srpt-norestart"
        if failure_aware:
            # srpt-fa: remaining-time estimates are served from the same
            # discounted CapacityOutlook greedy-fa and ssf-edf-fa share
            # (effective rates scaled by steady-state availability).
            # Degenerates to plain srpt when the trace carries no rates.
            self.name = "srpt-fa" if allow_restart else "srpt-norestart-fa"

    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        rows = Rows(view, discounted=self.failure_aware)
        if not self.allow_restart:
            _pin_started(rows)
        return rows.decision(rows.claim())
