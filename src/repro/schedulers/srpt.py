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
(:func:`~repro.schedulers.base.claim_columns`) on the duration matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.schedulers.base import (
    BaseScheduler,
    append_leftovers,
    claim_columns,
    prefer_current,
    resource_from_column,
)
from repro.sim.decision import Decision
from repro.sim.events import Event
from repro.sim.view import SimulationView


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
        decision = Decision()
        live = view.live_jobs()
        if live.size == 0:
            return decision

        durations = view.durations_matrix(live, discounted=self.failure_aware)
        rows, cols = prefer_current(view, live, durations)
        if not self.allow_restart:
            # Started jobs may only run on their current resource.
            stay = durations[rows, cols]
            durations[rows, :] = np.inf
            durations[rows, cols] = stay

        origins = view.instance.origin[live]
        for row, col in claim_columns(durations, origins):
            job = int(live[row])
            decision.add(job, resource_from_column(view, job, col))

        append_leftovers(decision, view)
        return decision
