"""The Greedy heuristic (Section V-B).

At each event, as long as processors remain unclaimed, Greedy computes
for every live job the minimum stretch it could achieve by starting
immediately on a still-free resource, picks the job *maximizing* that
value (the job most likely to determine the max-stretch), and places it
on the resource where its stretch is minimal.  The chosen jobs form the
high-priority prefix of the decision; remaining jobs are appended at
lower priority so in-flight activities can use idle ports.

Greedy supplies stretch rows and the highest-best-first row rule to the
claim loop it shares with SRPT (:meth:`~repro.schedulers.base.Rows.claim`).
"""

from __future__ import annotations

from typing import Sequence

from repro.schedulers.base import INF, BaseScheduler, Rows
from repro.sim.decision import Decision
from repro.sim.events import Event
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE
from repro.sim.view import SimulationView


def _forbid_moves_not_better(rows: Rows) -> None:
    """Moving a started job must beat even the best case of staying put."""
    for i, kind in enumerate(rows.kind):
        if kind == ALLOC_NONE:
            continue
        stay = rows.edge[i] if kind == ALLOC_EDGE else rows.stay[i]
        if kind == ALLOC_CLOUD and rows.edge[i] >= stay:
            rows.edge[i] = INF
        for fresh in rows.fresh:
            if fresh[i] >= stay:
                fresh[i] = INF


class GreedyScheduler(BaseScheduler):
    """Greedy max-stretch-first placement.

    With ``guarded`` (the default) a job may only be *moved away* from
    its current resource when the destination's estimated stretch beats
    the stretch of running on the current resource right now (its
    best case).  Without the guard — the literal reading of the paper's
    description — a job whose resource was claimed by a higher-stretch
    peer takes whatever is free, wiping its progress, and can ping-pong
    between an edge unit and the cloud for hundreds of re-executions on
    communication-heavy (Kang-like) instances — and can even *livelock*
    (two identical cloud-hungry jobs stealing the cloud from each other
    at every event, each theft wiping the other's progress; the
    engine's ``max_steps`` guard raises ``SimulationError``).  The
    ablation bench compares both variants.
    """

    name = "greedy"

    def __init__(self, *, guarded: bool = True, failure_aware: bool = False):
        self.guarded = guarded
        self.failure_aware = failure_aware
        if not guarded:
            self.name = "greedy-unguarded"
        if failure_aware:
            # greedy-fa: stretch estimates are served from the same
            # discounted CapacityOutlook ssf-edf-fa consumes (effective
            # rates scaled by steady-state availability).  Degenerates
            # to plain greedy when the fault trace carries no rates.
            self.name = "greedy-fa" if guarded else "greedy-unguarded-fa"

    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        rows = Rows(view, discounted=self.failure_aware, stretch=True)
        if self.guarded:
            _forbid_moves_not_better(rows)
        return rows.decision(rows.claim(highest_first=True))
