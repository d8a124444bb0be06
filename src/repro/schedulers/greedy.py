"""The Greedy heuristic (Section V-B).

At each event, as long as processors remain unclaimed, Greedy computes
for every live job the minimum stretch it could achieve by starting
immediately on a still-free resource, picks the job *maximizing* that
value (the job most likely to determine the max-stretch), and places it
on the resource where its stretch is minimal.  The chosen jobs form the
high-priority prefix of the decision; remaining jobs are appended at
lower priority so in-flight activities can use idle ports.

Greedy supplies the stretch matrix and the highest-best-first row rule
to the claim loop it shares with SRPT
(:func:`~repro.schedulers.base.claim_columns`).
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


def _highest_first(best: np.ndarray) -> np.ndarray:
    """Claim score: the job with the highest best stretch goes first."""
    return np.where(best < np.inf, -best, np.inf)


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
        decision = Decision()
        live = view.live_jobs()
        if live.size == 0:
            return decision

        stretches = view.stretch_matrix(live, discounted=self.failure_aware)
        rows, cols = prefer_current(view, live, stretches)
        if self.guarded:
            # Moving must beat even the best case of staying put.
            best_case_stay = stretches[rows, cols]
            worse = stretches[rows, :] >= best_case_stay[:, None]
            worse[np.arange(len(rows)), cols] = False
            stretches[rows, :] = np.where(worse, np.inf, stretches[rows, :])

        origins = view.instance.origin[live]
        for row, col in claim_columns(stretches, origins, _highest_first):
            job = int(live[row])
            decision.add(job, resource_from_column(view, job, col))

        append_leftovers(decision, view)
        return decision
