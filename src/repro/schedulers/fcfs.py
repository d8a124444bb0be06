"""FCFS baseline (ours, for ablations).

First-come-first-served priority with earliest-finish placement: jobs
are considered by release date; each claims the still-free processor on
which it would finish soonest.  The contrast with SRPT/Greedy isolates
the value of stretch- and remaining-time-aware priorities.

``fcfs-fa`` (``failure_aware=True``) keeps the release-order priority
but serves the finish-time estimates from the shared discounted
:class:`~repro.capacity.outlook.CapacityOutlook` (effective rates
scaled by steady-state availability), like the other ``-fa`` variants —
isolating what failure-aware *placement* buys when the priority rule
stays failure-blind.

The row order is fixed, so FCFS needs no per-claim pick and skips the
shared claim loop: each job, by release, takes the cheapest processor
still free in its own row (:meth:`~repro.schedulers.base.Rows.best`).
"""

from __future__ import annotations

from typing import Sequence

from repro.schedulers.base import INF, BaseScheduler, Rows
from repro.sim.decision import Decision
from repro.sim.events import Event
from repro.sim.view import SimulationView


class FcfsScheduler(BaseScheduler):
    """Release-order priority, earliest-finish placement."""

    name = "fcfs"

    def __init__(self, *, failure_aware: bool = False):
        self.failure_aware = failure_aware
        if failure_aware:
            # fcfs-fa: placement estimates discounted by the shared
            # CapacityOutlook; degenerates to plain fcfs when the
            # trace carries no rates.
            self.name = "fcfs-fa"

    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        rows = Rows(view, discounted=self.failure_aware)
        release = view.instance.release[rows.live].tolist()
        claims = []
        # Each job, by (release, index), takes its cheapest free column.
        for i in sorted(range(len(release)), key=release.__getitem__):
            value, col = rows.best(i)
            if value < INF:
                rows.take(i, col)
                claims.append((i, col))
        return rows.decision(claims)
