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
shared claim loop: each job scans only its own row, on plain lists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.resources import cloud, edge
from repro.schedulers.base import BaseScheduler, append_leftovers, prefer_current
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
        decision = Decision()
        live = view.live_jobs()
        if live.size == 0:
            return decision

        durations = view.durations_matrix(live, discounted=self.failure_aware)
        prefer_current(view, live, durations)
        values = durations.tolist()
        origins = view.instance.origin[live].tolist()
        jobs = live.tolist()
        edge_free = [True] * view.platform.n_edge
        cloud_free = list(range(1, durations.shape[1]))

        # Each job takes its cheapest free column, the lowest on ties.
        for row in np.lexsort((live, view.instance.release[live])).tolist():
            origin = origins[row]
            free = [0] + cloud_free if edge_free[origin] else cloud_free
            if not free:
                continue
            col = min(free, key=values[row].__getitem__)
            if col:
                cloud_free.remove(col)
                decision.add(jobs[row], cloud(col - 1))
            else:
                edge_free[origin] = False
                decision.add(jobs[row], edge(origin))

        append_leftovers(decision, view)
        return decision
