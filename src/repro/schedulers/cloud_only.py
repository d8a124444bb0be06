"""Cloud-Only baseline (ours): the dual of Edge-Only.

Every job is delegated to the cloud; the edge units only communicate.
Placement is SRPT's claim loop with the edge column forbidden.  Useful
as the opposite extreme in the CCR sweeps: where Edge-Only wins at high
CCR, Cloud-Only wins at very low CCR, and the paper's heuristics should
dominate both everywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.resources import cloud
from repro.schedulers.base import BaseScheduler, claim_columns, prefer_current
from repro.sim.decision import Decision
from repro.sim.state import ALLOC_CLOUD
from repro.sim.events import Event
from repro.sim.view import SimulationView


class CloudOnlyScheduler(BaseScheduler):
    """SRPT over the cloud processors only."""

    name = "cloud-only"

    def start(self, view: SimulationView) -> None:
        if view.platform.n_cloud == 0:
            raise ModelError("cloud-only scheduling needs at least one cloud processor")

    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        decision = Decision()
        live = view.live_jobs()
        if live.size == 0:
            return decision

        durations = view.durations_matrix(live)
        prefer_current(view, live, durations)
        durations[:, 0] = np.inf
        taken = np.zeros(live.size, dtype=bool)
        for row, col in claim_columns(durations, view.instance.origin[live]):
            decision.add(int(live[row]), cloud(col - 1))
            taken[row] = True

        # Leftovers continue on their current cloud (ports may be free);
        # never fall back to the edge.
        rest = live[~taken & (view.alloc_kind[live] == ALLOC_CLOUD)]
        if rest.size:
            decision.add_bulk(
                rest,
                np.full(rest.size, ALLOC_CLOUD, dtype=np.int8),
                view.alloc_index[rest],
            )
        return decision
