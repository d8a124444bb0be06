"""Cloud-Only baseline (ours): the dual of Edge-Only.

Every job is delegated to the cloud; the edge units only communicate.
Placement is SRPT's claim loop with the edge column forbidden.  Useful
as the opposite extreme in the CCR sweeps: where Edge-Only wins at high
CCR, Cloud-Only wins at very low CCR, and the paper's heuristics should
dominate both everywhere.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ModelError
from repro.schedulers.base import INF, BaseScheduler, Rows
from repro.sim.decision import Decision
from repro.sim.events import Event
from repro.sim.view import SimulationView


class CloudOnlyScheduler(BaseScheduler):
    """SRPT over the cloud processors only."""

    name = "cloud-only"

    def start(self, view: SimulationView) -> None:
        if view.platform.n_cloud == 0:
            raise ModelError("cloud-only scheduling needs at least one cloud processor")

    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        rows = Rows(view)
        rows.edge = [INF] * len(rows.edge)
        # Leftovers continue on their current cloud (ports may be free);
        # never fall back to the edge.
        return rows.decision(rows.claim(), cloud_only=True)
