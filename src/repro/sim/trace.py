"""Trace recording: turn an engine run into a checkable :class:`Schedule`.

The recorder is an :class:`~repro.sim.hooks.EngineHooks` implementation
— the engine has no trace-specific code; it simply fires ``on_assign``
/ ``on_step`` / ``on_complete`` and the recorder assembles every
attempt start, activity segment and completion into the interval-based
schedule representation of :mod:`repro.core.schedule`, which the
independent validator can then re-check.  Contiguous segments of the
same activity are coalesced by ``IntervalSet``.
"""

from __future__ import annotations

from repro.core.errors import SimulationError
from repro.core.instance import Instance
from repro.core.intervals import Interval
from repro.core.resources import Resource
from repro.core.schedule import Attempt, Schedule
from repro.sim.hooks import EngineHooks
from repro.sim.state import Phase


class TraceRecorder(EngineHooks):
    """Accumulates the execution trace of one simulation run."""

    def __init__(self, instance: Instance):
        self._schedule = Schedule(instance)
        self._open: dict[int, Attempt] = {}

    # -- hook callbacks (how the engine drives the recorder) -------------------

    def on_assign(self, job: int, resource: Resource, now: float) -> None:
        """Open a fresh attempt when the engine applies a (re-)assignment."""
        self.new_attempt(job, resource)

    def on_step(self, t0: float, t1: float, active) -> None:
        """Record one segment per activity that ran during ``[t0, t1)``."""
        for job, phase, _rate in active:
            self.record(job, phase, t0, t1)

    def on_complete(self, job: int, time: float) -> None:
        """Store the completion time when a job leaves the system."""
        self.complete(job, time)

    # -- direct API (tests and standalone use) ---------------------------------

    def new_attempt(self, job: int, resource: Resource) -> None:
        """Open a fresh attempt for ``job`` on ``resource``."""
        self._open[job] = self._schedule.new_attempt(job, resource)

    def record(self, job: int, phase: Phase, start: float, end: float) -> None:
        """Record that ``job`` spent ``[start, end)`` in ``phase``."""
        if end <= start:
            return
        attempt = self._open.get(job)
        if attempt is None:
            raise SimulationError(f"trace: activity for job {job} before any attempt")
        interval = Interval(start, end)
        if phase is Phase.UPLINK:
            attempt.uplink.add(interval)
        elif phase is Phase.COMPUTE:
            attempt.execution.add(interval)
        elif phase is Phase.DOWNLINK:
            attempt.downlink.add(interval)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"trace: cannot record phase {phase}")

    def complete(self, job: int, time: float) -> None:
        """Record the completion time of ``job``."""
        self._schedule.set_completion(job, time)

    def build(self) -> Schedule:
        """Return the assembled schedule."""
        return self._schedule
