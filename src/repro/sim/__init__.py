"""Discrete-event simulation of the edge-cloud platform.

Layered sim-core: the :mod:`~repro.sim.engine` clock loop composes the
:mod:`~repro.sim.ledger` (resource grant state), the
:mod:`~repro.sim.kernel` (progress arithmetic over the active set) and
the :mod:`~repro.sim.hooks` observer protocol (all instrumentation).
Schedulers talk to the engine through :class:`Decision` (what to run,
in priority order) and :class:`SimulationView` (read-only state).  The
per-job state is plain lists of Python scalars, and one step runs on
plain lists at every decision size.  See ``docs/ENGINE.md`` for the
architecture tour.
"""

from repro.sim.availability import (
    CloudAvailability,
    periodic_unavailability,
    random_unavailability,
)
from repro.sim.decision import Assignment, Decision
from repro.sim.engine import Engine, Scheduler, SimulationResult, simulate
from repro.sim.events import Event, EventKind
from repro.sim.hooks import (
    EngineHooks,
    EventCounter,
    StepTimingProfiler,
    StretchWatermarkMonitor,
    make_hooks,
    register_hook,
)
from repro.sim.kernel import ActivityKernel
from repro.sim.ledger import ResourceLedger
from repro.sim.state import Phase, SimState
from repro.sim.trace import TraceRecorder
from repro.sim.view import SimulationView

__all__ = [
    "CloudAvailability",
    "periodic_unavailability",
    "random_unavailability",
    "Assignment",
    "Decision",
    "Engine",
    "Scheduler",
    "SimulationResult",
    "simulate",
    "Event",
    "EventKind",
    "EngineHooks",
    "EventCounter",
    "StepTimingProfiler",
    "StretchWatermarkMonitor",
    "make_hooks",
    "register_hook",
    "ActivityKernel",
    "ResourceLedger",
    "TraceRecorder",
    "Phase",
    "SimState",
    "SimulationView",
]
