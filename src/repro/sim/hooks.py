"""Pluggable engine instrumentation (the observer layer of the sim-core).

The engine itself only *simulates*; everything observational — the
attempt record, event/decision counters, step-timing profiles, stretch
watermarks — is an :class:`EngineHooks` implementation registered on
the engine.  Hooks see the run through a small set of callbacks:

==============  ============================================================
callback        fired
==============  ============================================================
``on_start``    once, before the first decision
``on_decision`` after every scheduler decision (before it is applied)
``on_assign``   whenever a (re-)assignment opens a new attempt
``on_step``     after every time advance, with the active activities
``on_events``   with every batch of freshly emitted events
``on_abort``    when a fault aborts a job's in-progress attempt
``on_complete`` when a job leaves the system
``on_finish``   once, with the final :class:`~repro.sim.engine.SimulationResult`
==============  ============================================================

The engine pre-binds, per callback, the list of hooks that actually
override it (:class:`HookSet`), so unused callbacks cost nothing in the
hot loop.  ``on_step`` receives the three parallel lists the engine
itself steps on (jobs, activity codes, rates), so a step observer costs
the engine no extra work either.

Ship-with hooks: :class:`EventCounter` (the engine's own bookkeeping),
:class:`StepTimingProfiler` and :class:`StretchWatermarkMonitor` here,
and :class:`repro.sim.trace.TraceRecorder`, the run's attempt record.
"""

from __future__ import annotations

import math as _math
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.resources import Resource
    from repro.sim.decision import Decision
    from repro.sim.events import Event
    from repro.sim.view import SimulationView


class EngineHooks:
    """Base class for engine instrumentation; every callback is a no-op.

    Subclass and override only what you need — the engine skips
    callbacks that no registered hook overrides, so a hook pays only
    for what it observes.

    A hook that wants the scheduler to attach structured provenance to
    each :class:`~repro.sim.decision.Decision` (see
    ``Decision.provenance``) sets the class attribute
    :attr:`wants_decision_provenance`; the engine forwards the request
    to schedulers that support it (``set_provenance``).  Schedulers
    only do the extra bookkeeping when at least one registered hook
    asks for it, so ordinary runs pay nothing.
    """

    #: Set to True on subclasses that consume ``Decision.provenance``.
    wants_decision_provenance = False

    def on_start(self, view: "SimulationView") -> None:
        """Called once before the first decision."""

    def on_decision(self, now: float, decision: "Decision") -> None:
        """Called after every scheduler decision, before it is applied."""

    def on_assign(self, job: int, resource: "Resource", now: float) -> None:
        """Called when ``job`` opens a new attempt on ``resource``."""

    def on_step(
        self,
        t0: float,
        t1: float,
        jobs: Sequence[int],
        acts: Sequence[int],
        rates: Sequence[float],
    ) -> None:
        """Called after time advanced from ``t0`` to ``t1``.

        ``jobs``, ``acts`` and ``rates`` are the engine's own parallel
        lists of the activities that ran during ``[t0, t1)``, in
        priority (grant) order: the job, its activity code
        (``ACT_UPLINK`` / ``ACT_COMPUTE`` / ``ACT_DOWNLINK`` of
        :mod:`repro.sim.ledger`) and its rate.  Each job appears at
        most once.  The lists are read-only: the engine keeps stepping
        on them after the callback returns.
        """

    def on_events(self, events: Sequence["Event"]) -> None:
        """Called with every batch of freshly emitted events."""

    def on_abort(self, job: int, time: float) -> None:
        """Called when a fault aborts ``job``'s attempt at ``time``
        (progress lost; the job is back to pending)."""

    def on_complete(self, job: int, time: float) -> None:
        """Called when ``job`` leaves the system at ``time``."""

    def on_finish(self, result) -> None:
        """Called once with the final :class:`SimulationResult`."""


def _overrides(hook: EngineHooks, name: str) -> bool:
    """True when ``hook``'s class overrides callback ``name``."""
    return getattr(type(hook), name, None) is not getattr(EngineHooks, name)


class HookSet:
    """Pre-bound dispatch lists, one per callback, for a set of hooks.

    Built once per engine run.  Each ``self.<name>`` attribute is the
    list of bound methods of the hooks that override ``on_<name>``; the
    engine skips building a callback's arguments when its list is empty.
    """

    def __init__(self, hooks: Sequence[EngineHooks]):
        self.hooks = list(hooks)
        self.start = [h.on_start for h in self.hooks if _overrides(h, "on_start")]
        self.decision = [h.on_decision for h in self.hooks if _overrides(h, "on_decision")]
        self.assign = [h.on_assign for h in self.hooks if _overrides(h, "on_assign")]
        self.step = [h.on_step for h in self.hooks if _overrides(h, "on_step")]
        self.events = [h.on_events for h in self.hooks if _overrides(h, "on_events")]
        self.abort = [h.on_abort for h in self.hooks if _overrides(h, "on_abort")]
        self.complete = [h.on_complete for h in self.hooks if _overrides(h, "on_complete")]
        self.finish = [h.on_finish for h in self.hooks if _overrides(h, "on_finish")]
        self.wants_provenance = any(
            getattr(type(h), "wants_decision_provenance", False) for h in self.hooks
        )


class EventCounter(EngineHooks):
    """Counts events and decisions (the engine's former hard-wired tallies)."""

    def __init__(self) -> None:
        self.n_events = 0
        self.n_decisions = 0

    def on_decision(self, now: float, decision) -> None:
        """Count one scheduler invocation."""
        self.n_decisions += 1

    def on_events(self, events) -> None:
        """Count the batch of emitted events."""
        self.n_events += len(events)


@dataclass
class StepTimingReport:
    """Summary of engine-step wall times collected by :class:`StepTimingProfiler`."""

    n_steps: int
    total_s: float
    mean_s: float
    p50_s: float
    p99_s: float
    max_s: float

    def __str__(self) -> str:
        return (
            f"{self.n_steps} steps, total {self.total_s * 1e3:.2f} ms, "
            f"mean {self.mean_s * 1e6:.1f} us, p50 {self.p50_s * 1e6:.1f} us, "
            f"p99 {self.p99_s * 1e6:.1f} us, max {self.max_s * 1e6:.1f} us"
        )


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = _math.ceil(q * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


class StepTimingProfiler(EngineHooks):
    """Wall-clock profile of every engine step (decision → advance).

    A lightweight alternative to full tracing for large sweeps: two
    ``perf_counter`` calls per step, no per-activity work.  ``report()``
    summarizes; ``step_times`` keeps the raw per-step durations.
    """

    def __init__(self) -> None:
        self.step_times: list[float] = []
        self._t0: float | None = None

    def on_decision(self, now: float, decision) -> None:
        """Stamp the start of the step."""
        self._t0 = _time.perf_counter()

    def on_step(self, t0: float, t1: float, jobs, acts, rates) -> None:
        """Close the step opened by the last decision."""
        if self._t0 is not None:
            self.step_times.append(_time.perf_counter() - self._t0)
            self._t0 = None

    def on_finish(self, result) -> None:
        """Flush a step left open when the run ends without an ``on_step``
        (e.g. the terminal decision completed the last job instantly)."""
        if self._t0 is not None:
            self.step_times.append(_time.perf_counter() - self._t0)
            self._t0 = None

    def report(self) -> StepTimingReport:
        """Aggregate the collected step times."""
        n = len(self.step_times)
        total = float(sum(self.step_times))
        ordered = sorted(self.step_times)
        return StepTimingReport(
            n_steps=n,
            total_s=total,
            mean_s=total / n if n else 0.0,
            p50_s=_nearest_rank(ordered, 0.5),
            p99_s=_nearest_rank(ordered, 0.99),
            max_s=ordered[-1] if n else 0.0,
        )


@dataclass
class WatermarkSample:
    """One increase of the running max-stretch watermark."""

    time: float
    job: int
    stretch: float


class StretchWatermarkMonitor(EngineHooks):
    """Tracks the running maximum per-job stretch as completions occur.

    The final ``watermark`` equals the run's max-stretch and
    ``argmax_job`` names the job that attained it (-1 before any
    completion); ``history`` records every time the watermark rose
    (when, which job, to what), which is how the objective builds up
    over a run — useful to see *which* completions drive the maximum
    without recording a trace.
    """

    def __init__(self) -> None:
        self.watermark = 0.0
        self.argmax_job = -1
        self.history: list[WatermarkSample] = []
        self._release = None
        self._min_time = None

    def on_start(self, view) -> None:
        """Capture the static per-job quantities of the instance."""
        self._release = view.instance.release
        self._min_time = view.instance.min_time

    def on_complete(self, job: int, time: float) -> None:
        """Update the watermark with ``job``'s realized stretch."""
        stretch = (time - self._release[job]) / self._min_time[job]
        if stretch > self.watermark:
            self.watermark = float(stretch)
            self.argmax_job = job
            self.history.append(WatermarkSample(time=time, job=job, stretch=self.watermark))


@dataclass
class _HookRegistry:
    """Name → factory registry used by CLIs and parallel workers."""

    factories: dict = field(default_factory=dict)


_REGISTRY = _HookRegistry()


def register_hook(name: str, factory) -> None:
    """Register a zero-argument hook factory under ``name``.

    Names travel where closures cannot (process pools, CLI flags): a
    worker or command line asks for hooks by name via :func:`make_hooks`.
    Names are unique — re-registering one is a :class:`ModelError`, so a
    typo'd or colliding registration fails at import time instead of
    silently shadowing an existing hook.
    """
    if name in _REGISTRY.factories:
        raise ModelError(
            f"hook {name!r} is already registered; hook names must be unique"
        )
    _REGISTRY.factories[name] = factory


def make_hooks(names: Sequence[str] | str | None) -> list[EngineHooks]:
    """Instantiate the named hooks (a single name or a sequence)."""
    if not names:
        return []
    if isinstance(names, str):
        names = [names]
    hooks = []
    for name in names:
        if name not in _REGISTRY.factories:
            known = ", ".join(sorted(_REGISTRY.factories)) or "(none)"
            raise ModelError(f"unknown hook {name!r}; registered: {known}")
        hooks.append(_REGISTRY.factories[name]())
    return hooks


register_hook("counter", EventCounter)
register_hook("profile", StepTimingProfiler)
register_hook("watermark", StretchWatermarkMonitor)
