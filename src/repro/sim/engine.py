"""The discrete-event simulation engine (the layered sim-core).

The engine is a strict interpreter of the model of Section III: it owns
time, job progress, processor exclusivity and the one-port full-duplex
communication constraints.  Schedulers only *decide* (see
:mod:`repro.sim.decision`); the engine enforces.

The run loop is composed from three layers plus an observer protocol:

* the **clock** — this module's :class:`Engine.run` loop, which owns
  event ordering, release draining and time advance;
* the **resource ledger** (:mod:`repro.sim.ledger`) — grant state of
  every exclusive compute slot and communication port, reset and
  re-granted in decision priority order at every step;
* the **activity kernel** (:mod:`repro.sim.kernel`) — remaining-amount
  arithmetic (``rem -= rate * dt`` with snap-to-zero) and next-event
  distances over the active set's columns;
* **hooks** (:mod:`repro.sim.hooks`) — all instrumentation (the
  attempt record, counters, profilers, watermarks) observes the run
  through the :class:`~repro.sim.hooks.EngineHooks` callbacks; the
  engine core contains no instrumentation-specific branches.

One step of the main loop:

1. hand the scheduler the current events and a read-only view;
2. apply its decision — (re-)assign jobs, opening a new attempt (and
   wiping progress) whenever the resource changes;
3. activate jobs in priority order: a job runs its current phase
   (uplink / compute / downlink) iff every resource that phase needs is
   still free — edge compute unit, cloud compute unit, or the
   send/receive port pair of a communication;
4. advance time to the earliest activity completion, job release, or
   cloud-availability boundary;
5. emit the corresponding events (the four kinds of Section V) and loop
   until all jobs completed.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.errors import DecisionError, SimulationError
from repro.core.instance import Instance
from repro.core.resources import cloud, edge
from repro.core.schedule import Schedule
from repro.faults.trace import DOMAIN_CLOUD, DOMAIN_EDGE, FaultTrace
from repro.sim.availability import CloudAvailability
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.decision import Decision
from repro.sim.events import (
    Event,
    attempt_aborted,
    availability_change,
    checkpoint_committed,
    compute_done,
    downlink_done,
    job_abandoned,
    job_done,
    link_down,
    link_up,
    release,
    resource_down,
    resource_up,
    uplink_done,
)
from repro.sim.hooks import EngineHooks, EventCounter, HookSet
from repro.sim.kernel import ActivityKernel
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK, ResourceLedger
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE, SimState
from repro.sim.trace import TraceRecorder
from repro.sim.view import SimulationView
from repro.util.float_cmp import DEFAULT_ABS_TOL

_ABS_TOL = 1e-9


@runtime_checkable
class Scheduler(Protocol):
    """What the engine requires of a scheduling policy."""

    name: str

    def start(self, view: SimulationView) -> None:
        """Called once before the first decision."""

    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        """Return the prioritized assignment for the period until the next event."""


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    instance: Instance
    scheduler_name: str
    completion: np.ndarray
    schedule: Schedule | None
    n_events: int
    n_decisions: int
    n_reexecutions: int
    wall_time: float
    #: Scheduler-reported hot-path counters (``telemetry_counters()``),
    #: or None for schedulers that don't export any.
    scheduler_stats: dict[str, float] | None = None
    #: Jobs that exhausted a retry budget and left uncompleted
    #: (checkpoint extension); their completion stays NaN and they are
    #: excluded from the stretch metrics rather than reported as an
    #: unbounded stretch.
    n_abandoned: int = 0

    def stretches(self) -> np.ndarray:
        """Per-job stretches ``(C_i - r_i) / min_time_i``.

        Abandoned jobs are NaN (their completion is NaN)."""
        return (self.completion - self.instance.release) / self.instance.min_time

    @property
    def max_stretch(self) -> float:
        """The objective value of the run (over completed jobs; ``inf``
        when every job was abandoned)."""
        s = self.stretches()
        if not s.size:
            return 0.0
        if self.n_abandoned:
            finite = s[~np.isnan(s)]
            return float(finite.max()) if finite.size else float("inf")
        return float(s.max())

    @property
    def average_stretch(self) -> float:
        """Mean stretch of the run (over completed jobs)."""
        s = self.stretches()
        if not s.size:
            return 0.0
        if self.n_abandoned:
            finite = s[~np.isnan(s)]
            return float(finite.mean()) if finite.size else float("inf")
        return float(s.mean())

    @property
    def makespan(self) -> float:
        """Latest completion time (of the jobs that completed)."""
        if not self.completion.size:
            return 0.0
        if self.n_abandoned:
            finite = self.completion[~np.isnan(self.completion)]
            return float(finite.max()) if finite.size else 0.0
        return float(self.completion.max())


def simulate(
    instance: Instance,
    scheduler: Scheduler,
    *,
    availability: CloudAvailability | None = None,
    faults: FaultTrace | None = None,
    checkpoint: CheckpointPolicy | None = None,
    record_trace: bool = True,
    max_steps: int | None = None,
    hooks: Sequence[EngineHooks] | None = None,
) -> SimulationResult:
    """Run ``scheduler`` on ``instance`` and return the result.

    ``record_trace=False`` skips recording the attempts and building
    the interval schedule from them (big parameter sweeps); metrics
    remain available from the completion array.  With
    ``record_trace=True`` the schedule is built from the first
    :class:`~repro.sim.trace.TraceRecorder` among ``hooks`` (a
    :class:`~repro.obs.tracing.RunTracer`, say), or from a recorder of
    the engine's own when there is none.  ``faults`` injects a
    deterministic crash/outage trace (:mod:`repro.faults`); ``None`` or
    an empty trace leaves the run bit-identical to the fault-free
    engine.  ``checkpoint`` attaches a
    :class:`~repro.sim.checkpoint.CheckpointPolicy`: durable progress
    commits, watermark restores on abort and optional per-job retry
    budgets; ``None`` (the default) keeps the historical
    restart-from-scratch rule bit-identically.  ``max_steps`` caps the
    number of engine iterations as a safety net against non-terminating
    policies.  ``hooks`` attaches extra
    :class:`~repro.sim.hooks.EngineHooks` observers to the run.
    """
    engine = Engine(
        instance,
        scheduler,
        availability=availability,
        faults=faults,
        checkpoint=checkpoint,
        record_trace=record_trace,
        max_steps=max_steps,
        hooks=hooks,
    )
    return engine.run()


class Engine:
    """See module docstring; prefer the :func:`simulate` convenience."""

    def __init__(
        self,
        instance: Instance,
        scheduler: Scheduler,
        *,
        availability: CloudAvailability | None = None,
        faults: FaultTrace | None = None,
        checkpoint: CheckpointPolicy | None = None,
        record_trace: bool = True,
        max_steps: int | None = None,
        hooks: Sequence[EngineHooks] | None = None,
    ):
        self.instance = instance
        self.scheduler = scheduler
        self.availability = availability or CloudAvailability.always_available()
        self.faults = faults if faults is not None else FaultTrace.none()
        if checkpoint is not None and checkpoint.auto_interval:
            # Young/Daly auto policies bind to this run's fault model
            # here, so everything downstream (max_steps sizing, the
            # state's watermark machinery, the scheduler's view) sees a
            # concrete interval.  A trace without model-rate metadata
            # (replayed log, hand-built) falls back to sample-mean
            # MTBF/MTTR estimated from the failures it records
            # (:mod:`repro.faults.estimate`) — still non-clairvoyant,
            # and a genuinely fault-free run still disables the rule.
            rates = self.faults.rates
            if rates is None and not self.faults.is_empty:
                from repro.faults.estimate import observed_rates

                rates = observed_rates(self.faults)
            checkpoint = checkpoint.resolved_for(rates)
        self.checkpoint = checkpoint
        observers: list[EngineHooks] = list(hooks) if hooks else []
        self.recorder: TraceRecorder | None = None
        if record_trace:
            # A TraceRecorder among the hooks (a RunTracer, say) already
            # keeps the attempt record: the schedule is built from it
            # instead of recording every attempt twice.
            self.recorder = next((h for h in observers if isinstance(h, TraceRecorder)), None)
            if self.recorder is None:
                self.recorder = TraceRecorder()
                observers.insert(0, self.recorder)
        self._counter = EventCounter()
        observers.append(self._counter)
        self.hooks = HookSet(observers)
        n = instance.n_jobs
        self._has_windows = bool(self.availability.windows)
        self._has_faults = not self.faults.is_empty
        self._has_ckpt = checkpoint is not None and checkpoint.checkpoints_enabled
        self._retry_budget = checkpoint.retry_budget if checkpoint is not None else None
        #: Fault-killed attempts per job (retry-budget accounting).
        self._fault_aborts = [0] * n if self._retry_budget is not None else None
        self._n_abandoned = 0
        if max_steps is not None:
            self.max_steps = max_steps
        else:
            # Every fault boundary adds a step (and a burst of aborts can
            # add re-execution steps), so the default safety cap grows
            # with the trace.
            self.max_steps = max(1000, 400 * (n + 5)) + 4 * self.faults.n_boundaries
            if self._has_ckpt and checkpoint.interval is not None and n:
                # Each periodic commit adds two boundary steps (overhead
                # start + watermark advance), and a crashing job can redo
                # a commit window per abort.
                n_commits = int(float(instance.work.sum()) / checkpoint.interval) + n + 1
                self.max_steps += 4 * n_commits * (2 + self.faults.n_boundaries)

        platform = instance.platform
        self.ledger = ResourceLedger(platform)
        self._origin_l = instance.origin.tolist()
        self._release_l = instance.release.tolist()
        self._edge_speeds_l = [float(s) for s in platform.edge_speeds]
        self._cloud_speeds_l = [float(s) for s in platform.cloud_speeds]

        # Set at run start from the view (shared, transparent outlook).
        self._outlook = None

    def run(self) -> SimulationResult:
        """Execute the simulation to completion."""
        t0 = _time.perf_counter()
        instance = self.instance
        n = instance.n_jobs
        state = SimState(instance)
        if self.checkpoint is not None:
            state.enable_checkpoints(self.checkpoint)
        view = SimulationView(state, self.availability, self.faults)
        # The run's transparent capacity outlook: one composed view of
        # windows + fault state, shared with the schedulers through the
        # SimulationView and used here to block the ledger each round.
        self._outlook = view.capacity_outlook()
        kernel = ActivityKernel(instance, state)
        hooks = self.hooks
        for cb in hooks.start:
            cb(view)

        if n == 0:
            return self._result(state, t0=t0)

        release_times = self._release_l
        release_order = np.argsort(instance.release, kind="stable").tolist()
        next_rel = 0

        # Jump to the first release.
        state.now = release_times[release_order[0]]
        events: list[Event] = []
        while next_rel < n and release_times[release_order[next_rel]] <= state.now + _ABS_TOL:
            events.append(release(state.now, release_order[next_rel]))
            next_rel += 1

        self.scheduler.start(view)
        # Provenance is opt-in: only ask the scheduler for per-decision
        # explanations when a registered hook will actually read them.
        set_prov = getattr(self.scheduler, "set_provenance", None)
        if set_prov is not None:
            set_prov(hooks.wants_provenance)
        for cb in hooks.events:
            cb(events)

        steps = 0
        n_done = 0

        while n_done < n:
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(
                    f"engine exceeded {self.max_steps} steps with {n - n_done} jobs "
                    f"unfinished at t={state.now}; scheduler {self.scheduler.name!r} "
                    "may not be making progress"
                )

            decision = self.scheduler.decide(view, events)
            jobs_l, kinds_l, indices_l = decision.as_lists()
            if len(set(jobs_l)) != len(jobs_l):
                decision.check_well_formed()  # raises, naming the duplicate
            now = state.now
            for cb in hooks.decision:
                cb(now, decision)

            self._apply(state, hooks, jobs_l, kinds_l, indices_l)
            jobs_active, acts_active, rates_active = self._activate(
                state, jobs_l, kinds_l, indices_l, now
            )

            # Earliest next event.  Every operand is a Python float, so
            # the clock stays one: a NumPy-scalar clock would make every
            # later float operation, placement included, pay NumPy
            # scalar overhead.
            dt = float("inf")
            if jobs_active:
                dt = min(kernel.time_to_completion(jobs_active, acts_active, rates_active))
            if next_rel < n:
                dt = min(dt, release_times[release_order[next_rel]] - state.now)
            if self._has_windows:
                dt = min(dt, self.availability.next_boundary(state.now) - state.now)
            fault_b = float("inf")
            if self._has_faults:
                fault_b = self.faults.next_boundary(state.now)
                dt = min(dt, fault_b - state.now)
            ckpt_b = float("inf")
            if self._has_ckpt and jobs_active:
                ckpt_b = self._next_commit_boundary(
                    state, kernel, jobs_active, acts_active, rates_active
                )
                dt = min(dt, ckpt_b - state.now)

            if not math.isfinite(dt):
                raise SimulationError(
                    f"deadlock at t={state.now}: no activity can run, no future event, "
                    f"but {n - n_done} jobs are unfinished (scheduler "
                    f"{self.scheduler.name!r} idled live jobs)"
                )
            if dt <= 0:
                raise SimulationError(
                    f"non-positive time step {dt} at t={state.now}; "
                    "simultaneous events were not drained"
                )

            t_next = state.now + dt

            completed = kernel.advance(jobs_active, acts_active, rates_active, dt)

            for cb in hooks.step:
                cb(now, t_next, jobs_active, acts_active, rates_active)

            events = []
            for i, act, finished in zip(jobs_active, acts_active, completed):
                if not finished:
                    continue
                if act == ACT_UPLINK:
                    events.append(uplink_done(t_next, i))
                    if (
                        self._has_ckpt
                        and self.checkpoint.phase_boundaries
                        and state.ckpt_up[i] > kernel.up_tol[i]
                    ):
                        # The staged input is durable at the boundary; the
                        # commit overhead rides the compute phase.
                        state.ckpt_up[i] = state.rem_up[i]
                        cost = self.checkpoint.commit_cost
                        if cost > 0.0:
                            state.rem_work[i] += cost
                        state.rem_epoch += 1
                        events.append(
                            checkpoint_committed(t_next, i, state.allocation(i))
                        )
                elif act == ACT_COMPUTE:
                    events.append(compute_done(t_next, i))
                    # dn == 0 (or an edge job): the job is finished now.
                    if state.alloc_kind[i] != ALLOC_CLOUD or state.rem_dn[i] <= kernel.dn_tol[i]:
                        state.rem_dn[i] = 0.0
                        state.finish(i, t_next)
                        for cb in hooks.complete:
                            cb(i, t_next)
                        events.append(job_done(t_next, i))
                        n_done += 1
                else:  # ACT_DOWNLINK
                    state.finish(i, t_next)
                    events.append(downlink_done(t_next, i))
                    for cb in hooks.complete:
                        cb(i, t_next)
                    events.append(job_done(t_next, i))
                    n_done += 1

            # Periodic commit boundaries land before the fault boundary
            # below: a commit coinciding with a crash is durable (the
            # abort restores the fresh watermark — half-open intervals).
            if self._has_ckpt and abs(ckpt_b - t_next) <= _ABS_TOL:
                self._process_commits(
                    state, kernel, t_next, events, jobs_active, acts_active
                )

            state.now = t_next

            while next_rel < n and release_times[release_order[next_rel]] <= t_next + _ABS_TOL:
                events.append(release(t_next, release_order[next_rel]))
                next_rel += 1

            if self._has_windows and abs(self.availability.next_boundary(state.now - dt) - t_next) <= _ABS_TOL:
                events.append(availability_change(t_next))
                state.fault_epoch += 1

            if self._has_faults and abs(fault_b - t_next) <= _ABS_TOL:
                n_done += self._fault_boundary(
                    state, hooks, fault_b, t_next, events,
                    jobs_active, acts_active, completed,
                )

            for cb in hooks.events:
                cb(events)

        return self._result(state, t0=t0)

    # -- decision application --------------------------------------------------

    def _apply(
        self,
        state: SimState,
        hooks: HookSet,
        jobs_l: list[int],
        kinds_l: list[int],
        indices_l: list[int],
    ) -> None:
        """Validate and apply the decision's (re-)assignments in order.

        An entry whose resource differs from the job's current
        allocation opens a new attempt
        (:meth:`~repro.sim.state.SimState.start_attempt`).  An entry
        equal to it was validated when that attempt opened, so past the
        range and done checks it is skipped.  The first invalid entry
        raises its :class:`DecisionError` after the valid prefix was
        applied.
        """
        instance = self.instance
        n_jobs = instance.n_jobs
        n_cloud = instance.platform.n_cloud
        release_times = self._release_l
        origin = self._origin_l
        done = state.done
        alloc_kind = state.alloc_kind
        alloc_index = state.alloc_index
        now = state.now
        deadline = now + _ABS_TOL
        assign = hooks.assign
        for i, kind, idx in zip(jobs_l, kinds_l, indices_l):
            if not 0 <= i < n_jobs:
                raise DecisionError(f"no such job: {i}")
            if done[i]:
                raise DecisionError(f"job {i} is already completed")
            if kind == alloc_kind[i] and idx == alloc_index[i] and kind != ALLOC_NONE:
                continue
            if release_times[i] > deadline:
                raise DecisionError(
                    f"job {i} is not released yet (r={release_times[i]}, t={now})"
                )
            # Messages spell resources out: edge()/cloud() reject the
            # negative indices reported here.
            if kind == ALLOC_EDGE:
                if idx != origin[i]:
                    raise DecisionError(
                        f"job {i} originates from edge[{origin[i]}], "
                        f"cannot run on edge[{idx}]"
                    )
            elif kind != ALLOC_CLOUD:
                raise DecisionError(f"job {i} has an unknown allocation kind: {kind}")
            elif not 0 <= idx < n_cloud:
                raise DecisionError(f"no such cloud processor: cloud[{idx}]")
            state.start_attempt(i, kind, idx)
            if assign:
                res = edge(idx) if kind == ALLOC_EDGE else cloud(idx)
                for cb in assign:
                    cb(i, res, now)

    # -- fault boundaries ------------------------------------------------------

    def _fault_boundary(
        self,
        state: SimState,
        hooks: HookSet,
        boundary: float,
        t_next: float,
        events: list[Event],
        jobs_active: list,
        acts_active: list,
        completed: list,
    ) -> int:
        """Process the fault transitions at ``boundary`` (== ``t_next``).

        Emits the down/up events, aborts the attempts a crash killed —
        every live attempt allocated to a crashed resource, plus every
        in-flight transfer through a crashed unit or downed link — and
        fires the abort hooks.  Activities that completed exactly at the
        boundary are finished, not aborted (intervals are half-open).

        Returns the number of jobs *abandoned* at this boundary: with a
        retry budget (:mod:`repro.sim.checkpoint`), a job whose attempts
        have been fault-killed ``retry_budget`` times leaves the system
        uncompleted, so the caller counts it as done.
        """
        origin = self._origin_l
        # One boundary instant == one epoch bump: every epoch-scoped
        # cache (cross-event replay in particular) invalidates here.
        state.fault_epoch += 1
        inflight = [
            (j, a)
            for j, a, c in zip(jobs_active, acts_active, completed)
            if not c and not state.done[j]
        ]
        # Every allocated, unfinished job is live: it was released
        # before a decision could place it.
        live = state.live_jobs().tolist()
        alloc_kind = state.alloc_kind
        alloc_index = state.alloc_index
        to_abort: dict[int, object] = {}  # job -> resource whose fault killed it

        def _abort_allocated(kind: int, index: int, res) -> None:
            for j in live:
                if alloc_kind[j] == kind and alloc_index[j] == index:
                    to_abort.setdefault(j, res)

        def _abort_transfers(unit: int, res) -> None:
            for j, act in inflight:
                if act != ACT_COMPUTE and origin[j] == unit:
                    to_abort.setdefault(j, res)

        for tr in self.faults.transitions_at(boundary):
            if tr.domain == DOMAIN_EDGE:
                res = edge(tr.index)
                if not tr.goes_down:
                    events.append(resource_up(t_next, res))
                    continue
                events.append(resource_down(t_next, res))
                _abort_allocated(ALLOC_EDGE, tr.index, res)
                # The unit's ports die with it: in-flight transfers of
                # jobs originating here are lost too.
                _abort_transfers(tr.index, res)
            elif tr.domain == DOMAIN_CLOUD:
                res = cloud(tr.index)
                if not tr.goes_down:
                    events.append(resource_up(t_next, res))
                    continue
                events.append(resource_down(t_next, res))
                # Data staged on the processor is lost with it: every
                # attempt allocated here aborts, whatever its phase.
                _abort_allocated(ALLOC_CLOUD, tr.index, res)
            else:  # DOMAIN_LINK
                res = edge(tr.index)
                if not tr.goes_down:
                    events.append(link_up(t_next, res))
                    continue
                events.append(link_down(t_next, res))
                # Only in-flight transfers die; a job computing on the
                # cloud keeps its attempt and waits for the link.
                _abort_transfers(tr.index, res)

        budget = self._retry_budget
        abandoned = 0
        for i in sorted(to_abort):
            state.abort(i)
            events.append(attempt_aborted(t_next, i, to_abort[i]))
            for cb in hooks.abort:
                cb(i, t_next)
            if budget is not None:
                self._fault_aborts[i] += 1
                if self._fault_aborts[i] >= budget:
                    # Graceful degradation: the job leaves the system
                    # uncompleted (completion stays NaN) instead of
                    # retrying without bound.
                    state.abandon(i)
                    events.append(job_abandoned(t_next, i))
                    abandoned += 1
        self._n_abandoned += abandoned
        return abandoned

    # -- checkpoint commits ----------------------------------------------------

    def _next_commit_boundary(
        self, state: SimState, kernel: ActivityKernel,
        jobs_active: list, acts_active: list, rates_active: list,
    ) -> float:
        """Earliest periodic commit boundary among the active computes.

        A job's next boundary sits at ``rem_work == ckpt_work -
        interval`` — both before a commit (progress burning toward the
        boundary) and during one (the overhead burning back down to it),
        since beginning a commit snaps ``rem_work`` to ``target +
        commit_cost``.  Targets at or below the completion tolerance are
        not boundaries: the job finishes instead.
        """
        interval = self.checkpoint.interval
        if interval is None:
            return float("inf")
        rem_work = state.rem_work
        ckpt_work = state.ckpt_work
        work_tol = kernel.work_tol
        now = state.now
        best = float("inf")
        for j, a, r in zip(jobs_active, acts_active, rates_active):
            if a != ACT_COMPUTE:
                continue
            target = ckpt_work[j] - interval
            if target <= work_tol[j]:
                continue
            t = now + (rem_work[j] - target) / r
            if t < best:
                best = t
        return best

    def _process_commits(
        self, state: SimState, kernel: ActivityKernel, t_next: float,
        events: list[Event], jobs_active: list, acts_active: list,
    ) -> None:
        """Advance every active compute sitting on its commit boundary.

        Two-step commit: reaching the boundary the first time begins the
        commit (``rem_work`` inflates by ``commit_cost``; a crash during
        this overhead loses the in-flight commit), and burning the
        overhead back to the boundary makes it durable — the watermark
        advances and ``CHECKPOINT_COMMITTED`` fires.  A zero (or
        sub-tolerance) cost commits in one step.
        """
        interval = self.checkpoint.interval
        if interval is None:
            return
        cost = self.checkpoint.commit_cost
        for j, a in zip(jobs_active, acts_active):
            if a != ACT_COMPUTE:
                continue
            if state.done[j]:
                continue
            tol = kernel.work_tol[j]
            target = state.ckpt_work[j] - interval
            if target <= tol or abs(state.rem_work[j] - target) > tol:
                continue
            if state.ckpt_pending[j] or cost <= tol:
                state.rem_work[j] = target
                state.ckpt_work[j] = target
                state.ckpt_up[j] = state.rem_up[j]
                state.ckpt_pending[j] = False
                state.rem_epoch += 1
                events.append(checkpoint_committed(t_next, j, state.allocation(j)))
            else:
                state.rem_work[j] = target + cost
                state.ckpt_pending[j] = True
                state.rem_epoch += 1

    # -- activation ------------------------------------------------------------

    def _activate(
        self,
        state: SimState,
        jobs_l: list,
        kinds_l: list,
        indices_l: list,
        now: float,
    ) -> tuple[list, list, list]:
        """Grant resources in priority order; return the active set.

        Returns parallel ``(jobs, activities, rates)`` lists of the
        granted activities, in decision priority order.

        Every round grants from a fresh ledger in one pass over the
        decision.  Each entry requests its job's activity in the
        current attempt (the rule of :meth:`SimState.phase`: zero-length
        communications are skipped, edge attempts only compute) and
        joins the active set iff every resource that activity needs is
        still free.

        With availability windows or a fault trace, the ledger is first
        blocked for the down-state at ``now``, which the outlook serves
        from its cache between boundaries (see
        :meth:`~repro.capacity.outlook.CapacityOutlook.blocked_at`).
        """
        ledger = self.ledger
        ledger.begin_round()
        if self._has_windows or self._has_faults:
            ledger.block_from_outlook(self._outlook, now)

        rem_up = state.rem_up
        rem_work = state.rem_work
        origin = self._origin_l
        edge_speeds = self._edge_speeds_l
        cloud_speeds = self._cloud_speeds_l
        grant_edge_compute = ledger.grant_edge_compute
        grant_uplink = ledger.grant_uplink
        grant_cloud_compute = ledger.grant_cloud_compute
        grant_downlink = ledger.grant_downlink
        ja: list = []
        aa: list = []
        ra: list = []
        for j, kind, k in zip(jobs_l, kinds_l, indices_l):
            if kind == ALLOC_EDGE:
                if not grant_edge_compute(k):
                    continue
                act = ACT_COMPUTE
                rate = edge_speeds[k]
            elif rem_up[j] > DEFAULT_ABS_TOL:
                if not grant_uplink(origin[j], k):
                    continue
                act = ACT_UPLINK
                rate = 1.0
            elif rem_work[j] > DEFAULT_ABS_TOL:
                # A cloud inside a co-tenancy window is pre-blocked in
                # the ledger, so a plain grant suffices here.
                if not grant_cloud_compute(k):
                    continue
                act = ACT_COMPUTE
                rate = cloud_speeds[k]
            else:
                if not grant_downlink(k, origin[j]):
                    continue
                act = ACT_DOWNLINK
                rate = 1.0
            ja.append(j)
            aa.append(act)
            ra.append(rate)
        return ja, aa, ra

    # -- result ----------------------------------------------------------------

    def _result(self, state: SimState, *, t0: float) -> SimulationResult:
        """Assemble the final result and fire the finish hooks."""
        stats_fn = getattr(self.scheduler, "telemetry_counters", None)
        result = SimulationResult(
            instance=self.instance,
            scheduler_name=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            completion=np.array(state.completion, dtype=np.float64),
            schedule=self.recorder.build() if self.recorder is not None else None,
            n_events=self._counter.n_events,
            n_decisions=self._counter.n_decisions,
            n_reexecutions=sum(a - 1 for a in state.attempts if a > 1),
            wall_time=_time.perf_counter() - t0,
            scheduler_stats=dict(stats_fn()) if stats_fn is not None else None,
            n_abandoned=self._n_abandoned,
        )
        for cb in self.hooks.finish:
            cb(result)
        return result
