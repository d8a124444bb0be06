"""Read-only view of the simulation handed to schedulers.

The view exposes the live jobs, their remaining amounts, and the
*dedicated-resource* completion estimates every heuristic of Section V
is built on: how long would job ``i`` still take if placed on resource
``r`` right now and never delayed?  Estimates honor the
no-migration/re-execution rule — progress only counts on the job's
current resource; any other placement restarts from scratch.

The per-job state accessors (``rem_*``, ``alloc_*``) return the
state's own lists of Python scalars, indexed by job id; they are
read-only to schedulers.  ``live_jobs()`` returns a read-only int64
array.  The vectorized variant returns an array over a job-id vector
for Edge-Only; FCFS, Greedy, SRPT and Cloud-Only build their
per-decision rows in :class:`repro.schedulers.base.Rows`, and SSF-EDF's
placement indexes the state lists directly.
"""

from __future__ import annotations

import numpy as np

from repro.capacity.outlook import CapacityOutlook, ExpectationDiscount
from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.platform import Platform
from repro.core.resources import Resource, ResourceKind
from repro.faults.trace import FaultTrace
from repro.sim.availability import CloudAvailability
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, SimState


class SimulationView:
    """What a scheduler may observe (everything except the future)."""

    def __init__(
        self,
        state: SimState,
        availability: CloudAvailability,
        faults: FaultTrace | None = None,
    ):
        self._state = state
        self._availability = availability
        self._faults = faults if faults is not None else FaultTrace.none()
        self._outlooks: dict[bool, CapacityOutlook] = {}

    # -- basic observations ------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._state.now

    @property
    def instance(self) -> Instance:
        """The instance being scheduled (jobs' static parameters)."""
        return self._state.instance

    @property
    def platform(self) -> Platform:
        """The platform."""
        return self._state.instance.platform

    @property
    def availability(self) -> CloudAvailability:
        """Cloud availability windows (extension; always-available by default)."""
        return self._availability

    @property
    def faults(self) -> FaultTrace:
        """The run's fault trace (empty when fault injection is off).

        Schedulers may query *current* resource health
        (``faults.edge_up(j, view.now)`` etc.); peeking at future
        boundaries would be clairvoyant and is considered cheating.
        """
        return self._faults

    def capacity_outlook(self, *, discounted: bool = False) -> CapacityOutlook:
        """The run's :class:`~repro.capacity.outlook.CapacityOutlook`.

        Built lazily once per run and shared by every consumer.  With
        ``discounted=False`` (the default) the outlook is transparent —
        effective rates are the platform speeds bitwise, floors are the
        identity — and this is what the duration estimators below are
        served from.  ``discounted=True`` applies the
        :class:`~repro.capacity.outlook.ExpectationDiscount` derived
        from the fault trace's model parameters (when the trace carries
        none, the discounted outlook degenerates to the transparent
        one).
        """
        outlook = self._outlooks.get(discounted)
        if outlook is None:
            discount = (
                ExpectationDiscount.from_rates(self._faults.rates) if discounted else None
            )
            outlook = CapacityOutlook(
                self.platform, self._availability, self._faults, discount=discount
            )
            self._outlooks[discounted] = outlook
        return outlook

    def live_jobs(self) -> np.ndarray:
        """Indices of released, uncompleted jobs, ascending (read-only int64)."""
        return self._state.live_jobs()

    def allocation(self, i: int) -> Resource | None:
        """Current allocation of job ``i``."""
        return self._state.allocation(i)

    @property
    def alloc_kind(self) -> list[int]:
        """Per-job allocation kind codes (``ALLOC_NONE/EDGE/CLOUD``; read-only)."""
        return self._state.alloc_kind

    @property
    def alloc_index(self) -> list[int]:
        """Per-job allocated resource index (-1 before any attempt; read-only)."""
        return self._state.alloc_index

    @property
    def rem_up(self) -> list[float]:
        """Remaining uplink time per job (current attempt; read-only)."""
        return self._state.rem_up

    @property
    def rem_work(self) -> list[float]:
        """Remaining work per job (current attempt; read-only)."""
        return self._state.rem_work

    @property
    def rem_dn(self) -> list[float]:
        """Remaining downlink time per job (current attempt; read-only)."""
        return self._state.rem_dn

    @property
    def rem_epoch(self) -> int:
        """Structural-reset epoch of the remaining amounts.

        Bumped once per attempt reset (new assignment or fault abort),
        never on plain progress.  Incremental schedulers compare it to
        detect resets that are bitwise-invisible in the ``rem_*`` lists
        themselves — e.g. an abort of a job that had not progressed yet.
        """
        return self._state.rem_epoch

    @property
    def fault_epoch(self) -> int:
        """Fault epoch: bumped at every processed fault or availability
        boundary instant (see :class:`~repro.sim.state.SimState`).

        Epoch-scoped scheduler caches key on it: while it is unchanged,
        no resource went down or came back up between two decisions,
        so capacity-dependent state carried across events is stable.
        This observes only the *past* (boundaries already processed) —
        no clairvoyance.
        """
        return self._state.fault_epoch

    def min_time(self, i: int) -> float:
        """Dedicated-system time of job ``i`` (the stretch denominator)."""
        return float(self.instance.min_time[i])

    @property
    def checkpoint_policy(self):
        """The run's :class:`~repro.sim.checkpoint.CheckpointPolicy`.

        None unless the run opted into checkpoint/restart; schedulers
        that price re-execution exposure (rework pricing) read the
        commit interval and overhead from here.
        """
        return self._state.checkpoint_policy

    # -- scalar estimates ----------------------------------------------------

    def duration_on(self, i: int, resource: Resource) -> float:
        """Remaining dedicated duration of job ``i`` if placed on ``resource`` now."""
        state = self._state
        job = self.instance.jobs[i]
        if resource.kind is ResourceKind.EDGE:
            if resource.index != job.origin:
                raise ModelError(f"job {i} cannot run on {resource}: origin is {job.origin}")
            speed = float(self.capacity_outlook().edge_rates()[resource.index])
            if state.alloc_kind[i] == ALLOC_EDGE and state.alloc_index[i] == resource.index:
                return state.rem_work[i] / speed
            return job.work / speed
        speed = float(self.capacity_outlook().cloud_rates()[resource.index])
        if state.alloc_kind[i] == ALLOC_CLOUD and state.alloc_index[i] == resource.index:
            return state.rem_up[i] + state.rem_work[i] / speed + state.rem_dn[i]
        return job.up + job.work / speed + job.dn

    def completion_est(self, i: int, resource: Resource) -> float:
        """Estimated completion time of job ``i`` on ``resource`` (no contention)."""
        return self.now + self.duration_on(i, resource)

    def stretch_est(self, i: int, resource: Resource) -> float:
        """Estimated stretch of job ``i`` if run on ``resource`` starting now."""
        job = self.instance.jobs[i]
        return (self.completion_est(i, resource) - job.release) / self.min_time(i)

    # -- vectorized estimates --------------------------------------------------

    def durations_edge(self, jobs: np.ndarray, *, discounted: bool = False) -> np.ndarray:
        """Remaining durations if each job runs on its own origin edge unit.

        ``discounted=True`` serves the estimate from the discounted
        outlook (failure-aware effective rates); the default is the
        transparent outlook, bitwise the historical arithmetic.
        """
        state = self._state
        inst = self.instance
        speeds = self.capacity_outlook(discounted=discounted).edge_rates()[inst.origin[jobs]]
        kind, rem_work = state.alloc_kind, state.rem_work
        work = [
            rem_work[j] if kind[j] == ALLOC_EDGE else w
            for j, w in zip(np.asarray(jobs).tolist(), inst.work[jobs].tolist())
        ]
        return np.array(work, dtype=np.float64) / speeds
