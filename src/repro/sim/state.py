"""Mutable simulation state: job progress and activity phases.

Per-job quantities are held in flat NumPy arrays (not per-job objects)
because the schedulers' per-event completion/stretch estimates sweep all
live jobs; array access keeps those inner loops cheap and lets the view
hand out vectorized estimates.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.instance import Instance
from repro.core.resources import Resource, ResourceKind, cloud, edge
from repro.util.float_cmp import DEFAULT_ABS_TOL

#: alloc_kind codes (array-friendly stand-ins for ResourceKind/None).
ALLOC_NONE = -1
ALLOC_EDGE = 0
ALLOC_CLOUD = 1


class Phase(enum.Enum):
    """Current phase of a job's (re-)execution."""

    UPLINK = "uplink"
    COMPUTE = "compute"
    DOWNLINK = "downlink"
    DONE = "done"


class SimState:
    """All mutable per-job state of one simulation run."""

    def __init__(self, instance: Instance):
        self.instance = instance
        n = instance.n_jobs
        self.now: float = 0.0

        #: Remaining uplink / work / downlink *for the current attempt*.
        #: Work is in work units; up/dn in time units.
        self.rem_up = instance.up.copy()
        self.rem_work = instance.work.copy()
        self.rem_dn = instance.dn.copy()

        self.alloc_kind = np.full(n, ALLOC_NONE, dtype=np.int8)
        self.alloc_index = np.full(n, -1, dtype=np.int64)

        self.done = np.zeros(n, dtype=bool)
        self.completion = np.full(n, np.nan, dtype=np.float64)

        #: Number of attempts started per job (re-execution counter).
        self.attempts = np.zeros(n, dtype=np.int64)

        #: Structural-reset epoch: bumped once per remaining-amount reset
        #: (a new attempt or an abort), *not* on plain progress.  Lets
        #: incremental schedulers detect resets bitwise-invisible in the
        #: arrays themselves (e.g. an abort of a job that had not
        #: progressed yet writes back the fresh amounts unchanged).
        self.rem_epoch: int = 0

        #: Fault epoch: bumped by the engine once per processed fault or
        #: availability boundary instant (every ``RESOURCE_/LINK_DOWN/UP``
        #: or ``AVAILABILITY_CHANGE`` batch).  Epoch-scoped caches
        #: (cross-event replay, capacity deltas) are provably stable
        #: while it is unchanged and invalidate outright across a bump.
        self.fault_epoch: int = 0

        #: Checkpoint/restart extension (:mod:`repro.sim.checkpoint`).
        #: Off by default: no watermark arrays exist and every reset
        #: restores from scratch, bit-identical to the historical rule.
        self.checkpoint_policy = None
        self.checkpointing: bool = False
        self.ckpt_up: np.ndarray | None = None
        self.ckpt_work: np.ndarray | None = None
        #: True while a job's periodic commit is burning its overhead
        #: (the watermark has not advanced yet); cleared on any reset.
        self.ckpt_pending: np.ndarray | None = None

    def enable_checkpoints(self, policy) -> None:
        """Attach a :class:`~repro.sim.checkpoint.CheckpointPolicy`.

        Watermark arrays start at the full instance amounts (nothing
        committed); they are only allocated when the policy actually
        commits, so a retry-budget-only policy leaves the reset paths
        on the historical from-scratch rule.
        """
        self.checkpoint_policy = policy
        if policy is not None and policy.checkpoints_enabled:
            self.checkpointing = True
            self.ckpt_up = self.instance.up.copy()
            self.ckpt_work = self.instance.work.copy()
            self.ckpt_pending = np.zeros(self.instance.n_jobs, dtype=bool)

    # -- queries ---------------------------------------------------------------

    def released(self) -> np.ndarray:
        """Boolean mask of jobs released at the current time."""
        return self.instance.release <= self.now + DEFAULT_ABS_TOL

    def live_jobs(self) -> np.ndarray:
        """Indices of released, uncompleted jobs."""
        return np.nonzero(self.released() & ~self.done)[0]

    def allocation(self, i: int) -> Resource | None:
        """Current allocation of job ``i`` (None before the first attempt)."""
        kind = self.alloc_kind[i]
        if kind == ALLOC_NONE:
            return None
        if kind == ALLOC_EDGE:
            return edge(int(self.alloc_index[i]))
        return cloud(int(self.alloc_index[i]))

    def phase(self, i: int) -> Phase:
        """Phase of job ``i`` within its current attempt.

        Zero-length communications are skipped (e.g. Kang instances have
        ``dn = 0``: such jobs are DONE right after their computation).
        Edge attempts have no communication phases at all.
        """
        if self.done[i]:
            return Phase.DONE
        if self.alloc_kind[i] == ALLOC_CLOUD:
            if self.rem_up[i] > DEFAULT_ABS_TOL:
                return Phase.UPLINK
            if self.rem_work[i] > DEFAULT_ABS_TOL:
                return Phase.COMPUTE
            return Phase.DOWNLINK
        return Phase.COMPUTE

    # -- mutation --------------------------------------------------------------

    def assign(self, i: int, resource: Resource) -> bool:
        """(Re-)assign job ``i`` to ``resource``; return True if this is a new attempt.

        Re-assignment to a *different* resource is a re-execution from
        scratch: all progress is lost (the model allows preemption and
        re-execution but not migration).  Re-assignment to the current
        resource is a no-op.
        """
        kind = ALLOC_EDGE if resource.kind is ResourceKind.EDGE else ALLOC_CLOUD
        if self.alloc_kind[i] == kind and self.alloc_index[i] == resource.index:
            return False
        job = self.instance.jobs[i]
        self.alloc_kind[i] = kind
        self.alloc_index[i] = resource.index
        if self.checkpointing:
            # Restore from the durable watermark, not from scratch; an
            # in-flight commit's overhead is lost with the attempt.
            self.rem_up[i] = self.ckpt_up[i]
            self.rem_work[i] = self.ckpt_work[i]
            self.ckpt_pending[i] = False
        else:
            self.rem_up[i] = job.up
            self.rem_work[i] = job.work
        self.rem_dn[i] = job.dn
        self.attempts[i] += 1
        self.rem_epoch += 1
        return True

    def assign_many(
        self, jobs: np.ndarray, kinds: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`assign` over a decision's columnar arrays.

        Returns the boolean mask (aligned with ``jobs``) of entries
        that opened a new attempt — i.e. whose resource differs from
        the current allocation.  Progress of those jobs is reset from
        scratch, exactly as repeated scalar :meth:`assign` calls would.
        """
        changed = (self.alloc_kind[jobs] != kinds) | (self.alloc_index[jobs] != indices)
        if changed.any():
            ids = jobs[changed]
            self.alloc_kind[ids] = kinds[changed]
            self.alloc_index[ids] = indices[changed]
            inst = self.instance
            if self.checkpointing:
                self.rem_up[ids] = self.ckpt_up[ids]
                self.rem_work[ids] = self.ckpt_work[ids]
                self.ckpt_pending[ids] = False
            else:
                self.rem_up[ids] = inst.up[ids]
                self.rem_work[ids] = inst.work[ids]
            self.rem_dn[ids] = inst.dn[ids]
            self.attempts[ids] += 1
            self.rem_epoch += int(np.count_nonzero(changed))
        return changed

    def abort(self, i: int) -> None:
        """Abort job ``i``'s current attempt (a crash killed its resource).

        The job returns to pending with no allocation; all progress of
        the attempt is lost, exactly as a re-assignment wipes it (the
        re-execution rule).  ``attempts`` is *not* rolled back — the
        aborted attempt happened — so the next assignment opens a fresh
        attempt and the re-execution counter stays truthful.
        """
        job = self.instance.jobs[i]
        self.alloc_kind[i] = ALLOC_NONE
        self.alloc_index[i] = -1
        if self.checkpointing:
            # Only the uncommitted tail is lost: restore to the last
            # durable watermark (:mod:`repro.sim.checkpoint`).
            self.rem_up[i] = self.ckpt_up[i]
            self.rem_work[i] = self.ckpt_work[i]
            self.ckpt_pending[i] = False
        else:
            self.rem_up[i] = job.up
            self.rem_work[i] = job.work
        self.rem_dn[i] = job.dn
        self.rem_epoch += 1

    def finish(self, i: int, time: float) -> None:
        """Mark job ``i`` completed at ``time``."""
        self.done[i] = True
        self.completion[i] = time
