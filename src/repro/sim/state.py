"""Mutable simulation state: job progress and activity phases.

Per-job mutable quantities — the remaining amounts of the current
attempt, the allocation, the done flags, completion times, attempt
counters and checkpoint watermarks — are plain lists of Python scalars
(``float``, ``int``, ``bool``), one entry per job.  The engine step
reads and writes them one entry at a time, and a list entry costs a
fraction of a NumPy scalar access (docs/ENGINE.md, "Why one list
path").  The instance's static columns stay NumPy arrays.

The state also keeps the *live set* (released, uncompleted jobs) as an
ascending list: jobs join it as :attr:`SimState.now` passes their
release dates and leave it when they finish or are abandoned, so
:meth:`SimState.live_jobs` builds its int64 array only when the set
changed.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort

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
    """All mutable per-job state of one simulation run.

    ``done`` changes only through :meth:`finish` and :meth:`abandon`,
    which keep the live set up to date.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        n = instance.n_jobs
        self.now: float = 0.0

        # Fresh amounts: what a new attempt restarts from.
        self._up: list[float] = instance.up.tolist()
        self._work: list[float] = instance.work.tolist()
        self._dn: list[float] = instance.dn.tolist()

        #: Remaining uplink / work / downlink *for the current attempt*.
        #: Work is in work units; up/dn in time units.
        self.rem_up = list(self._up)
        self.rem_work = list(self._work)
        self.rem_dn = list(self._dn)

        self.alloc_kind: list[int] = [ALLOC_NONE] * n
        self.alloc_index: list[int] = [-1] * n

        self.done: list[bool] = [False] * n
        self.completion: list[float] = [float("nan")] * n

        #: Number of attempts started per job (re-execution counter).
        self.attempts: list[int] = [0] * n

        #: Structural-reset epoch: bumped once per remaining-amount reset
        #: (a new attempt or an abort), *not* on plain progress.  Lets
        #: incremental schedulers detect resets invisible in the
        #: amounts themselves (e.g. an abort of a job that had not
        #: progressed yet writes back the fresh amounts unchanged).
        self.rem_epoch: int = 0

        #: Fault epoch: bumped by the engine once per processed fault or
        #: availability boundary instant (every ``RESOURCE_/LINK_DOWN/UP``
        #: or ``AVAILABILITY_CHANGE`` batch).  Epoch-scoped caches
        #: (cross-event replay, capacity deltas) are provably stable
        #: while it is unchanged and invalidate outright across a bump.
        self.fault_epoch: int = 0

        #: Checkpoint/restart extension (:mod:`repro.sim.checkpoint`).
        #: Off by default: no watermark lists exist and every reset
        #: restores from scratch, bit-identical to the historical rule.
        self.checkpoint_policy = None
        self.checkpointing: bool = False
        self.ckpt_up: list[float] | None = None
        self.ckpt_work: list[float] | None = None
        #: True while a job's periodic commit is burning its overhead
        #: (the watermark has not advanced yet); cleared on any reset.
        self.ckpt_pending: list[bool] | None = None

        # The live set.  Jobs are released in ``_release_order``; the
        # first ``_n_released`` of them have release dates at or before
        # ``now`` as of the last sync.
        self._release: list[float] = instance.release.tolist()
        self._release_order: list[int] = np.argsort(instance.release, kind="stable").tolist()
        self._n_released = 0
        self._live: list[int] = []
        self._live_array: np.ndarray | None = None

    def enable_checkpoints(self, policy) -> None:
        """Attach a :class:`~repro.sim.checkpoint.CheckpointPolicy`.

        Watermarks start at the full instance amounts (nothing
        committed); they are only allocated when the policy actually
        commits, so a retry-budget-only policy leaves the reset paths
        on the historical from-scratch rule.
        """
        self.checkpoint_policy = policy
        if policy is not None and policy.checkpoints_enabled:
            self.checkpointing = True
            self.ckpt_up = list(self._up)
            self.ckpt_work = list(self._work)
            self.ckpt_pending = [False] * self.instance.n_jobs

    # -- queries ---------------------------------------------------------------

    def live_jobs(self) -> np.ndarray:
        """Indices of released, uncompleted jobs, ascending (int64).

        The same read-only array is returned until the live set changes.
        """
        self._sync_releases()
        live = self._live_array
        if live is None:
            live = np.array(self._live, dtype=np.int64)
            live.flags.writeable = False
            self._live_array = live
        return live

    def _sync_releases(self) -> None:
        """Move the release front to ``now`` and update the live set.

        The engine only moves ``now`` forward; a test or tool may also
        move it back, which withdraws the releases it undoes.
        """
        horizon = self.now + DEFAULT_ABS_TOL
        release = self._release
        order = self._release_order
        k = self._n_released
        if k < len(order) and release[order[k]] <= horizon:
            done = self.done
            live = self._live
            while k < len(order) and release[order[k]] <= horizon:
                if not done[order[k]]:
                    insort(live, order[k])
                k += 1
        elif k and release[order[k - 1]] > horizon:
            while k and release[order[k - 1]] > horizon:
                k -= 1
                self._leave(order[k])
        else:
            return
        self._n_released = k
        self._live_array = None

    def allocation(self, i: int) -> Resource | None:
        """Current allocation of job ``i`` (None before the first attempt)."""
        kind = self.alloc_kind[i]
        if kind == ALLOC_NONE:
            return None
        if kind == ALLOC_EDGE:
            return edge(self.alloc_index[i])
        return cloud(self.alloc_index[i])

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
        self.start_attempt(i, kind, resource.index)
        return True

    def start_attempt(self, i: int, kind: int, index: int) -> None:
        """Open a new attempt of job ``i`` on ``(kind, index)`` (allocation codes).

        Progress restarts from the durable watermark with checkpoints
        on, from scratch otherwise; an in-flight commit's overhead is
        lost with the old attempt.
        """
        self.alloc_kind[i] = kind
        self.alloc_index[i] = index
        self._restore(i)
        self.attempts[i] += 1
        self.rem_epoch += 1

    def abort(self, i: int) -> None:
        """Abort job ``i``'s current attempt (a crash killed its resource).

        The job returns to pending with no allocation; all progress of
        the attempt is lost, exactly as a re-assignment wipes it (the
        re-execution rule).  ``attempts`` is *not* rolled back — the
        aborted attempt happened — so the next assignment opens a fresh
        attempt and the re-execution counter stays truthful.
        """
        self.alloc_kind[i] = ALLOC_NONE
        self.alloc_index[i] = -1
        self._restore(i)
        self.rem_epoch += 1

    def _restore(self, i: int) -> None:
        """Reset job ``i``'s remaining amounts for a new attempt.

        With checkpoints only the uncommitted tail is lost: the amounts
        restore to the last durable watermark
        (:mod:`repro.sim.checkpoint`).
        """
        if self.checkpointing:
            self.rem_up[i] = self.ckpt_up[i]
            self.rem_work[i] = self.ckpt_work[i]
            self.ckpt_pending[i] = False
        else:
            self.rem_up[i] = self._up[i]
            self.rem_work[i] = self._work[i]
        self.rem_dn[i] = self._dn[i]

    def finish(self, i: int, time: float) -> None:
        """Mark job ``i`` completed at ``time``."""
        self.completion[i] = time
        self.done[i] = True
        self._leave(i)

    def abandon(self, i: int) -> None:
        """Mark job ``i`` done without a completion (its retry budget ran out)."""
        self.done[i] = True
        self._leave(i)

    def _leave(self, i: int) -> None:
        """Drop job ``i`` from the live set if it is there."""
        live = self._live
        pos = bisect_left(live, i)
        if pos < len(live) and live[pos] == i:
            del live[pos]
            self._live_array = None
