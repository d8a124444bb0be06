"""The activity kernel: job-progress arithmetic over the active set.

The middle layer of the sim-core.  Given the engine's *active set* —
parallel lists of (job, activity, rate) in grant order — the kernel
answers the three numeric questions of a simulation step:

* which activity each assigned job *requests* right now
  (:meth:`ActivityKernel.request_kinds`, the columnar form of
  :meth:`repro.sim.state.SimState.phase`);
* how far away the next activity completion is
  (:meth:`ActivityKernel.time_to_completion`, one ``rem / rate`` per
  active entry);
* what remains after advancing ``dt`` (:meth:`ActivityKernel.advance`,
  one ``rem -= rate * dt`` per active entry, with snap-to-zero at the
  per-job completion tolerances).

Each method takes plain lists and returns a list, and the remaining
amounts and tolerances it reads are the :class:`SimState` lists of
Python floats: each entry is one IEEE-754 double operation on its own
element, so a step's results do not depend on how many entries it has,
and no NumPy scalar enters the step (docs/ENGINE.md, "Why one list
path").
"""

from __future__ import annotations

from repro.core.instance import Instance
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK
from repro.sim.state import ALLOC_CLOUD, SimState
from repro.util.float_cmp import DEFAULT_ABS_TOL

#: Completion tolerance: an activity with less than this much remaining
#: (relative to its total amount) is considered finished.
_REL_TOL = 1e-9


class ActivityKernel:
    """Progress arithmetic over one run's :class:`SimState`."""

    __slots__ = ("state", "up_tol", "work_tol", "dn_tol")

    def __init__(self, instance: Instance, state: SimState):
        self.state = state
        # Completion tolerances per job, scaled by the amount magnitudes.
        self.up_tol = [max(1.0, x) * _REL_TOL for x in instance.up.tolist()]
        self.work_tol = [max(1.0, x) * _REL_TOL for x in instance.work.tolist()]
        self.dn_tol = [max(1.0, x) * _REL_TOL for x in instance.dn.tolist()]

    def request_kinds(self, jobs: list, kinds: list) -> list:
        """Activity code each assigned job requests in its current attempt.

        ``jobs`` / ``kinds`` are the decision's columns; the result
        holds :data:`ACT_UPLINK` / :data:`ACT_COMPUTE` /
        :data:`ACT_DOWNLINK` per position.  Mirrors
        :meth:`SimState.phase` (zero-length communications skipped; edge
        attempts compute only), minus the DONE case — completed jobs
        cannot appear in a well-formed decision.
        """
        rem_up = self.state.rem_up
        rem_work = self.state.rem_work
        out = []
        for j, k in zip(jobs, kinds):
            if k == ALLOC_CLOUD:
                if rem_up[j] > DEFAULT_ABS_TOL:
                    out.append(ACT_UPLINK)
                elif rem_work[j] > DEFAULT_ABS_TOL:
                    out.append(ACT_COMPUTE)
                else:
                    out.append(ACT_DOWNLINK)
            else:
                out.append(ACT_COMPUTE)
        return out

    def time_to_completion(self, jobs: list, acts: list, rates: list) -> list:
        """Remaining duration ``rem / rate`` of every active activity."""
        state = self.state
        rems = (state.rem_up, state.rem_work, state.rem_dn)
        return [rems[a][j] / r for j, a, r in zip(jobs, acts, rates)]

    def advance(self, jobs: list, acts: list, rates: list, dt: float) -> list:
        """Advance every active activity by ``dt``; return completion flags.

        Remaining amounts within tolerance of zero are snapped to
        exactly ``0.0`` (so downstream phase tests see clean state),
        and the returned list marks, per active position, activities
        that finished at the end of this step.
        """
        state = self.state
        rems = (state.rem_up, state.rem_work, state.rem_dn)
        tols = (self.up_tol, self.work_tol, self.dn_tol)
        done = []
        for j, a, r in zip(jobs, acts, rates):
            rem = rems[a]
            left = rem[j] - r * dt
            if left <= tols[a][j]:
                rem[j] = 0.0
                done.append(True)
            else:
                rem[j] = left
                done.append(False)
        return done
