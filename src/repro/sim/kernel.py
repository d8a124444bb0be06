"""The activity kernel: job-progress arithmetic over the active set.

The middle layer of the sim-core.  Given the engine's *active set* —
parallel lists of (job, activity, rate) in grant order — the kernel
answers the two numeric questions of a simulation step:

* how far away the next activity completion is
  (:meth:`ActivityKernel.time_to_completion`, one ``rem / rate`` per
  active entry);
* what remains after advancing ``dt`` (:meth:`ActivityKernel.advance`,
  one ``rem -= rate * dt`` per active entry, with snap-to-zero at the
  per-job completion tolerances).

Which activity each entry requests is decided by the engine's grant
pass, which reads it off the remaining amounts as it grants
(``Engine._activate``, the rule of :meth:`SimState.phase`).

Each method takes plain lists and returns a list, and the remaining
amounts and tolerances it reads are the :class:`SimState` lists of
Python floats: each entry is one IEEE-754 double operation on its own
element, so a step's results do not depend on how many entries it has,
and no NumPy scalar enters the step (docs/ENGINE.md, "Why one list
path").
"""

from __future__ import annotations

from repro.core.instance import Instance
from repro.sim.state import SimState

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
