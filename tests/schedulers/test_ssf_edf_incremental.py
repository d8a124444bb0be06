"""Decision-reuse layer of SSF-EDF: bit-identity and cache hygiene.

The incremental machinery (probe adoption + cached replay, see
:mod:`repro.schedulers.placement`) must never change a schedule: every
test here runs the same instance with ``incremental=True`` and
``incremental=False`` (the historical rebuild-everything behavior) and
requires byte-identical outcomes — including under fault injection,
where aborted attempts must invalidate the cache.
"""

import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud
from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.schedulers.ssf_edf import SsfEdfScheduler, _edf_placement
from repro.sim.availability import CloudAvailability
from repro.sim.engine import simulate
from repro.sim.state import SimState
from repro.sim.view import SimulationView
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)


def canon(schedule):
    """Canonical, bitwise serialization of an interval schedule.

    ``Schedule``/``IntervalSet`` compare by identity, so schedule
    equality must go through the float bit patterns of every recorded
    interval (``float.hex`` round-trips exactly).
    """
    out = []
    for k in sorted(schedule.job_schedules):
        js = schedule.job_schedules[k]
        atts = []
        for a in js.attempts:
            atts.append(
                (
                    (a.resource.kind.value, a.resource.index),
                    tuple((iv.start.hex(), iv.end.hex()) for iv in a.execution),
                    tuple((iv.start.hex(), iv.end.hex()) for iv in a.uplink),
                    tuple((iv.start.hex(), iv.end.hex()) for iv in a.downlink),
                )
            )
        out.append((k, tuple(atts), None if js.completion is None else js.completion.hex()))
    return tuple(out)


def _ab_run(instance, *, faults=None):
    """Run incremental on/off; return both results."""
    kwargs = {} if faults is None else {"faults": faults}
    inc = simulate(instance, SsfEdfScheduler(incremental=True), **kwargs)
    ref = simulate(instance, SsfEdfScheduler(incremental=False), **kwargs)
    return inc, ref


class TestIncrementalBitIdentity:
    @pytest.mark.parametrize("seed,load", [(7, 0.5), (11, 1.0), (13, 1.5)])
    def test_random_instances_identical(self, seed, load):
        instance = generate_random_instance(
            RandomInstanceConfig(n_jobs=60, ccr=1.0, load=load),
            platform=paper_random_platform(),
            seed=seed,
        )
        inc, ref = _ab_run(instance)
        assert inc.completion.tobytes() == ref.completion.tobytes()
        assert canon(inc.schedule) == canon(ref.schedule)
        assert inc.n_reexecutions == ref.n_reexecutions
        # The reuse layer actually fired (otherwise this tests nothing).
        assert inc.scheduler_stats["scheduler.probe_reuses"] > 0

    def test_fault_aborts_produce_identical_traces(self):
        # Attempts aborted mid-flight (including inside a cached
        # placement's modeled windows) must invalidate the reuse cache:
        # with and without decision reuse the runs' event traces —
        # every executed interval of every attempt — are byte-identical.
        instance = generate_random_instance(
            RandomInstanceConfig(n_jobs=80, ccr=1.0, load=1.2),
            platform=paper_random_platform(),
            seed=21,
        )
        faults = exponential_fault_trace(
            n_edge=20,
            n_cloud=20,
            horizon=300.0,
            seed=5,
            edge=FaultClassParams(mtbf=60.0, mttr=4.0),
            cloud=FaultClassParams(mtbf=40.0, mttr=3.0),
            link=FaultClassParams(mtbf=50.0, mttr=2.0),
        )
        inc, ref = _ab_run(instance, faults=faults)
        assert ref.n_reexecutions > 0  # faults actually aborted attempts
        assert inc.completion.tobytes() == ref.completion.tobytes()
        assert canon(inc.schedule) == canon(ref.schedule)
        assert inc.n_events == ref.n_events
        assert inc.n_decisions == ref.n_decisions


class TestSchedulerObjectReuse:
    def test_two_runs_same_object_deterministic(self):
        # start() must wipe the ratchet, the deadline array, the search
        # hint, and the whole reuse cache — running the same scheduler
        # object twice must give byte-identical schedules.
        instance = generate_random_instance(
            RandomInstanceConfig(n_jobs=40, ccr=1.0, load=1.0),
            platform=paper_random_platform(),
            seed=3,
        )
        scheduler = SsfEdfScheduler()
        first = simulate(instance, scheduler)
        second = simulate(instance, scheduler)
        assert first.completion.tobytes() == second.completion.tobytes()
        assert canon(first.schedule) == canon(second.schedule)
        assert first.scheduler_stats == second.scheduler_stats

    def test_two_runs_different_instances_same_object(self):
        # A second run on a *different* instance must not see stale
        # kernel/cache state sized for the first.
        big = generate_random_instance(
            RandomInstanceConfig(n_jobs=50, ccr=1.0, load=1.0),
            platform=paper_random_platform(),
            seed=4,
        )
        small = generate_random_instance(
            RandomInstanceConfig(n_jobs=20, ccr=1.0, load=0.5),
            platform=paper_random_platform(),
            seed=5,
        )
        scheduler = SsfEdfScheduler()
        simulate(big, scheduler)
        reused = simulate(small, scheduler)
        fresh = simulate(small, SsfEdfScheduler())
        assert reused.completion.tobytes() == fresh.completion.tobytes()
        assert canon(reused.schedule) == canon(fresh.schedule)


class TestStayTieBreak:
    def _view(self, inst):
        return SimulationView(SimState(inst), CloudAvailability.always_available())

    def test_current_cloud_wins_exact_tie(self):
        # Two identical cloud processors; the job is already allocated
        # to cloud 0 with no progress yet, so its chain on cloud 0 ties
        # cloud 1's bitwise.  The stay-bonus must keep it on cloud 0 —
        # moving would wipe the attempt for no gain.
        platform = Platform.create([0.01], n_cloud=2)
        inst = Instance.create(platform, [Job(origin=0, work=1.0, up=2.0, dn=1.0)])
        state = SimState(inst)
        state.assign(0, cloud(0))
        view = SimulationView(state, CloudAvailability.always_available())
        placement, _, _ = _edf_placement(view, [0], [100.0])
        assert placement == [(0, cloud(0))]

    def test_partial_progress_stays_put(self):
        # Mid-uplink progress shortens the staying chain outright; the
        # placement must keep the current cloud, not restart elsewhere.
        platform = Platform.create([0.01], n_cloud=2)
        inst = Instance.create(platform, [Job(origin=0, work=1.0, up=2.0, dn=1.0)])
        state = SimState(inst)
        state.assign(0, cloud(1))
        state.rem_up[0] = 0.5
        view = SimulationView(state, CloudAvailability.always_available())
        placement, _, _ = _edf_placement(view, [0], [100.0])
        assert placement == [(0, cloud(1))]

    def test_no_gratuitous_reexecutions_on_symmetric_clouds(self):
        # Cloud-attractive jobs on a platform of identical cloud
        # processors: every rebuild re-derives the same placement, so
        # the run must finish without a single re-execution.
        platform = Platform.create([0.01, 0.01], n_cloud=4)
        jobs = [
            Job(origin=i % 2, work=1.0, up=0.2, dn=0.2, release=0.25 * i)
            for i in range(8)
        ]
        inst = Instance.create(platform, jobs)
        result = simulate(inst, SsfEdfScheduler())
        assert result.n_reexecutions == 0
