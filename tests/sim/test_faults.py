"""Engine integration of fault traces: abort semantics and invariants.

Hand-crafted scenarios pin the re-execution rule exactly (when an
attempt dies, what survives, and when work resumes); randomized runs
check the physical invariant that nothing executes on a dead resource
and that faulty schedules still pass the full model validator.
"""

import hashlib

import pytest

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.intervals import Interval
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.validation import validate_schedule
from repro.faults import FaultClassParams, FaultTrace, exponential_fault_trace
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.sim.hooks import EngineHooks
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)


def edge_instance(work=10.0):
    platform = Platform.create([1.0], n_cloud=0)
    return Instance.create(platform, [Job(origin=0, work=work)])


def cloud_instance():
    platform = Platform.create([0.1], n_cloud=1)
    return Instance.create(platform, [Job(origin=0, work=10.0, up=1.0, dn=1.0)])


class AbortRecorder(EngineHooks):
    def __init__(self):
        self.aborts = []
        self.assigns = []

    def on_abort(self, job, time):
        self.aborts.append((job, time))

    def on_assign(self, job, resource, now):
        self.assigns.append((job, resource, now))


class TestAbortSemantics:
    def test_edge_crash_restarts_work_from_scratch(self):
        faults = FaultTrace(edge_down={0: (Interval(2.0, 3.0),)})
        hooks = AbortRecorder()
        result = simulate(
            edge_instance(), make_scheduler("edge-only"), faults=faults, hooks=[hooks]
        )
        # 2 units of work lost at the crash; resume at recovery (t=3).
        assert result.completion[0] == pytest.approx(13.0)
        assert result.n_reexecutions == 1
        assert hooks.aborts == [(0, 2.0)]

    def test_crash_exactly_at_completion_is_not_an_abort(self):
        # The job finishes at t=10; a crash starting there kills nothing.
        faults = FaultTrace(edge_down={0: (Interval(10.0, 11.0),)})
        result = simulate(edge_instance(), make_scheduler("edge-only"), faults=faults)
        assert result.completion[0] == pytest.approx(10.0)
        assert result.n_reexecutions == 0

    def test_cloud_crash_aborts_regardless_of_phase(self):
        # Uplink [0,1), compute [1,11): the crash at t=5 hits mid-compute
        # and the whole attempt (staged data included) is lost.
        faults = FaultTrace(cloud_down={0: (Interval(5.0, 6.0),)})
        hooks = AbortRecorder()
        result = simulate(
            cloud_instance(), make_scheduler("cloud-only"), faults=faults, hooks=[hooks]
        )
        assert hooks.aborts == [(0, 5.0)]
        # Restart at recovery: up [6,7), compute [7,17), down [17,18).
        assert result.completion[0] == pytest.approx(18.0)

    def test_link_outage_aborts_inflight_uplink(self):
        faults = FaultTrace(link_down={0: (Interval(0.5, 2.0),)})
        hooks = AbortRecorder()
        result = simulate(
            cloud_instance(), make_scheduler("cloud-only"), faults=faults, hooks=[hooks]
        )
        assert hooks.aborts == [(0, 0.5)]
        # Uplink restarts once the link returns: up [2,3), compute
        # [3,13), down [13,14).
        assert result.completion[0] == pytest.approx(14.0)

    def test_link_outage_spares_cloud_compute(self):
        # Outage [2,20) covers the whole compute phase [1,11): the
        # attempt survives and only the downlink waits for the link.
        faults = FaultTrace(link_down={0: (Interval(2.0, 20.0),)})
        hooks = AbortRecorder()
        result = simulate(
            cloud_instance(), make_scheduler("cloud-only"), faults=faults, hooks=[hooks]
        )
        assert hooks.aborts == []
        assert result.n_reexecutions == 0
        assert result.completion[0] == pytest.approx(21.0)

    def test_down_resource_not_allocated(self):
        # Edge 0 is down from the start; nothing may start on it until
        # t=4 even though the job is released at 0.
        faults = FaultTrace(edge_down={0: (Interval(0.0, 4.0),)})
        result = simulate(edge_instance(), make_scheduler("edge-only"), faults=faults)
        assert result.completion[0] == pytest.approx(14.0)
        assert result.n_reexecutions == 0


class TestTraceMustFitPlatform:
    @pytest.mark.parametrize(
        "domain,noun", [("edge", "edge units"), ("cloud", "cloud processors"), ("link", "access links")]
    )
    @pytest.mark.parametrize("policy", ["fcfs", "ssf-edf", "ssf-edf-fa"])
    def test_unknown_resource_is_a_model_error(self, domain, noun, policy):
        # A 2-edge, 2-cloud platform; the trace also names resource 2,
        # one past the end.  The run must refuse it up front, not crash
        # with an IndexError at the first fault boundary.
        platform = Platform.create([1.0, 0.5], n_cloud=2)
        jobs = [Job(origin=r % 2, work=1.0, release=float(r), up=0.5, dn=0.5) for r in range(4)]
        down = {i: (Interval(0.5, 1.5),) for i in range(3)}
        faults = FaultTrace(**{f"{domain}_down": down})
        with pytest.raises(
            ModelError, match=rf"fault trace names {domain}\[2\], but the platform has 2 {noun}"
        ):
            simulate(Instance.create(platform, jobs), make_scheduler(policy), faults=faults)


class TestDeterminismAndIdentity:
    CASES = [(20210101, 0.5), (20210102, 2.0)]

    def _instance(self, seed, load):
        return generate_random_instance(
            RandomInstanceConfig(n_jobs=60, ccr=1.0, load=load),
            platform=paper_random_platform(),
            seed=seed,
        )

    @pytest.mark.parametrize("seed,load", CASES)
    def test_empty_trace_is_byte_identical_to_no_trace(self, seed, load):
        instance = self._instance(seed, load)
        for name in ("fcfs", "greedy", "ssf-edf"):
            base = simulate(instance, make_scheduler(name))
            empty = simulate(instance, make_scheduler(name), faults=FaultTrace.none())
            assert base.completion.tobytes() == empty.completion.tobytes()
            assert base.n_events == empty.n_events
            assert base.n_decisions == empty.n_decisions

    @pytest.mark.parametrize("seed,load", CASES)
    def test_faulty_run_replays_byte_identically(self, seed, load):
        instance = self._instance(seed, load)
        faults = exponential_fault_trace(
            n_edge=instance.platform.n_edge,
            n_cloud=instance.platform.n_cloud,
            horizon=float(instance.release.max() + instance.min_time.sum()),
            seed=seed,
            edge=FaultClassParams(mtbf=40.0, mttr=4.0),
            cloud=FaultClassParams(mtbf=40.0, mttr=4.0),
            link=FaultClassParams(mtbf=40.0, mttr=4.0),
        )
        digests = {
            hashlib.sha256(
                simulate(instance, make_scheduler("ssf-edf"), faults=faults)
                .completion.tobytes()
            ).hexdigest()
            for _ in range(2)
        }
        assert len(digests) == 1


def _assert_never_on_dead_resource(schedule, faults):
    """No execution/transfer interval may overlap its resource's downtime."""
    for js in schedule.iter_job_schedules():
        origin = schedule.instance.jobs[js.job_id].origin
        for attempt in js.attempts:
            res = attempt.resource
            down = (
                faults.edge_down.get(res.index, ())
                if res.is_edge
                else faults.cloud_down.get(res.index, ())
            )
            for iv in attempt.execution:
                for d in down:
                    assert not iv.overlaps(d), (
                        f"job {js.job_id} executed {iv} on {res} during downtime {d}"
                    )
            # Transfers need the origin's link and edge unit alive, and
            # (being cloud-attempt phases) the cloud processor too.
            blockers = (
                faults.link_down.get(origin, ())
                + faults.edge_down.get(origin, ())
                + (faults.cloud_down.get(res.index, ()) if not res.is_edge else ())
            )
            for ivset in (attempt.uplink, attempt.downlink):
                for iv in ivset:
                    for d in blockers:
                        assert not iv.overlaps(d), (
                            f"job {js.job_id} transfer {iv} during outage {d}"
                        )


class TestRandomizedFaultInvariants:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("policy", ["fcfs", "greedy", "ssf-edf"])
    def test_valid_schedule_and_no_work_on_dead_resources(self, seed, policy):
        instance = generate_random_instance(
            RandomInstanceConfig(n_jobs=40, ccr=1.0, load=0.5),
            platform=paper_random_platform(),
            seed=seed,
        )
        faults = exponential_fault_trace(
            n_edge=instance.platform.n_edge,
            n_cloud=instance.platform.n_cloud,
            horizon=float(instance.release.max() + instance.min_time.sum()),
            seed=seed + 1000,
            edge=FaultClassParams(mtbf=30.0, mttr=3.0),
            cloud=FaultClassParams(mtbf=30.0, mttr=3.0),
            link=FaultClassParams(mtbf=30.0, mttr=3.0),
        )
        assert not faults.is_empty  # the scenario must actually inject
        result = simulate(
            instance, make_scheduler(policy), faults=faults, record_trace=True
        )
        assert validate_schedule(result.schedule) == []
        _assert_never_on_dead_resource(result.schedule, faults)
