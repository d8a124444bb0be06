"""Tests for repro.sim.trace, repro.sim.decision, repro.sim.events."""

import pytest

from repro.core.errors import DecisionError, SimulationError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.sim.decision import Assignment, Decision
from repro.sim.events import (
    Event,
    EventKind,
    availability_change,
    compute_done,
    downlink_done,
    job_done,
    release,
    uplink_done,
)
from repro.sim.state import Phase
from repro.sim.trace import TraceRecorder


@pytest.fixture
def instance() -> Instance:
    platform = Platform.create([1.0], n_cloud=1)
    return Instance.create(platform, [Job(origin=0, work=2.0, up=1.0, dn=1.0)])


class TestDecision:
    def test_of_builder(self):
        d = Decision.of([(0, edge(0)), (1, cloud(0))])
        assert len(d) == 2
        assert d.assignments[0] == Assignment(0, edge(0))

    def test_add_appends_lowest_priority(self):
        d = Decision()
        d.add(3, cloud(0))
        d.add(1, edge(0))
        assert [a.job for a in d] == [3, 1]

    def test_duplicate_detected(self):
        d = Decision.of([(0, edge(0)), (0, cloud(0))])
        with pytest.raises(DecisionError):
            d.check_well_formed()

    def test_empty_is_falsy(self):
        assert not Decision()
        assert Decision.of([(0, edge(0))])


class TestEvents:
    def test_constructors(self):
        assert release(1.0, 3).kind is EventKind.RELEASE
        assert uplink_done(1.0, 3).kind is EventKind.UPLINK_DONE
        assert compute_done(1.0, 3).kind is EventKind.COMPUTE_DONE
        assert downlink_done(1.0, 3).kind is EventKind.DOWNLINK_DONE
        assert job_done(1.0, 3).kind is EventKind.JOB_DONE
        assert availability_change(1.0).job is None

    def test_immutability(self):
        e = release(1.0, 0)
        with pytest.raises(AttributeError):
            e.time = 2.0

    def test_carries_time_and_job(self):
        e = compute_done(4.5, 7)
        assert e.time == 4.5 and e.job == 7


class TestTraceRecorder:
    def test_records_attempt_and_phases(self, instance):
        rec = TraceRecorder(instance)
        rec.new_attempt(0, cloud(0))
        rec.record(0, Phase.UPLINK, 0.0, 1.0)
        rec.record(0, Phase.COMPUTE, 1.0, 3.0)
        rec.record(0, Phase.DOWNLINK, 3.0, 4.0)
        rec.complete(0, 4.0)
        schedule = rec.build()
        attempt = schedule.job_schedules[0].final_attempt
        assert attempt.uplink.total_length() == 1.0
        assert attempt.execution.total_length() == 2.0
        assert attempt.downlink.total_length() == 1.0
        assert schedule.job_schedules[0].completion == 4.0

    def test_zero_length_segments_dropped(self, instance):
        rec = TraceRecorder(instance)
        rec.new_attempt(0, edge(0))
        rec.record(0, Phase.COMPUTE, 1.0, 1.0)
        assert len(rec.build().job_schedules[0].final_attempt.execution) == 0

    def test_contiguous_segments_merged(self, instance):
        rec = TraceRecorder(instance)
        rec.new_attempt(0, edge(0))
        rec.record(0, Phase.COMPUTE, 0.0, 1.0)
        rec.record(0, Phase.COMPUTE, 1.0, 2.0)
        execution = rec.build().job_schedules[0].final_attempt.execution
        assert len(execution) == 1
        assert execution.total_length() == 2.0

    def test_activity_before_attempt_rejected(self, instance):
        rec = TraceRecorder(instance)
        with pytest.raises(SimulationError):
            rec.record(0, Phase.COMPUTE, 0.0, 1.0)

    def test_second_attempt_separates_intervals(self, instance):
        rec = TraceRecorder(instance)
        rec.new_attempt(0, edge(0))
        rec.record(0, Phase.COMPUTE, 0.0, 1.0)
        rec.new_attempt(0, cloud(0))
        rec.record(0, Phase.UPLINK, 1.0, 2.0)
        schedule = rec.build()
        js = schedule.job_schedules[0]
        assert len(js.attempts) == 2
        assert js.attempts[0].execution.total_length() == 1.0
        assert js.attempts[1].uplink.total_length() == 1.0
