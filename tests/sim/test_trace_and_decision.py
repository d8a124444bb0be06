"""Tests for repro.sim.trace, repro.sim.decision, repro.sim.events."""

from types import SimpleNamespace

import pytest

from repro.core.errors import DecisionError
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
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK
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


def started_recorder(instance) -> TraceRecorder:
    """A recorder after ``on_start`` (it only reads the view's instance)."""
    rec = TraceRecorder()
    rec.on_start(SimpleNamespace(instance=instance))
    return rec


def step(rec, t0, t1, job, act, rate=1.0):
    """One engine step in which ``job`` alone ran activity ``act``."""
    rec.on_step(t0, t1, [job], [act], [rate])


class TestTraceRecorder:
    def test_records_attempt_and_phases(self, instance):
        rec = started_recorder(instance)
        rec.on_assign(0, cloud(0), 0.0)
        step(rec, 0.0, 1.0, 0, ACT_UPLINK)
        step(rec, 1.0, 3.0, 0, ACT_COMPUTE)
        step(rec, 3.0, 4.0, 0, ACT_DOWNLINK)
        rec.on_complete(0, 4.0)
        schedule = rec.build()
        attempt = schedule.job_schedules[0].final_attempt
        assert attempt.uplink.total_length() == 1.0
        assert attempt.execution.total_length() == 2.0
        assert attempt.downlink.total_length() == 1.0
        assert schedule.job_schedules[0].completion == 4.0

    def test_zero_length_segments_dropped(self, instance):
        rec = started_recorder(instance)
        rec.on_assign(0, edge(0), 1.0)
        step(rec, 1.0, 1.0, 0, ACT_COMPUTE)
        assert len(rec.build().job_schedules[0].final_attempt.execution) == 0

    def test_contiguous_segments_merged(self, instance):
        rec = started_recorder(instance)
        rec.on_assign(0, edge(0), 0.0)
        step(rec, 0.0, 1.0, 0, ACT_COMPUTE)
        step(rec, 1.0, 2.0, 0, ACT_COMPUTE)
        execution = rec.build().job_schedules[0].final_attempt.execution
        assert len(execution) == 1
        assert execution.total_length() == 2.0
        # One coalesced segment in the record, too.
        assert rec._attempts[0][0]["segments"] == [[ACT_COMPUTE, 0.0, 2.0]]

    def test_second_attempt_separates_intervals(self, instance):
        rec = started_recorder(instance)
        rec.on_assign(0, edge(0), 0.0)
        step(rec, 0.0, 1.0, 0, ACT_COMPUTE)
        rec.on_assign(0, cloud(0), 1.0)
        step(rec, 1.0, 2.0, 0, ACT_UPLINK)
        schedule = rec.build()
        js = schedule.job_schedules[0]
        assert len(js.attempts) == 2
        assert js.attempts[0].execution.total_length() == 1.0
        assert js.attempts[1].uplink.total_length() == 1.0

    def test_attempt_outcomes(self, instance):
        rec = started_recorder(instance)
        rec.on_assign(0, edge(0), 0.0)
        step(rec, 0.0, 0.5, 0, ACT_COMPUTE)
        rec.on_assign(0, cloud(0), 0.5)
        rec.on_abort(0, 1.0)
        rec.on_assign(0, edge(0), 2.0)
        step(rec, 2.0, 4.0, 0, ACT_COMPUTE)
        rec.on_complete(0, 4.0)
        record = [(a["start"], a["end"], a["outcome"]) for a in rec._attempts[0]]
        assert record == [
            (0.0, 0.5, "superseded"),
            (0.5, 1.0, "aborted"),
            (2.0, 4.0, "completed"),
        ]
        # The aborted attempt never ran: an empty attempt in the schedule.
        attempts = rec.build().job_schedules[0].attempts
        assert [a.resource for a in attempts] == [edge(0), cloud(0), edge(0)]
        assert not (attempts[1].uplink or attempts[1].execution or attempts[1].downlink)
