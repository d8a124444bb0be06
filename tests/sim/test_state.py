"""Tests for repro.sim.state."""

import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE, Phase, SimState


@pytest.fixture
def state() -> SimState:
    platform = Platform.create([0.5], n_cloud=2)
    inst = Instance.create(
        platform,
        [
            Job(origin=0, work=2.0, release=0.0, up=1.0, dn=1.0),
            Job(origin=0, work=1.0, release=5.0, up=0.0, dn=0.0),
        ],
    )
    return SimState(inst)


class TestInitialState:
    def test_remaining_amounts(self, state):
        assert state.rem_up == [1.0, 0.0]
        assert state.rem_work == [2.0, 1.0]
        assert state.rem_dn == [1.0, 0.0]

    def test_nothing_allocated(self, state):
        assert state.alloc_kind == [ALLOC_NONE, ALLOC_NONE]
        assert state.allocation(0) is None

    def test_live_jobs_respects_release(self, state):
        assert state.live_jobs().tolist() == [0]
        state.now = 5.0
        assert state.live_jobs().tolist() == [0, 1]


class TestAssignment:
    def test_first_assignment_is_new_attempt(self, state):
        assert state.assign(0, cloud(1)) is True
        assert state.alloc_kind[0] == ALLOC_CLOUD
        assert state.alloc_index[0] == 1
        assert state.attempts[0] == 1

    def test_same_resource_is_noop(self, state):
        state.assign(0, cloud(1))
        state.rem_work[0] = 0.7
        assert state.assign(0, cloud(1)) is False
        assert state.rem_work[0] == 0.7
        assert state.attempts[0] == 1

    def test_reassignment_resets_progress(self, state):
        state.assign(0, cloud(1))
        state.rem_up[0] = 0.0
        state.rem_work[0] = 0.3
        assert state.assign(0, edge(0)) is True
        assert state.rem_up[0] == 1.0
        assert state.rem_work[0] == 2.0
        assert state.rem_dn[0] == 1.0
        assert state.alloc_kind[0] == ALLOC_EDGE
        assert state.attempts[0] == 2

    def test_cloud_to_other_cloud_resets(self, state):
        state.assign(0, cloud(0))
        state.rem_up[0] = 0.0
        assert state.assign(0, cloud(1)) is True
        assert state.rem_up[0] == 1.0


class TestPhase:
    def test_edge_is_compute(self, state):
        state.assign(0, edge(0))
        assert state.phase(0) is Phase.COMPUTE

    def test_cloud_progression(self, state):
        state.assign(0, cloud(0))
        assert state.phase(0) is Phase.UPLINK
        state.rem_up[0] = 0.0
        assert state.phase(0) is Phase.COMPUTE
        state.rem_work[0] = 0.0
        assert state.phase(0) is Phase.DOWNLINK

    def test_zero_uplink_skipped(self, state):
        state.assign(1, cloud(0))
        assert state.phase(1) is Phase.COMPUTE

    def test_done(self, state):
        state.assign(0, edge(0))
        state.finish(0, 3.0)
        assert state.phase(0) is Phase.DONE
        assert state.completion[0] == 3.0
        assert state.done[0]
        assert 0 not in state.live_jobs().tolist()
