"""Tests for repro.sim.view: the estimates the heuristics rely on."""

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.sim.availability import CloudAvailability
from repro.sim.state import SimState
from repro.sim.view import SimulationView
from tests.schedulers.matrix_reference import (
    current_columns,
    durations_matrix,
    stretch_matrix,
)


@pytest.fixture
def setup():
    platform = Platform.create([0.5, 0.25], cloud_speeds=[1.0, 2.0])
    inst = Instance.create(
        platform,
        [
            Job(origin=0, work=2.0, release=0.0, up=1.0, dn=1.0),
            Job(origin=1, work=4.0, release=0.0, up=0.5, dn=0.5),
        ],
    )
    state = SimState(inst)
    view = SimulationView(state, CloudAvailability.always_available())
    return inst, state, view


class TestScalarEstimates:
    def test_duration_on_edge_fresh(self, setup):
        _, _, view = setup
        assert view.duration_on(0, edge(0)) == pytest.approx(4.0)  # 2 / 0.5

    def test_duration_on_cloud_fresh(self, setup):
        _, _, view = setup
        assert view.duration_on(0, cloud(0)) == pytest.approx(4.0)  # 1 + 2 + 1
        assert view.duration_on(0, cloud(1)) == pytest.approx(3.0)  # speed 2

    def test_duration_keeps_progress_on_current_resource(self, setup):
        _, state, view = setup
        state.assign(0, cloud(0))
        state.rem_up[0] = 0.0
        state.rem_work[0] = 0.5
        assert view.duration_on(0, cloud(0)) == pytest.approx(0.0 + 0.5 + 1.0)
        # Other resources see a fresh re-execution.
        assert view.duration_on(0, cloud(1)) == pytest.approx(1.0 + 1.0 + 1.0)
        assert view.duration_on(0, edge(0)) == pytest.approx(4.0)

    def test_wrong_edge_rejected(self, setup):
        _, _, view = setup
        with pytest.raises(ModelError):
            view.duration_on(0, edge(1))

    def test_completion_and_stretch(self, setup):
        _, state, view = setup
        state.now = 2.0
        # J0 min_time = min(edge 4, best cloud 1 + 2/2 + 1 = 3) = 3;
        # completing on cloud(1) at 2 + 3 = 5.
        assert view.completion_est(0, cloud(1)) == pytest.approx(5.0)
        assert view.stretch_est(0, cloud(1)) == pytest.approx(5.0 / 3.0)


class TestVectorizedEstimates:
    def test_matrix_matches_scalars(self, setup):
        inst, state, view = setup
        state.assign(0, cloud(0))
        state.rem_work[0] = 1.0
        jobs = np.array([0, 1])
        matrix = durations_matrix(view, jobs)
        assert matrix.shape == (2, 3)
        for row, i in enumerate(jobs):
            assert matrix[row, 0] == pytest.approx(view.duration_on(int(i), edge(inst.jobs[int(i)].origin)))
            for k in range(2):
                assert matrix[row, 1 + k] == pytest.approx(view.duration_on(int(i), cloud(k)))

    def test_stretch_matrix(self, setup):
        inst, state, view = setup
        state.now = 1.0
        jobs = np.array([0, 1])
        sm = stretch_matrix(view, jobs)
        dm = durations_matrix(view, jobs)
        expected = (state.now + dm - inst.release[jobs][:, None]) / inst.min_time[jobs][:, None]
        assert np.allclose(sm, expected)

    def test_current_columns(self, setup):
        _, state, view = setup
        jobs = np.array([0, 1])
        assert current_columns(view, jobs).tolist() == [-1, -1]
        state.assign(0, edge(0))
        state.assign(1, cloud(1))
        assert current_columns(view, jobs).tolist() == [0, 2]

    def test_live_jobs_forwarded(self, setup):
        _, state, view = setup
        assert view.live_jobs().tolist() == [0, 1]
        state.finish(0, 1.0)
        assert view.live_jobs().tolist() == [1]

    def test_min_time(self, setup):
        inst, _, view = setup
        assert view.min_time(1) == pytest.approx(float(inst.min_time[1]))
