"""Tests for the SSF-EDF heuristic (Section V-D)."""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud
from repro.core.validation import validate_schedule
from repro.schedulers.ssf_edf import SsfEdfScheduler, _edf_placement
from repro.sim.availability import CloudAvailability
from repro.sim.engine import simulate
from repro.sim.state import SimState
from repro.sim.view import SimulationView


class TestConstruction:
    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            SsfEdfScheduler(eps=0.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            SsfEdfScheduler(alpha=-1.0)

    def test_start_resets_state(self):
        # Every piece of per-run state must be wiped: the ratchet, the
        # deadline list, the search hint, and the whole reuse cache —
        # a leak would poison the next run of a reused scheduler object.
        s = SsfEdfScheduler()
        s._stretch_so_far = 5.0
        s._hint = 4.5
        s._has_deadlines = True
        s._cache_live = [7]
        s._cache_epoch = 99
        s._cache_placed = object()
        s._cache = object()
        s._cache_seed = object()

        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])
        view = SimulationView(SimState(inst), CloudAvailability.always_available())
        s.start(view)
        assert s._stretch_so_far == 1.0
        assert s._hint is None
        assert not s._has_deadlines
        assert s._cache is None
        assert s._cache_seed is None
        assert s._cache_placed is None
        assert s._cache_live == []
        assert s._cache_epoch == -1
        assert s._deadlines == [0.0]
        assert s._kernel is not None and s._kernel.instance is inst


class TestBehavior:
    def test_single_job_optimal(self):
        platform = Platform.create([0.25], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=2.0, up=1.0, dn=1.0)])
        result = simulate(inst, SsfEdfScheduler())
        assert result.max_stretch == pytest.approx(1.0, abs=1e-6)

    def test_no_release_dates_prefers_short_first(self):
        # Both at t=0 on one machine: the binary search finds the SPT
        # optimum (short job first).
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(
            platform, [Job(origin=0, work=10.0), Job(origin=0, work=1.0)]
        )
        result = simulate(inst, SsfEdfScheduler())
        assert result.completion[1] == pytest.approx(1.0)
        assert result.max_stretch == pytest.approx(1.1, rel=1e-2)

    def test_stretch_so_far_monotone(self):
        platform = Platform.create([1.0], n_cloud=0)
        jobs = [Job(origin=0, work=1.0, release=float(i)) for i in range(4)]
        inst = Instance.create(platform, jobs)
        scheduler = SsfEdfScheduler()
        estimates = []

        orig = scheduler._release_placement

        def spy(view, live):
            placed = orig(view, live)
            estimates.append(scheduler._stretch_so_far)
            return placed

        scheduler._release_placement = spy
        simulate(inst, scheduler)
        assert estimates == sorted(estimates)

    def test_paper_edf_counterexample_still_schedulable(self):
        # Section V-D example: two jobs, one cloud processor; pure EDF
        # misses d_2 = 6 but the instance is schedulable.  SSF-EDF is
        # EDF-based, so we only require a valid schedule with a finite
        # stretch, not optimality.
        platform = Platform.create([0.01], n_cloud=1)
        jobs = [
            Job(origin=0, work=1.0, up=2.0, dn=0.0),
            Job(origin=0, work=1.0, up=2.0, dn=0.0),
        ]
        inst = Instance.create(platform, jobs)
        result = simulate(inst, SsfEdfScheduler())
        assert validate_schedule(result.schedule) == []
        # Serialized uplinks: one of the two must wait 2 units.
        assert result.max_stretch <= 2.0 + 1e-6

    def test_alpha_scales_deadlines(self, figure1_instance):
        r1 = simulate(figure1_instance, SsfEdfScheduler(alpha=1.0))
        r2 = simulate(figure1_instance, SsfEdfScheduler(alpha=4.0))
        assert validate_schedule(r2.schedule) == []
        # Both valid; values may differ but both complete all jobs.
        assert np.isfinite(r1.max_stretch) and np.isfinite(r2.max_stretch)


class TestEdfPlacement:
    def _view(self, inst):
        return SimulationView(SimState(inst), CloudAvailability.always_available())

    def test_placement_covers_all_live_jobs(self):
        platform = Platform.create([0.5], n_cloud=2)
        jobs = [Job(origin=0, work=2.0, up=1.0, dn=1.0) for _ in range(4)]
        inst = Instance.create(platform, jobs)
        view = self._view(inst)
        live = [0, 1, 2, 3]
        placement, completions, _ = _edf_placement(view, live, [0.0, 1.0, 2.0, 3.0])
        assert sorted(j for j, _ in placement) == [0, 1, 2, 3]
        assert len(completions) == 4

    def test_placement_orders_by_deadline(self):
        platform = Platform.create([0.5], n_cloud=1)
        jobs = [Job(origin=0, work=2.0) for _ in range(3)]
        inst = Instance.create(platform, jobs)
        view = self._view(inst)
        deadlines = [5.0, 1.0, 3.0]
        placement, _, _ = _edf_placement(view, [0, 1, 2], deadlines)
        assert [j for j, _ in placement] == [1, 2, 0]

    def test_placement_respects_port_reservations(self):
        # Two cloud-bound jobs from one edge unit: the second's uplink
        # must be scheduled after the first's in the estimate.
        platform = Platform.create([0.01], n_cloud=2)
        jobs = [Job(origin=0, work=1.0, up=3.0, dn=0.0) for _ in range(2)]
        inst = Instance.create(platform, jobs)
        view = self._view(inst)
        placement, completions, _ = _edf_placement(view, [0, 1], [1.0, 2.0])
        assert completions[0] == pytest.approx(4.0)
        assert completions[1] == pytest.approx(7.0)

    def test_feasibility_flag(self):
        platform = Platform.create([1.0], n_cloud=0)
        jobs = [Job(origin=0, work=2.0), Job(origin=0, work=2.0)]
        inst = Instance.create(platform, jobs)
        view = self._view(inst)
        _, _, ok_loose = _edf_placement(view, [0, 1], [10.0, 10.0])
        _, _, ok_tight = _edf_placement(view, [0, 1], [2.0, 2.0])
        assert ok_loose
        assert not ok_tight


class TestValidity:
    def test_schedule_valid_and_good_on_figure1(self, figure1_instance):
        result = simulate(figure1_instance, SsfEdfScheduler())
        assert validate_schedule(result.schedule) == []
        # Known regression anchor: SSF-EDF achieves the offline optimum
        # 1.25 on the paper's example.
        assert result.max_stretch == pytest.approx(1.25, rel=1e-6)
