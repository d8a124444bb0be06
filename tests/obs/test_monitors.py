"""Tests for the ship-with telemetry monitors.

The invariants here are cross-checks against the engine's own results:
utilization integrals must agree with their timelines, job statistics
with the completion array, re-execution accounting with the engine's
attempt counters — and identical runs must produce byte-identical
telemetry JSON.
"""

import pytest

from repro.obs.monitors import (
    DEFAULT_TELEMETRY_HOOKS,
    TIMELINE_BINS,
    JobStatsMonitor,
    QueueDepthMonitor,
    ReexecutionAccountant,
    UtilizationMonitor,
    _bin_time_weighted,
)
from repro.obs.telemetry import collect_telemetry
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.sim.hooks import make_hooks
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


def run_instrumented(policy="srpt", n=15, seed=7, load=0.5):
    instance = generate_random_instance(
        RandomInstanceConfig(n_jobs=n, ccr=1.0, load=load), seed=seed
    )
    hooks = make_hooks(DEFAULT_TELEMETRY_HOOKS)
    result = simulate(instance, make_scheduler(policy), hooks=hooks)
    return result, collect_telemetry(hooks)


class TestBinTimeWeighted:
    def test_constant_signal_fills_all_bins(self):
        bins = _bin_time_weighted([(0.0, 10.0, 2.0)], 10.0, 5)
        assert bins == pytest.approx([2.0] * 5)

    def test_partial_overlap_apportioned(self):
        # Value 4 over the first half of a 2-bin horizon.
        bins = _bin_time_weighted([(0.0, 1.0, 4.0)], 2.0, 2)
        assert bins == pytest.approx([4.0, 0.0])

    def test_piece_spanning_bins(self):
        bins = _bin_time_weighted([(0.5, 1.5, 1.0)], 2.0, 2)
        assert bins == pytest.approx([0.5, 0.5])

    def test_zero_horizon(self):
        assert _bin_time_weighted([(0.0, 1.0, 1.0)], 0.0, 3) == [0.0, 0.0, 0.0]


class TestUtilizationMonitor:
    def test_fractions_and_timelines_consistent(self):
        result, telemetry = run_instrumented()
        metrics = telemetry.metrics
        horizon = metrics.gauge("util.horizon").value
        assert horizon == pytest.approx(result.makespan)
        for name in ("edge", "cloud", "uplink", "downlink"):
            frac = metrics.gauge(f"util.{name}.busy_frac").value
            assert 0.0 <= frac <= 1.0 + 1e-12
            timeline = metrics.series(f"util.{name}.timeline").values
            assert len(timeline) == TIMELINE_BINS
            assert all(-1e-12 <= v <= 1.0 + 1e-9 for v in timeline)
            # The timeline integrates to the same busy fraction.
            assert sum(timeline) / TIMELINE_BINS == pytest.approx(frac, abs=1e-9)

    def test_busy_platform_has_nonzero_utilization(self):
        _, telemetry = run_instrumented(policy="fcfs", n=25, load=1.0)
        total = sum(
            telemetry.metrics.gauge(f"util.{n}.busy_frac").value
            for n in ("edge", "cloud", "uplink", "downlink")
        )
        assert total > 0.0


class TestQueueDepthMonitor:
    def test_depth_statistics(self):
        _, telemetry = run_instrumented(policy="fcfs", n=25, load=1.0)
        metrics = telemetry.metrics
        mean = metrics.gauge("queue.depth.mean").value
        peak = metrics.gauge("queue.depth.max").value
        assert 0.0 <= mean <= peak
        hist = metrics.histogram("queue.depth")
        assert hist.total > 0.0  # time-weighted: total observed time
        assert hist.mean == pytest.approx(mean, abs=1e-9)
        timeline = metrics.series("queue.timeline").values
        assert len(timeline) == TIMELINE_BINS
        assert all(v >= -1e-12 for v in timeline)


class TestJobStatsMonitor:
    def test_distributions_match_result(self):
        result, telemetry = run_instrumented(n=20, seed=3)
        metrics = telemetry.metrics
        stretch = metrics.histogram("jobs.stretch")
        assert stretch.total == result.instance.n_jobs
        assert stretch.mean == pytest.approx(result.average_stretch, rel=1e-12)
        assert metrics.gauge("jobs.max_stretch").value == pytest.approx(
            result.max_stretch, rel=1e-12
        )
        assert metrics.counter("jobs.completed").value == result.instance.n_jobs
        wait = metrics.histogram("jobs.wait_ratio")
        assert wait.total == result.instance.n_jobs
        assert wait.mean == pytest.approx(result.average_stretch - 1.0, abs=1e-9)


class TestReexecutionAccountant:
    def test_aborts_match_engine_reexecutions(self):
        result, telemetry = run_instrumented(policy="srpt", n=25, seed=11, load=1.0)
        metrics = telemetry.metrics
        aborts = metrics.counter("reexec.aborted_attempts").value
        assert aborts == result.n_reexecutions
        wasted = (
            metrics.counter("reexec.wasted_uplink").value
            + metrics.counter("reexec.wasted_work").value
            + metrics.counter("reexec.wasted_downlink").value
        )
        assert wasted >= 0.0
        hist = metrics.histogram("reexec.wasted_per_attempt")
        assert hist.total == aborts
        assert hist.sum == pytest.approx(wasted, rel=1e-12, abs=1e-12)

    def test_no_reexecution_without_aborts(self):
        # srpt-norestart never aborts an attempt: zero aborts, zero waste.
        result, telemetry = run_instrumented(policy="srpt-norestart", n=10, seed=2)
        assert result.n_reexecutions == 0
        assert telemetry.metrics.counter("reexec.aborted_attempts").value == 0.0


class TestStretchArgmaxMonitor:
    def test_exports_argmax_job_metric(self):
        instance = generate_random_instance(
            RandomInstanceConfig(n_jobs=20, ccr=1.0, load=0.8), seed=11
        )
        hooks = make_hooks(["stretch"])
        result = simulate(instance, make_scheduler("ssf-edf"), hooks=hooks)
        telemetry = collect_telemetry(hooks)
        metrics = telemetry.metrics
        assert metrics.gauge("stretch.watermark").value == pytest.approx(
            result.max_stretch, rel=1e-12
        )
        assert metrics.gauge("stretch.argmax_job").value == float(
            result.stretches().argmax()
        )

    def test_not_in_default_hooks(self):
        # Deliberately opt-in: default telemetry output stays
        # byte-identical to builds without the stretch monitor.
        assert "stretch" not in DEFAULT_TELEMETRY_HOOKS


class TestDeterminism:
    def test_identical_runs_identical_json(self):
        _, a = run_instrumented(policy="ssf-edf", n=18, seed=13)
        _, b = run_instrumented(policy="ssf-edf", n=18, seed=13)
        assert a.to_json() == b.to_json()

    def test_monitors_do_not_perturb_results(self):
        instance = generate_random_instance(
            RandomInstanceConfig(n_jobs=15, ccr=1.0, load=0.5), seed=7
        )
        plain = simulate(instance, make_scheduler("srpt"))
        hooked = simulate(
            instance,
            make_scheduler("srpt"),
            hooks=[
                UtilizationMonitor(),
                QueueDepthMonitor(),
                JobStatsMonitor(),
                ReexecutionAccountant(),
            ],
        )
        assert plain.max_stretch == hooked.max_stretch
        assert plain.n_events == hooked.n_events
        assert plain.n_decisions == hooked.n_decisions


class TestEmptyInstance:
    def test_hooks_start_and_finish_on_an_empty_instance(self):
        """Every hook sees ``on_start`` before ``on_finish``, jobs or not."""
        from repro.core.instance import Instance
        from repro.core.platform import Platform
        from repro.obs.tracing import RunTracer

        instance = Instance.create(Platform.create([1.0], n_cloud=1), [])
        tracer = RunTracer()
        hooks = make_hooks(DEFAULT_TELEMETRY_HOOKS) + [tracer]
        result = simulate(instance, make_scheduler("ssf-edf"), hooks=hooks)
        metrics = collect_telemetry(hooks).metrics
        assert metrics.gauge("util.horizon").value == 0.0
        assert metrics.counter("jobs.completed").value == 0.0
        assert result.schedule.job_schedules == {}
        assert tracer.payload()["jobs"] == []
