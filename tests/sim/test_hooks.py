"""Tests for the pluggable engine instrumentation layer."""

import pytest

from repro.core.errors import ModelError
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.sim.hooks import (
    EngineHooks,
    EventCounter,
    HookSet,
    StepTimingProfiler,
    StretchWatermarkMonitor,
    make_hooks,
    register_hook,
)
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


def small_instance(n=12, seed=3):
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=n, ccr=1.0, load=0.5), seed=seed
    )


class TestHookSet:
    def test_prebinds_only_overridden_callbacks(self):
        class OnlyStep(EngineHooks):
            """Overrides on_step alone."""

            def on_step(self, t0, t1, jobs, acts, rates):
                pass

        hs = HookSet([OnlyStep()])
        assert len(hs.step) == 1
        assert not (hs.start or hs.decision or hs.assign or hs.events)
        assert not (hs.abort or hs.complete or hs.finish)

    def test_empty_set_has_no_flags(self):
        hs = HookSet([])
        assert not (hs.step or hs.assign or hs.complete or hs.wants_provenance)


class TestEventCounter:
    def test_counter_matches_result_fields(self):
        inst = small_instance()
        counter = EventCounter()
        result = simulate(inst, make_scheduler("srpt"), hooks=[counter])
        # The engine's own tallies are themselves a hook; an extra
        # counter registered from outside must agree with them exactly.
        assert counter.n_events == result.n_events
        assert counter.n_decisions == result.n_decisions


class TestStepTimingProfiler:
    def test_counts_every_step(self):
        inst = small_instance()
        profiler = StepTimingProfiler()
        result = simulate(inst, make_scheduler("fcfs"), hooks=[profiler])
        report = profiler.report()
        assert report.n_steps == len(profiler.step_times) > 0
        # One timed step per decision that advanced time.
        assert report.n_steps <= result.n_decisions
        assert report.total_s >= report.max_s >= report.mean_s >= 0.0
        assert report.max_s >= report.p99_s >= report.p50_s >= 0.0
        assert "steps" in str(report)
        assert "p50" in str(report) and "p99" in str(report)

    def test_empty_report(self):
        report = StepTimingProfiler().report()
        assert report.n_steps == 0
        assert report.total_s == report.mean_s == report.max_s == 0.0
        assert report.p50_s == report.p99_s == 0.0

    def test_finish_flushes_final_step(self):
        # A decision opens a timed step; without on_step or on_finish it
        # would be dropped.  on_finish must flush it.
        profiler = StepTimingProfiler()
        profiler.on_decision(0.0, None)
        assert profiler.report().n_steps == 0
        profiler.on_finish(None)
        assert profiler.report().n_steps == 1

    def test_finish_does_not_double_count(self):
        profiler = StepTimingProfiler()
        profiler.on_decision(0.0, None)
        profiler.on_step(0.0, 1.0, [], [], [])
        profiler.on_finish(None)
        assert profiler.report().n_steps == 1

    def test_percentiles_nearest_rank(self):
        profiler = StepTimingProfiler()
        profiler.step_times.extend(float(i) for i in range(1, 101))
        report = profiler.report()
        assert report.p50_s == 50.0
        assert report.p99_s == 99.0
        assert report.max_s == 100.0


class TestStretchWatermarkMonitor:
    def test_final_watermark_is_max_stretch(self):
        inst = small_instance(n=20, seed=11)
        monitor = StretchWatermarkMonitor()
        result = simulate(inst, make_scheduler("ssf-edf"), hooks=[monitor])
        assert monitor.watermark == pytest.approx(result.max_stretch, rel=1e-12)

    def test_argmax_job_names_the_max_stretch_job(self):
        inst = small_instance(n=20, seed=11)
        monitor = StretchWatermarkMonitor()
        result = simulate(inst, make_scheduler("ssf-edf"), hooks=[monitor])
        assert monitor.argmax_job == int(result.stretches().argmax())

    def test_argmax_job_defaults_to_minus_one(self):
        assert StretchWatermarkMonitor().argmax_job == -1

    def test_history_is_increasing(self):
        inst = small_instance(n=20, seed=5)
        monitor = StretchWatermarkMonitor()
        simulate(inst, make_scheduler("srpt"), hooks=[monitor])
        stretches = [s.stretch for s in monitor.history]
        times = [s.time for s in monitor.history]
        assert stretches == sorted(stretches)
        assert times == sorted(times)
        assert monitor.history[-1].stretch == monitor.watermark


class TestCustomHooks:
    def test_all_callbacks_fire(self):
        calls = {k: 0 for k in ("start", "decision", "assign", "step", "events", "complete", "finish")}

        class Spy(EngineHooks):
            """Counts every callback invocation."""

            def on_start(self, view):
                calls["start"] += 1

            def on_decision(self, now, decision):
                calls["decision"] += 1

            def on_assign(self, job, resource, now):
                calls["assign"] += 1

            def on_step(self, t0, t1, jobs, acts, rates):
                calls["step"] += 1

            def on_events(self, events):
                calls["events"] += 1

            def on_complete(self, job, time):
                calls["complete"] += 1

            def on_finish(self, result):
                calls["finish"] += 1

        inst = small_instance()
        result = simulate(inst, make_scheduler("greedy"), hooks=[Spy()])
        assert calls["start"] == 1
        assert calls["finish"] == 1
        assert calls["decision"] == result.n_decisions
        assert calls["complete"] == inst.n_jobs
        assert calls["assign"] >= inst.n_jobs
        assert calls["step"] > 0
        assert calls["events"] > 0

    def test_hooks_do_not_perturb_results(self):
        inst = small_instance(n=15, seed=9)
        plain = simulate(inst, make_scheduler("srpt"))
        hooked = simulate(
            inst,
            make_scheduler("srpt"),
            hooks=[StepTimingProfiler(), StretchWatermarkMonitor()],
        )
        assert plain.max_stretch == hooked.max_stretch
        assert plain.n_events == hooked.n_events
        assert plain.n_decisions == hooked.n_decisions


class TestRegistry:
    def test_builtin_names(self):
        hooks = make_hooks(["counter", "profile", "watermark"])
        assert isinstance(hooks[0], EventCounter)
        assert isinstance(hooks[1], StepTimingProfiler)
        assert isinstance(hooks[2], StretchWatermarkMonitor)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ModelError, match="'counter' is already registered"):
            register_hook("counter", EventCounter)

    def test_single_name_string(self):
        (hook,) = make_hooks("profile")
        assert isinstance(hook, StepTimingProfiler)

    def test_none_and_empty(self):
        assert make_hooks(None) == []
        assert make_hooks([]) == []

    def test_unknown_name_raises(self):
        with pytest.raises(ModelError, match="unknown hook 'nope'"):
            make_hooks(["nope"])

    def test_register_custom(self):
        class Custom(EngineHooks):
            """Marker hook for the registry test."""

        register_hook("test-custom-hook", Custom)
        (hook,) = make_hooks(["test-custom-hook"])
        assert isinstance(hook, Custom)
