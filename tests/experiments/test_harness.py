"""Tests for the sweep-harness throughput layers.

Warm worker state (scheduler/hook reuse) must be invisible in the
results; group-committed checkpoints must keep the kill/--resume
round-trip; and the ``harness.*`` self-telemetry must report exact
counter values (CI pins ceilings on these).
"""

import io
import json
import os

import pytest

from repro.core.errors import ModelError
from repro.experiments import cli
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.cli import build_spec
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import WarmState, run_cell, run_experiment
from repro.obs.harness import HarnessStats, ProgressReporter, _spearman
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


def _tiny_instance(rng):
    return generate_random_instance(RandomInstanceConfig(n_jobs=6), seed=rng)


def _mixed_spec(n_reps=2, seed=0):
    """Reusable and non-reusable roster entries plus two points."""
    return ExperimentSpec(
        name="warm_mixed",
        x_label="x",
        points=(
            SweepPoint(x=1.0, make_instance=_tiny_instance, cost_hint=2.0),
            SweepPoint(x=2.0, make_instance=_tiny_instance, cost_hint=1.0),
        ),
        schedulers=(
            SchedulerSpec.named("srpt"),
            SchedulerSpec.named("random"),
            SchedulerSpec.named("ssf-edf"),
        ),
        n_reps=n_reps,
        seed=seed,
    )


cli._BUILDERS.setdefault(
    "test_warm_mixed", lambda n_reps=2, seed=0: _mixed_spec(n_reps, seed)
)


def full_rows_json(rows):
    """Rows incl. telemetry as canonical JSON, wall-clock excluded."""
    return json.dumps(
        [
            {
                **r.as_dict(),
                "wall_time": None,
                "telemetry": r.telemetry,
                "trace": r.trace,
            }
            for r in rows
        ],
        sort_keys=True,
    )


class TestWarmState:
    def test_warm_rows_byte_identical_to_cold(self):
        spec = _mixed_spec()
        warm = WarmState()
        cold_rows, warm_rows = [], []
        for p in range(len(spec.points)):
            for rep in range(spec.n_reps):
                cold_rows.extend(
                    run_cell(spec, p, rep, instrument=DEFAULT_TELEMETRY_HOOKS)
                )
                warm_rows.extend(
                    run_cell(
                        spec, p, rep, instrument=DEFAULT_TELEMETRY_HOOKS, warm=warm
                    )
                )
        assert full_rows_json(warm_rows) == full_rows_json(cold_rows)

    def test_warm_reuses_reusable_schedulers_only(self):
        spec = _mixed_spec()
        warm = WarmState()
        rng = object()  # factories of reusable entries must ignore it

        srpt_a = warm.scheduler_for(0, spec.schedulers[0], rng)
        srpt_b = warm.scheduler_for(0, spec.schedulers[0], rng)
        assert srpt_a is srpt_b  # cached

        import numpy as np

        real_rng = np.random.default_rng(0)
        rand_a = warm.scheduler_for(1, spec.schedulers[1], real_rng)
        rand_b = warm.scheduler_for(1, spec.schedulers[1], real_rng)
        assert rand_a is not rand_b  # rebuilt every run

    def test_random_is_flagged_non_reusable(self):
        assert SchedulerSpec.named("random").reusable is False
        assert SchedulerSpec.named("srpt").reusable is True
        assert SchedulerSpec.named("ssf-edf").reusable is True

    def test_warm_hooks_reset_between_runs(self):
        warm = WarmState()
        hooks_a = warm.hooks_for(("util",))
        hooks_a[0]._segments.append((0.0, 1.0, 1, 0, 0, 0))
        hooks_b = warm.hooks_for(("util",))
        assert hooks_b[0] is hooks_a[0]  # same object...
        assert hooks_b[0]._segments == []  # ...fresh state

    def test_instance_builds_counted_once_per_cell(self):
        spec = _mixed_spec(n_reps=3)
        warm = WarmState()
        for p in range(2):
            for rep in range(3):
                run_cell(spec, p, rep, warm=warm)
        assert warm.instance_builds == 6  # == n_points * n_reps


class TestPooledIdentity:
    def test_serial_pooled_resumed_byte_identical(self, tmp_path):
        serial = run_experiment(_mixed_spec(), instrument=DEFAULT_TELEMETRY_HOOKS)
        pooled = run_named_experiment_resilient(
            "test_warm_mixed", n_workers=2, instrument=DEFAULT_TELEMETRY_HOOKS
        ).rows
        assert full_rows_json(pooled) == full_rows_json(serial)

        path = str(tmp_path / "cells.jsonl")
        first = run_named_experiment_resilient(
            "test_warm_mixed",
            n_workers=2,
            instrument=DEFAULT_TELEMETRY_HOOKS,
            checkpoint_path=path,
            checkpoint_group=3,
        )
        assert full_rows_json(first.rows) == full_rows_json(serial)
        resumed = run_named_experiment_resilient(
            "test_warm_mixed",
            n_workers=2,
            instrument=DEFAULT_TELEMETRY_HOOKS,
            checkpoint_path=path,
            resume=True,
            checkpoint_group=3,
        )
        assert resumed.n_from_checkpoint == 4
        assert resumed.n_executed == 0
        assert full_rows_json(resumed.rows) == full_rows_json(serial)


class TestGroupCommit:
    def _store(self, tmp_path, group_size, name="gc"):
        path = str(tmp_path / f"{name}.jsonl")
        spec = _mixed_spec(n_reps=4)
        rows = {
            rep: run_cell(spec, 0, rep) for rep in range(4)
        }
        store = CheckpointStore(
            path,
            experiment="test_warm_mixed",
            overrides={},
            group_size=group_size,
        )
        store.start(fresh=True)
        return path, rows, store

    def test_uncommitted_group_tail_is_lost_not_torn(self, tmp_path):
        # 4 appends at group size 3: one commit of 3, one record still
        # buffered.  A kill here (simulated by abandoning the store
        # without close) loses exactly the buffered record and the file
        # stays valid.
        path, rows, store = self._store(tmp_path, group_size=3)
        for rep, cell_rows in rows.items():
            store.append(0, rep, cell_rows)
        store._fh.close()  # kill: buffered record never committed
        reread = CheckpointStore(path, experiment="test_warm_mixed", overrides={})
        assert sorted(reread.load_completed()) == [(0, 0), (0, 1), (0, 2)]

    def test_close_commits_the_remainder(self, tmp_path):
        path, rows, store = self._store(tmp_path, group_size=3, name="gc2")
        for rep, cell_rows in rows.items():
            store.append(0, rep, cell_rows)
        store.close()
        reread = CheckpointStore(path, experiment="test_warm_mixed", overrides={})
        assert len(reread.load_completed()) == 4

    def test_group_size_one_commits_immediately(self, tmp_path):
        path, rows, store = self._store(tmp_path, group_size=1, name="gc3")
        store.append(0, 0, rows[0])
        with open(path) as fh:
            kinds = [json.loads(line)["kind"] for line in fh]
        assert kinds == ["header", "cell"]
        store.close()

    def test_group_size_validated(self, tmp_path):
        with pytest.raises(ModelError, match="group_size"):
            CheckpointStore(
                str(tmp_path / "bad.jsonl"),
                experiment="x",
                overrides={},
                group_size=0,
            )
        with pytest.raises(ModelError, match="checkpoint_group"):
            run_named_experiment_resilient("test_warm_mixed", checkpoint_group=0)


class TestRetryBackoffIdentity:
    def test_flaky_cell_with_backoff_matches_serial(self, tmp_path, monkeypatch):
        # Re-runs after a backoff pause must produce the same bytes the
        # cell would have produced on a clean first attempt.
        monkeypatch.setenv(
            "REPRO_TEST_RESILIENT_MARKER", str(tmp_path / "flaky.marker")
        )
        import tests.experiments.test_resilient as res

        outcome = run_named_experiment_resilient(
            "test_res_flaky",
            n_workers=2,
            on_error="retry",
            retry_backoff=0.05,
        )
        assert outcome.quarantined == []
        # The marker now exists, so a serial run reproduces cleanly.
        serial = run_experiment(
            build_spec("test_res_flaky", n_reps=None, n_jobs=None, seed=None)
        )
        assert res.row_key(outcome.rows) == res.row_key(serial)


class TestHarnessStats:
    def test_exact_counters_on_a_pooled_sweep(self):
        stats = HarnessStats()
        rows = run_named_experiment_resilient(
            "test_warm_mixed",
            n_workers=2,
            instrument=DEFAULT_TELEMETRY_HOOKS,
            stats=stats,
        ).rows
        n_cells = 4  # 2 points x 2 reps
        assert stats.cells == n_cells
        # Warm-path ceilings CI pins: every cell builds exactly one
        # instance; each worker builds the spec at most once; the pool
        # never dies on a healthy sweep.
        assert stats.instance_builds == n_cells
        assert 1 <= stats.spec_builds <= stats.n_workers
        assert stats.pool_rebuilds == 0
        # Deflated instrumented cells stay well under the raw ~22 KB.
        assert 0 < stats.pickle_bytes / stats.cells < 8000
        assert stats.elapsed_s > 0
        assert len(rows) == n_cells * 3

    def test_inline_sweep_counters(self):
        stats = HarnessStats()
        run_named_experiment_resilient("test_warm_mixed", n_workers=1, stats=stats)
        assert stats.n_workers == 1
        assert stats.window == 1
        assert stats.cells == 4
        assert stats.instance_builds == 4
        assert stats.pickle_bytes == 0  # nothing crossed a pipe

    def test_telemetry_snapshot_shape(self):
        stats = HarnessStats(n_workers=2, window=4, elapsed_s=2.0)
        stats.record_cell(cost=2.0, wall_s=1.0, payload_bytes=100)
        stats.record_cell(cost=1.0, wall_s=0.5, payload_bytes=50)
        snap = stats.to_telemetry().to_dict()
        metrics = snap["metrics"]
        assert metrics["harness.cells"]["value"] == 2
        assert metrics["harness.pickle.bytes"]["value"] == 150
        assert metrics["harness.cells_per_sec"]["sum"] == pytest.approx(1.0)
        # busy_frac: 1.5s of cell wall over 2 workers * 2s elapsed.
        assert metrics["harness.busy_frac"]["sum"] == pytest.approx(0.375)
        assert metrics["harness.dispatch.rank_corr"]["sum"] == pytest.approx(1.0)

    def test_spearman_basics(self):
        assert _spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)
        assert _spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)
        assert _spearman([1.0, 1.0], [1.0, 2.0]) is None  # constant side
        assert _spearman([1.0], [1.0]) is None


class TestProgressReporter:
    def test_prints_rate_and_eta_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            "demo", 3, enabled=True, min_interval_s=0.0, stream=stream
        )
        for _ in range(3):
            reporter.cell_done()
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert "[demo] 3/3 cells" in lines[-1]
        assert "cells/s" in lines[-1]

    def test_disabled_reporter_is_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter("demo", 2, enabled=False, stream=stream)
        reporter.cell_done()
        reporter.cell_done()
        assert stream.getvalue() == ""


class TestCliProgressFlag:
    def test_progress_writes_stderr_not_rows(self, tmp_path, capsys):
        csv_plain = str(tmp_path / "plain.csv")
        csv_progress = str(tmp_path / "progress.csv")
        assert cli.main(["test_warm_mixed", "--quiet", "--csv", csv_plain]) == 0
        capsys.readouterr()
        assert (
            cli.main(
                ["test_warm_mixed", "--quiet", "--progress", "--csv", csv_progress]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "cells" in err

        def stable(path):
            # Drop the wall-time column (machine noise), keep the rest.
            import csv as csvmod

            with open(path) as fh:
                rows = list(csvmod.DictReader(fh))
            for row in rows:
                row.pop("wall_time", None)
            return rows

        assert stable(csv_progress) == stable(csv_plain)
