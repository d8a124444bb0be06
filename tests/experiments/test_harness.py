"""Tests for the sweep harness.

Pooled and resumed sweeps must reproduce the serial rows byte for byte;
every checkpointed cell must be on disk as soon as it is appended; and
the ``harness.*`` self-telemetry must report exact counter values (CI
pins ceilings on these).
"""

import io
import json
import time

import pytest

from repro.experiments import cli, parallel
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.cli import build_spec
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import run_cell, run_experiment
from repro.obs.harness import HarnessStats, ProgressReporter, _spearman
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


def _tiny_instance(rng):
    return generate_random_instance(RandomInstanceConfig(n_jobs=6), seed=rng)


def _mixed_spec(n_reps=2, seed=0):
    """Deterministic and seeded-random roster entries plus two points."""
    return ExperimentSpec(
        name="harness_mixed",
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
    "test_harness_mixed", lambda n_reps=2, seed=0: _mixed_spec(n_reps, seed)
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


class TestPooledIdentity:
    def test_serial_pooled_resumed_byte_identical(self, tmp_path):
        serial = run_experiment(_mixed_spec(), instrument=DEFAULT_TELEMETRY_HOOKS)
        pooled = run_named_experiment_resilient(
            "test_harness_mixed", n_workers=2, instrument=DEFAULT_TELEMETRY_HOOKS
        ).rows
        assert full_rows_json(pooled) == full_rows_json(serial)

        path = str(tmp_path / "cells.jsonl")
        first = run_named_experiment_resilient(
            "test_harness_mixed",
            n_workers=2,
            instrument=DEFAULT_TELEMETRY_HOOKS,
            checkpoint_path=path,
        )
        assert full_rows_json(first.rows) == full_rows_json(serial)
        resumed = run_named_experiment_resilient(
            "test_harness_mixed",
            n_workers=2,
            instrument=DEFAULT_TELEMETRY_HOOKS,
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.n_from_checkpoint == 4
        assert resumed.n_executed == 0
        assert full_rows_json(resumed.rows) == full_rows_json(serial)


class TestCheckpointCommit:
    def test_append_commits_immediately(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        store = CheckpointStore(path, experiment="test_harness_mixed", overrides={})
        store.start(fresh=True)
        store.append(0, 0, run_cell(_mixed_spec(), 0, 0))
        with open(path) as fh:
            kinds = [json.loads(line)["kind"] for line in fh]
        assert kinds == ["header", "cell"]
        store.close()


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
            "test_harness_mixed",
            n_workers=2,
            instrument=DEFAULT_TELEMETRY_HOOKS,
            stats=stats,
        ).rows
        n_cells = 4  # 2 points x 2 reps
        assert stats.cells == n_cells
        # Ceilings CI pins: every cell builds exactly one spec and one
        # instance; the pool never dies on a healthy sweep.
        assert stats.instance_builds == n_cells
        assert stats.spec_builds == n_cells
        assert stats.pool_rebuilds == 0
        # Deflated instrumented cells stay well under the raw ~22 KB.
        assert 0 < stats.pickle_bytes / stats.cells < 8000
        assert stats.elapsed_s > 0
        assert len(rows) == n_cells * 3

    def test_inline_sweep_counters(self):
        stats = HarnessStats()
        run_named_experiment_resilient("test_harness_mixed", n_workers=1, stats=stats)
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

    def test_rate_and_eta_count_only_executed_cells(self, tmp_path, monkeypatch, capsys):
        # Two of four cells restored, then each executed cell takes 10 s
        # of (fake) wall clock: the rate is 0.1 cells/s, not the 0.3 the
        # restored cells would inflate it to.
        path = str(tmp_path / "cells.jsonl")
        run_named_experiment_resilient(
            "test_harness_mixed", n_workers=1, checkpoint_path=path
        )
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:3])  # header + two cells

        clock = [1000.0]
        real_run_cell = parallel.run_cell

        def ten_second_cell(*args, **kwargs):
            clock[0] += 10.0
            return real_run_cell(*args, **kwargs)

        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(parallel, "run_cell", ten_second_cell)
        capsys.readouterr()
        run_named_experiment_resilient(
            "test_harness_mixed",
            n_workers=1,
            checkpoint_path=path,
            resume=True,
            progress=True,
        )
        assert capsys.readouterr().err.splitlines() == [
            "[test_harness_mixed] 3/4 cells (0.1 cells/s, ETA 10s)",
            "[test_harness_mixed] 4/4 cells (0.1 cells/s, ETA 0s)",
        ]

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
        assert cli.main(["test_harness_mixed", "--quiet", "--csv", csv_plain]) == 0
        capsys.readouterr()
        assert (
            cli.main(
                ["test_harness_mixed", "--quiet", "--progress", "--csv", csv_progress]
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
