"""Tests for the parallel experiment runner.

Correctness means one thing here: bit-identical rows to the serial
runner, regardless of worker count or cell execution order (this
container is single-core, so speedups are asserted nowhere).
"""

import json

import pytest

from repro.core.errors import ModelError
from repro.experiments import cli
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.experiments.cli import build_spec
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import run_cell, run_experiment


def row_key(rows):
    return [(r.x, r.scheduler, r.rep, r.max_stretch, r.n_events) for r in rows]


def _exploding_instance(rng):
    """Instance factory that always fails (for error-propagation tests)."""
    raise RuntimeError("synthetic instance failure")


def _exploding_spec(n_reps=2, seed=0):
    """A well-formed spec whose every cell raises at instance build time."""
    return ExperimentSpec(
        name="exploding",
        x_label="x",
        points=(SweepPoint(x=1.0, make_instance=_exploding_instance),),
        schedulers=(SchedulerSpec.named("srpt"),),
        n_reps=n_reps,
        seed=seed,
    )


# Module-level registration: worker processes are forked from the test
# process, so they inherit this builder and can rebuild the spec by name.
cli._BUILDERS.setdefault("test_exploding", _exploding_spec)


class TestRunCell:
    def test_cells_independent_of_execution_order(self):
        spec = build_spec("ablation_alpha", n_reps=3, n_jobs=8, seed=2)
        forward = [run_cell(spec, 0, rep) for rep in range(3)]
        backward = [run_cell(spec, 0, rep) for rep in reversed(range(3))]
        assert row_key([r for cell in forward for r in cell]) == row_key(
            [r for cell in reversed(backward) for r in cell]
        )

    def test_serial_runner_is_cells_in_order(self):
        spec = build_spec("ablation_alpha", n_reps=2, n_jobs=8, seed=3)
        serial = run_experiment(spec)
        cells = [
            r
            for p in range(len(spec.points))
            for rep in range(spec.n_reps)
            for r in run_cell(spec, p, rep)
        ]
        assert row_key(serial) == row_key(cells)


class TestParallel:
    def test_single_worker_matches_serial(self):
        spec = build_spec("ablation_greedy_guard", n_reps=2, n_jobs=8, seed=4)
        serial = run_experiment(spec)
        parallel = run_named_experiment_resilient(
            "ablation_greedy_guard", n_workers=1, n_reps=2, n_jobs=8, seed=4
        ).rows
        assert row_key(serial) == row_key(parallel)

    def test_two_workers_match_serial(self):
        spec = build_spec("ablation_alpha", n_reps=2, n_jobs=8, seed=5)
        serial = run_experiment(spec)
        parallel = run_named_experiment_resilient(
            "ablation_alpha", n_workers=2, n_reps=2, n_jobs=8, seed=5
        ).rows
        assert row_key(serial) == row_key(parallel)

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError, match="unknown experiment"):
            run_named_experiment_resilient("nope", n_workers=1)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ModelError):
            run_named_experiment_resilient("ablation_alpha", n_workers=0)

    def test_chunked_map_matches_serial(self):
        # Enough cells that the dispatch window refills many times, so
        # out-of-order completion is actually exercised.
        spec = build_spec("fig2a", n_reps=3, n_jobs=6, seed=11)
        assert len(spec.points) * spec.n_reps >= 16
        serial = run_experiment(spec)
        parallel = run_named_experiment_resilient(
            "fig2a", n_workers=2, n_reps=3, n_jobs=6, seed=11
        ).rows
        assert row_key(serial) == row_key(parallel)

    def test_instrument_names_cross_process_boundary(self):
        serial = run_experiment(
            build_spec("ablation_greedy_guard", n_reps=2, n_jobs=8, seed=4)
        )
        parallel = run_named_experiment_resilient(
            "ablation_greedy_guard",
            n_workers=2,
            n_reps=2,
            n_jobs=8,
            seed=4,
            instrument=("watermark", "profile"),
        ).rows
        # Observational hooks never perturb results.
        assert row_key(serial) == row_key(parallel)


class TestTelemetryDeterminism:
    """Telemetry must survive the process pool bit-for-bit."""

    @staticmethod
    def telemetry_json(rows):
        """Canonical JSON of every row's telemetry, in row order."""
        return [
            json.dumps(r.telemetry, sort_keys=True, separators=(",", ":")) for r in rows
        ]

    def test_serial_and_parallel_telemetry_byte_identical(self):
        spec = build_spec("ablation_alpha", n_reps=2, n_jobs=8, seed=6)
        serial = run_experiment(spec, instrument=DEFAULT_TELEMETRY_HOOKS)
        parallel = run_named_experiment_resilient(
            "ablation_alpha",
            n_workers=2,
            n_reps=2,
            n_jobs=8,
            seed=6,
            instrument=DEFAULT_TELEMETRY_HOOKS,
        ).rows
        assert row_key(serial) == row_key(parallel)
        serial_json = self.telemetry_json(serial)
        assert serial_json == self.telemetry_json(parallel)
        assert all(blob != "null" for blob in serial_json)

    def test_uninstrumented_rows_carry_no_telemetry(self):
        rows = run_named_experiment_resilient(
            "ablation_alpha", n_workers=2, n_reps=1, n_jobs=8, seed=6
        ).rows
        assert all(r.telemetry is None for r in rows)


class TestErrorPropagation:
    """A raising cell must surface a clear error naming the cell."""

    def test_serial_worker_path(self):
        with pytest.raises(ModelError, match=r"'test_exploding' cell \(point=0, rep=0\)"):
            run_named_experiment_resilient("test_exploding", n_workers=1, n_reps=2)

    def test_across_process_pool(self):
        with pytest.raises(
            ModelError,
            match=r"cell \(point=0, rep=\d\) failed: "
            r"RuntimeError: synthetic instance failure",
        ):
            run_named_experiment_resilient("test_exploding", n_workers=2, n_reps=2)
