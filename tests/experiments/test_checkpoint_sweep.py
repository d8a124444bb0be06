"""Checkpointed experiment sweeps: roster wiring, determinism, backoff.

The degradation study's checkpoint variant must add its roster entries
without perturbing the baseline columns, produce bit-identical rows
serially and across a process pool, and surface abandoned jobs in an
explicit column.  The harness-side retry backoff is pure arithmetic and
is pinned exactly.
"""

import pytest

from repro.experiments.cli import build_spec
from repro.experiments.parallel import (
    MAX_BACKOFF_S,
    _backoff_delay,
    run_named_experiment_resilient,
)
from repro.experiments.runner import run_experiment
from repro.run_options import RunOptions

_CKPT_KW = dict(
    n_reps=1,
    n_jobs=10,
    seed=6,
    options=RunOptions(
        failure_aware=True,
        checkpoint_interval=1.0,
        checkpoint_cost=0.05,
        retry_budget=4,
    ),
)


def row_key(rows):
    return [
        (r.x, r.scheduler, r.rep, r.max_stretch, r.n_events, r.n_abandoned)
        for r in rows
    ]


class TestCheckpointRoster:
    def test_checkpoint_variant_appends_labeled_entries(self):
        base = build_spec(
            "degradation_mtbf",
            n_reps=1,
            n_jobs=10,
            seed=6,
            options=RunOptions(failure_aware=True),
        )
        ckpt = build_spec("degradation_mtbf", **_CKPT_KW)
        names = [s.label for s in ckpt.schedulers]
        assert names[: len(base.schedulers)] == [s.label for s in base.schedulers]
        assert names[-2:] == ["ssf-edf-fa+ckpt", "ssf-edf-fa-rework+ckpt"]

    def test_baseline_columns_unperturbed_by_checkpoint_entries(self):
        base_rows = run_experiment(
            build_spec(
                "degradation_mtbf",
                n_reps=1,
                n_jobs=10,
                seed=6,
                options=RunOptions(failure_aware=True),
            )
        )
        ckpt_rows = run_experiment(build_spec("degradation_mtbf", **_CKPT_KW))
        base_labels = {r.scheduler for r in base_rows}
        shared = [r for r in ckpt_rows if r.scheduler in base_labels]
        assert row_key(shared) == row_key(base_rows)

    def test_abandoned_jobs_column_present(self):
        rows = run_experiment(build_spec("degradation_mtbf", **_CKPT_KW))
        assert all(hasattr(r, "n_abandoned") for r in rows)
        # Baseline (budget-less) entries never abandon.
        assert all(
            r.n_abandoned == 0 for r in rows if not r.scheduler.endswith("+ckpt")
        )


class TestSerialParallelIdentity:
    def test_checkpointed_sweep_bit_identical_across_pool(self):
        serial = run_experiment(build_spec("degradation_mtbf", **_CKPT_KW))
        pooled = run_named_experiment_resilient(
            "degradation_mtbf", n_workers=2, **_CKPT_KW
        ).rows
        assert row_key(serial) == row_key(pooled)

    def test_fault_groups_ride_the_overrides(self):
        kw = dict(
            n_reps=1, n_jobs=10, seed=6, options=RunOptions(fault_groups="edge:0-4;link:0-4")
        )
        serial = run_experiment(build_spec("degradation_mtbf", **kw))
        pooled = run_named_experiment_resilient("degradation_mtbf", n_workers=2, **kw).rows
        assert row_key(serial) == row_key(pooled)
        # The grouped realization must actually differ from independent.
        independent = run_experiment(
            build_spec("degradation_mtbf", n_reps=1, n_jobs=10, seed=6)
        )
        assert row_key(serial) != row_key(independent)


class TestBackoffArithmetic:
    def test_exponential_schedule(self):
        assert _backoff_delay(1.0, 1) == 1.0
        assert _backoff_delay(1.0, 2) == 2.0
        assert _backoff_delay(1.0, 3) == 4.0
        assert _backoff_delay(0.5, 4) == 4.0

    def test_zero_base_disables(self):
        for attempt in (1, 5, 20):
            assert _backoff_delay(0.0, attempt) == 0.0

    def test_capped_at_max(self):
        assert _backoff_delay(1.0, 50) == MAX_BACKOFF_S
        assert _backoff_delay(10.0, 3, cap=15.0) == 15.0
