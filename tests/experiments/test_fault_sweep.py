"""The degradation experiment and fault telemetry across process pools.

The invariant that matters: with faults injected, a sweep's rows —
fault telemetry included — are sha256-identical whether cells run
serially, in a process pool, or through the resilient harness.
"""

import hashlib
import json

from repro.experiments.cli import build_spec
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import run_experiment
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.run_options import RunOptions

_KW = dict(n_reps=1, n_jobs=12, seed=5)


def digest(rows):
    """Canonical digest of rows, wall-clock (nondeterministic) excluded."""
    payload = [
        {**r.as_dict(), "wall_time": None, "telemetry": r.telemetry} for r in rows
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestDegradationSweep:
    def test_spec_injects_faults_at_every_point(self):
        spec = build_spec("degradation_mtbf", **_KW)
        assert all(p.make_faults is not None for p in spec.points)
        assert spec.x_label == "MTBF"

    def test_serial_pool_and_resilient_are_sha256_identical(self):
        spec = build_spec("degradation_mtbf", **_KW)
        serial = run_experiment(spec, instrument=DEFAULT_TELEMETRY_HOOKS)
        pooled = run_named_experiment_resilient(
            "degradation_mtbf", n_workers=2, instrument=DEFAULT_TELEMETRY_HOOKS, **_KW
        ).rows
        resilient = run_named_experiment_resilient(
            "degradation_mtbf",
            n_workers=2,
            instrument=DEFAULT_TELEMETRY_HOOKS,
            on_error="retry",
            **_KW,
        )
        assert digest(serial) == digest(pooled) == digest(resilient.rows)

    def test_failure_aware_roster_is_pool_identical(self):
        # Adding ssf-edf-fa (and fault correlation) must not perturb the
        # shared instance/fault streams, and the extended sweep stays
        # sha256-identical between the serial and pooled runners.
        kw = dict(options=RunOptions(failure_aware=True, correlation=2), **_KW)
        spec = build_spec("degradation_mtbf", **kw)
        assert any(s.label == "ssf-edf-fa" for s in spec.schedulers)
        assert any(s.label == "srpt-fa" for s in spec.schedulers)
        assert any(s.label == "fcfs-fa" for s in spec.schedulers)
        serial = run_experiment(spec, instrument=DEFAULT_TELEMETRY_HOOKS)
        pooled = run_named_experiment_resilient(
            "degradation_mtbf", n_workers=2, instrument=DEFAULT_TELEMETRY_HOOKS, **kw
        ).rows
        assert digest(serial) == digest(pooled)
        # The baseline columns are byte-for-byte the vanilla sweep's.
        base = run_experiment(
            build_spec("degradation_mtbf", **_KW), instrument=DEFAULT_TELEMETRY_HOOKS
        )
        fa_subset = [
            r
            for r in run_experiment(
                build_spec(
                    "degradation_mtbf", options=RunOptions(failure_aware=True), **_KW
                ),
                instrument=DEFAULT_TELEMETRY_HOOKS,
            )
            if r.scheduler not in ("ssf-edf-fa", "srpt-fa", "fcfs-fa")
        ]
        assert digest(base) == digest(fa_subset)

    def test_faults_actually_bite(self):
        spec = build_spec("degradation_mtbf", **_KW)
        rows = run_experiment(spec, instrument=("faults",))
        crashes = sum(
            r.telemetry["metrics"]["faults.crashes"]["value"] for r in rows
        )
        assert crashes > 0
