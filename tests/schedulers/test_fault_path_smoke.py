"""Deterministic perf smoke for the failure-aware fault path.

The fault-free twin (``test_ssf_edf_perf_smoke.py``) pins the hot-path
counters of a transparent run; this suite pins the *faulted*
failure-aware path on one seeded instance + renewal trace.  The run is
fully deterministic, so the counters are a stable fingerprint of the
fault-path algorithmic cost: a regression that re-queries the outlook
per event, re-floors every resource per boundary, or drops probe
adoption under faults blows through the ceilings immediately, while
future improvements only lower the counts.
"""

from repro.capacity.outlook import CapacityOutlook
from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.faults.trace import FaultTrace
from repro.schedulers.ssf_edf import SsfEdfScheduler
from repro.sim.engine import simulate
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)

#: Recorded counter values on the pinned faulted instance (2026-08, the
#: fault-path overhaul PR; see BENCH_fault_path.json).  Ceilings, not
#: exact pins: lower is better and allowed.
_CEILINGS = {
    "scheduler.probes": 849.0,
    "scheduler.probe_short_circuits": 187.0,
    "scheduler.rebuilds": 866.0,
    # The incremental capacity layer: outlook reads happen on deltas,
    # not per event — a regression to per-event wholesale queries
    # multiplies this by ~5x.
    "scheduler.outlook_queries": 1844.0,
    "scheduler.outlook_delta_updates": 781.0,
    "scheduler.partial_rebuilds": 781.0,
}


def _pinned_run():
    instance = generate_random_instance(
        RandomInstanceConfig(n_jobs=200, ccr=1.0, load=1.0),
        platform=paper_random_platform(),
        seed=20210005,
    )
    faults = exponential_fault_trace(
        n_edge=instance.platform.n_edge,
        n_cloud=instance.platform.n_cloud,
        horizon=float(instance.release.max() + instance.min_time.sum()),
        seed=20210005,
        edge=FaultClassParams(mtbf=100.0, mttr=10.0),
        cloud=FaultClassParams(mtbf=100.0, mttr=10.0),
        link=FaultClassParams(mtbf=100.0, mttr=10.0),
    )
    return simulate(
        instance,
        SsfEdfScheduler(failure_aware=True),
        faults=faults,
        record_trace=False,
    )


class TestFaultPathCounterCeilings:
    def test_counters_at_or_below_recorded_ceilings(self):
        result = _pinned_run()
        stats = result.scheduler_stats
        assert stats is not None
        for name, ceiling in _CEILINGS.items():
            assert stats[name] <= ceiling, (
                f"{name} regressed: {stats[name]} > recorded ceiling {ceiling}"
            )

    def test_every_decision_is_exactly_one_kind(self):
        # Accounting invariant, unchanged under faults: each decision
        # with live jobs is served by exactly one of a full rebuild, a
        # probe adoption, or a cached replay.
        result = _pinned_run()
        stats = result.scheduler_stats
        served = (
            stats["scheduler.rebuilds"]
            + stats["scheduler.probe_reuses"]
            + stats["scheduler.replays"]
        )
        assert served == result.n_decisions

    def test_reuse_and_delta_layers_fire(self):
        # Ceilings alone would be met by a scheduler doing no work at
        # all; require the incremental layers to actually serve the run.
        result = _pinned_run()
        stats = result.scheduler_stats
        assert stats["scheduler.probe_reuses"] >= 200.0  # one per release
        assert stats["scheduler.outlook_delta_updates"] > 0.0
        assert stats["scheduler.partial_rebuilds"] > 0.0
        # Replay is off for the discounted kernel (exactness cannot be
        # proven there) — the decision mix must reflect that, not a
        # silently broken replay path.
        assert stats["scheduler.replays"] == 0.0


class TestOutlookSweep:
    def test_down_state_is_swept_not_reprobed(self, monkeypatch):
        # The outlook follows the trace's transitions as the clock
        # crosses boundaries; re-probing every resource with down_at on
        # each from-scratch round is the regression this guards.
        down_at_calls = []
        outlooks = []
        down_at = FaultTrace.down_at
        init = CapacityOutlook.__init__

        def counting_down_at(self, t):
            down_at_calls.append(t)
            return down_at(self, t)

        def counting_init(self, *args, **kwargs):
            outlooks.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FaultTrace, "down_at", counting_down_at)
        monkeypatch.setattr(CapacityOutlook, "__init__", counting_init)
        result = _pinned_run()
        assert result.scheduler_stats["scheduler.outlook_queries"] > 0.0
        assert outlooks
        assert len(down_at_calls) <= len(outlooks)
