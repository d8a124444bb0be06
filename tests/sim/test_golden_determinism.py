"""Golden determinism: the layered engine is bit-identical to the seed engine.

``tests/data/golden_engine.json`` was captured from the pre-refactor
scalar engine (one ``Engine.run()`` monolith).  Every case pins the
sha256 of the raw completion array bytes plus the exact float bits
(``float.hex()``) of the stretch metrics and the event/decision/
re-execution counters — any deviation in event ordering, grant order,
progress arithmetic or tolerance handling shows up here.

The ``ckpt-n100`` tag is a checkpointed, faulted run with a retry
budget whose decisions exceed 32 entries, so it pins commit boundaries,
abandonment and large decisions together.  It was captured from the
engine that still stepped decisions above 32 entries on NumPy arrays.

The ``faulted-n80`` cases for ``fcfs-fa``, ``greedy-fa``, ``srpt-fa``,
``cloud-only``, ``greedy-unguarded`` and ``srpt-norestart`` pin the
discounted estimates and the baseline and ablation variants under
faults.  They were captured from the per-scheduler claim loops that a
shared NumPy claim loop replaced.

The ``hetero-n120`` and ``ties-n40`` tags pin ``fcfs``, ``greedy``,
``greedy-unguarded``, ``srpt``, ``srpt-norestart`` and ``cloud-only``
where rate groups and tie-breaks matter: ``hetero-n120`` runs the
skewed 4x3.0+16x0.5 cloud mix (two rate groups), and ``ties-n40`` has
integer amounts on which edge and cloud estimates tie exactly.  They
were captured from the NumPy matrix path, before the matrix heuristics
moved to :class:`~repro.schedulers.base.Rows`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.schedulers.registry import make_scheduler
from repro.sim.availability import periodic_unavailability
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import simulate
from repro.sim.hooks import EngineHooks
from repro.workloads.kang import KangConfig, generate_kang_instance
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)

_GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_engine.json"


def _load_cases() -> list[dict]:
    with open(_GOLDEN_PATH) as f:
        return json.load(f)["cases"]


def _renewal_faults(inst, seed, mtbf, mttr):
    """The fault trace of the capture script (all three classes failing)."""
    params = FaultClassParams(mtbf=mtbf, mttr=mttr)
    return exponential_fault_trace(
        n_edge=inst.platform.n_edge,
        n_cloud=inst.platform.n_cloud,
        horizon=float(inst.release.max() + inst.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
    )


def _instances():
    """Rebuild every golden instance exactly as the capture script did.

    Each tag maps to ``(instance, availability, faults, record_trace)``.
    """
    tags = {}
    for seed in (20210101, 20210102, 20210103):
        for load in (0.05, 0.5, 2.0):
            tags[f"rand-n200-s{seed}-l{load}"] = (
                generate_random_instance(
                    RandomInstanceConfig(n_jobs=200, ccr=1.0, load=load),
                    platform=paper_random_platform(),
                    seed=seed,
                ),
                None,
                None,
                False,
            )
    tags["kang-n60"] = (
        generate_kang_instance(KangConfig(n_jobs=60, load=0.1), seed=7),
        None,
        None,
        False,
    )
    inst = generate_random_instance(
        RandomInstanceConfig(n_jobs=80, ccr=1.0, load=0.3),
        platform=paper_random_platform(),
        seed=424242,
    )
    tags["avail-n80"] = (
        inst,
        periodic_unavailability(
            inst.platform.n_cloud, period=5.0, busy_fraction=0.3, horizon=200.0
        ),
        None,
        False,
    )
    tags["traced-n50"] = (
        generate_random_instance(
            RandomInstanceConfig(n_jobs=50, ccr=1.0, load=0.5),
            platform=paper_random_platform(),
            seed=99,
        ),
        None,
        None,
        True,
    )
    inst_f = generate_random_instance(
        RandomInstanceConfig(n_jobs=80, ccr=1.0, load=1.0),
        platform=paper_random_platform(),
        seed=31,
    )
    tags["faulted-n80"] = (inst_f, None, _renewal_faults(inst_f, 17, 40.0, 4.0), False)
    inst_fw = generate_random_instance(
        RandomInstanceConfig(n_jobs=60, ccr=1.0, load=0.8),
        platform=paper_random_platform(),
        seed=55,
    )
    tags["faultwin-n60"] = (
        inst_fw,
        periodic_unavailability(
            inst_fw.platform.n_cloud, period=8.0, busy_fraction=0.25, horizon=300.0
        ),
        _renewal_faults(inst_fw, 23, 60.0, 5.0),
        False,
    )
    inst_c = generate_random_instance(
        RandomInstanceConfig(n_jobs=100, ccr=1.0, load=1.0),
        platform=paper_random_platform(),
        seed=20210110,
    )
    tags["ckpt-n100"] = (inst_c, None, _renewal_faults(inst_c, 29, 40.0, 4.0), False)
    tags["hetero-n120"] = (
        generate_random_instance(
            RandomInstanceConfig(n_jobs=120, ccr=0.5, load=1.0),
            platform=Platform.create(
                [0.1] * 10 + [0.5] * 10, cloud_speeds=[3.0] * 4 + [0.5] * 16
            ),
            seed=20210529,
        ),
        None,
        None,
        False,
    )
    tags["ties-n40"] = (_ties_instance(), None, None, False)
    return tags


def _ties_instance() -> Instance:
    """Integer amounts on speeds 0.5, 1 and 2: edge and cloud estimates
    tie exactly (work 2 on an edge of speed 0.5 takes 4, and so does
    up 1 + work 2 on a cloud of speed 1 + dn 1)."""
    rng = np.random.default_rng(40)
    platform = Platform.create([0.5, 1.0] * 2, cloud_speeds=[1.0] * 3 + [2.0] * 2)
    jobs = [
        Job(
            origin=int(rng.integers(4)),
            work=float(rng.choice([2, 4, 6])),
            release=float(rng.integers(20)),
            up=float(rng.choice([1, 2])),
            dn=float(rng.choice([1, 2])),
        )
        for _ in range(40)
    ]
    return Instance.create(platform, jobs)


#: Checkpoint policy per tag (tags not listed run without one).
_CHECKPOINTS = {
    "ckpt-n100": CheckpointPolicy(
        interval=2.0, commit_cost=0.1, phase_boundaries=True, retry_budget=4
    ),
}


class _LargestDecision(EngineHooks):
    """Records the entry count of the largest decision the engine applied."""

    def __init__(self) -> None:
        self.largest = 0

    def on_decision(self, now, decision) -> None:
        self.largest = max(self.largest, len(decision))


_CASES = _load_cases()
_INSTANCES = _instances()


@pytest.mark.parametrize(
    "case", _CASES, ids=[f"{c['tag']}-{c['policy']}" for c in _CASES]
)
def test_bit_identical_to_seed_engine(case):
    """Completion bytes, stretch bits and counters match the seed engine."""
    inst, availability, faults, trace = _INSTANCES[case["tag"]]
    policy = case["policy"]
    scheduler = (
        make_scheduler(policy, seed=123) if policy == "random" else make_scheduler(policy)
    )
    checkpoint = _CHECKPOINTS.get(case["tag"])
    largest = _LargestDecision()
    result = simulate(
        inst,
        scheduler,
        availability=availability,
        faults=faults,
        checkpoint=checkpoint,
        record_trace=trace,
        hooks=[largest],
    )
    if checkpoint is not None:
        # The tag exists to drive the engine's step above 32 entries.
        assert largest.largest > 32
    assert hashlib.sha256(result.completion.tobytes()).hexdigest() == case["completion_sha256"]
    assert result.max_stretch.hex() == case["max_stretch"]
    assert result.average_stretch.hex() == case["avg_stretch"]
    assert result.n_events == case["n_events"]
    assert result.n_decisions == case["n_decisions"]
    assert result.n_reexecutions == case["n_reexecutions"]
    assert result.n_abandoned == case.get("n_abandoned", 0)
