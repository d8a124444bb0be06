"""Every activation round against a from-scratch reference grant.

The golden suite sees only completions, so a grant that goes wrong and
happens not to move a completion goes unnoticed.  Here, at every engine
step of seeded runs, the ``(job, activity, rate)`` lists the engine
grants must equal a reference computed beside it that shares no code
with ``Engine._activate``:

* a fresh :class:`ResourceLedger` per step;
* each entry's activity from :meth:`SimState.phase`;
* the blocked set from :meth:`FaultTrace.down_at` and each window's
  :meth:`CloudAvailability.is_available`, not from the
  :class:`CapacityOutlook` whose cache the engine blocks from;
* every entry of the decision scanned in order, with no early exit.

The cases cover faults with availability windows, checkpoints with a
retry budget, ``fcfs`` and ``greedy`` at n=200 and load 2, whose
decisions hold about twice the entries the platform can grant, and
steps with every cloud down.
"""

from __future__ import annotations

import pytest

from repro.core.instance import Instance
from repro.core.intervals import Interval
from repro.core.job import Job
from repro.core.platform import Platform
from repro.faults.model import instance_fault_trace
from repro.faults.trace import FaultTrace
from repro.schedulers.registry import make_scheduler
from repro.sim.availability import periodic_unavailability
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import Engine
from repro.sim.hooks import EngineHooks
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK, ResourceLedger
from repro.sim.state import ALLOC_EDGE, Phase
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance

_ACT = {Phase.UPLINK: ACT_UPLINK, Phase.COMPUTE: ACT_COMPUTE, Phase.DOWNLINK: ACT_DOWNLINK}


class GrantReference(EngineHooks):
    """Computes the reference grant of the decision the engine applies."""

    def on_start(self, view) -> None:
        self.state = view._state
        self.platform = view.platform
        self.faults = view.faults
        self.availability = view.availability
        self.steps = 0
        self.denied_steps = 0
        self.all_clouds_down_steps = 0

    def on_decision(self, now: float, decision) -> None:
        self.decision = [list(column) for column in decision.as_lists()]

    def expected(self) -> tuple[list, list, list]:
        """The grant of the decision on the state it was just applied to."""
        state = self.state
        platform = self.platform
        origin = state.instance.origin
        ledger = ResourceLedger(platform)
        now = state.now
        edges, clouds, links = self.faults.down_at(now)
        av = self.availability
        busy = [k for k in sorted(av.windows) if not av.is_available(k, now)]
        for j in edges:
            ledger.block_edge(j)
        for k in clouds:
            ledger.block_cloud(k)
        for o in links:
            ledger.block_link(o)
        for k in busy:
            ledger.block_cloud_compute(k)
        if platform.n_cloud and len(clouds) == platform.n_cloud:
            self.all_clouds_down_steps += 1
        jobs, acts, rates = [], [], []
        for j, kind, idx in zip(*self.decision):
            act = _ACT[state.phase(j)]
            if kind == ALLOC_EDGE:
                ok = ledger.grant_edge_compute(idx)
                rate = float(platform.edge_speeds[idx])
            elif act == ACT_UPLINK:
                ok = ledger.grant_uplink(int(origin[j]), idx)
                rate = 1.0
            elif act == ACT_COMPUTE:
                ok = ledger.grant_cloud_compute(idx)
                rate = float(platform.cloud_speeds[idx])
            else:
                ok = ledger.grant_downlink(idx, int(origin[j]))
                rate = 1.0
            if ok:
                jobs.append(j)
                acts.append(act)
                rates.append(rate)
        self.steps += 1
        if len(jobs) < len(self.decision[0]):
            self.denied_steps += 1
        return jobs, acts, rates


class CheckedEngine(Engine):
    """An engine whose every activation round is checked against the reference."""

    def __init__(self, *args, reference: GrantReference, **kwargs):
        super().__init__(*args, hooks=[reference], **kwargs)
        self.reference = reference
        self.mismatches: list[tuple] = []

    def _activate(self, *args, **kwargs):
        expected = self.reference.expected()
        got = super()._activate(*args, **kwargs)
        if tuple(got) != expected:
            self.mismatches.append((self.reference.state.now, expected, got))
        return got


def _check(instance, policy, **kwargs) -> GrantReference:
    reference = GrantReference()
    engine = CheckedEngine(
        instance, make_scheduler(policy), reference=reference, record_trace=False, **kwargs
    )
    engine.run()
    assert reference.steps > 0
    assert engine.mismatches == [], (
        f"{len(engine.mismatches)} of {reference.steps} rounds differ from the "
        f"reference grant; first at {engine.mismatches[0]}"
    )
    return reference


def _instance(n_jobs: int, load: float, seed: int) -> Instance:
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=n_jobs, ccr=1.0, load=load), seed=seed
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("policy", ["ssf-edf", "ssf-edf-fa", "fcfs", "srpt"])
def test_faults_with_windows(policy, seed):
    inst = _instance(60, 1.5, seed)
    faults = instance_fault_trace(inst, mtbf=30.0, mttr=4.0, seed=100 + seed)
    windows = periodic_unavailability(
        inst.platform.n_cloud, period=5.0, busy_fraction=0.3, horizon=400.0
    )
    _check(inst, policy, faults=faults, availability=windows)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("policy", ["ssf-edf-fa", "fcfs", "greedy"])
def test_checkpoints_with_retry_budget(policy, seed):
    inst = _instance(60, 1.5, seed)
    faults = instance_fault_trace(inst, mtbf=30.0, mttr=4.0, seed=100 + seed)
    policy_ckpt = CheckpointPolicy(
        interval=2.0, commit_cost=0.1, phase_boundaries=True, retry_budget=3
    )
    _check(inst, policy, faults=faults, checkpoint=policy_ckpt)


@pytest.mark.parametrize("policy", ["fcfs", "greedy"])
def test_decisions_longer_than_the_platform(policy):
    # About 95 entries a decision, of which about 54 are denied: the
    # scan runs far past the last entry it can grant.
    reference = _check(_instance(200, 2.0, 7), policy)
    assert reference.denied_steps > reference.steps * 9 // 10


@pytest.mark.parametrize("policy", ["ssf-edf", "fcfs"])
def test_every_cloud_down(policy):
    # Two clouds, both down over [2, 6), and the second edge's link down
    # over [3, 5): cloud entries of the decisions in between are denied.
    platform = Platform.create([0.1, 0.1], n_cloud=2)
    jobs = [
        Job(origin=i % 2, work=2.0, release=float(i) / 2, up=0.5, dn=0.5)
        for i in range(10)
    ]
    faults = FaultTrace(
        cloud_down={0: (Interval(2.0, 6.0),), 1: (Interval(2.0, 6.0),)},
        link_down={1: (Interval(3.0, 5.0),)},
    )
    reference = _check(Instance.create(platform, jobs), policy, faults=faults)
    assert reference.all_clouds_down_steps > 0
