"""Telemetry reconciles with the run's attempt record.

The ``faults.*`` and ``reexec.*`` monitors integrate attempt progress
from the step callback on their own; the trace records every attempt
with its outcome and its coalesced segments.  Both describe the same
run, so every count and every wasted amount the monitors publish must
be derivable from the trace:

* ``faults.aborted_attempts`` is the number of ``aborted`` attempts and
  ``reexec.aborted_attempts`` the number of ``superseded`` ones;
* ``jobs.completed`` counts the jobs with a completion and
  ``faults.abandoned_jobs`` the jobs flagged ``abandoned``;
* the wasted uplink/work/downlink amounts are those attempts' segment
  lengths, compute segments multiplied by the resource's speed.
"""

from __future__ import annotations

import pytest

from repro.faults.model import instance_fault_trace
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.obs.telemetry import collect_telemetry
from repro.obs.tracing import RunTracer
from repro.schedulers.registry import make_scheduler
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import simulate
from repro.sim.hooks import make_hooks
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance

POLICIES = ("ssf-edf", "ssf-edf-fa", "fcfs", "greedy", "srpt")
_PHASE_SLOT = {"uplink": 0, "compute": 1, "downlink": 2}


def _speed(platform, resource: str) -> float:
    kind, index = resource.split(":")
    speeds = platform.edge_speeds if kind == "edge" else platform.cloud_speeds
    return float(speeds[int(index)])


def _wasted(payload: dict, platform, outcome: str) -> list[float]:
    """``[uplink, work, downlink]`` summed over the attempts with ``outcome``."""
    totals = [0.0, 0.0, 0.0]
    for job in payload["jobs"]:
        for attempt in job["attempts"]:
            if attempt["outcome"] != outcome:
                continue
            speed = _speed(platform, attempt["resource"])
            for phase, t0, t1 in attempt["segments"]:
                slot = _PHASE_SLOT[phase]
                totals[slot] += (t1 - t0) * (speed if slot == 1 else 1.0)
    return totals


def _count(metrics, name: str) -> float:
    """A counter's value; lazily created counters read 0 when absent."""
    return metrics.counter(name).value if name in metrics else 0.0


@pytest.mark.parametrize("checkpointed", [False, True], ids=["restart", "ckpt"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("policy", POLICIES)
def test_monitors_reconcile_with_trace(policy, seed, checkpointed):
    inst = generate_random_instance(
        RandomInstanceConfig(n_jobs=60, ccr=1.0, load=1.0), seed=seed
    )
    faults = instance_fault_trace(inst, mtbf=30.0, mttr=4.0, seed=seed)
    policy_ckpt = (
        CheckpointPolicy(interval=2.0, commit_cost=0.1, phase_boundaries=True, retry_budget=3)
        if checkpointed
        else None
    )
    tracer = RunTracer()
    hooks = make_hooks(DEFAULT_TELEMETRY_HOOKS) + [tracer]
    simulate(
        inst,
        make_scheduler(policy),
        faults=faults,
        checkpoint=policy_ckpt,
        record_trace=False,
        hooks=hooks,
    )
    metrics = collect_telemetry(hooks).metrics
    payload = tracer.payload()
    jobs = payload["jobs"]
    outcomes = [a["outcome"] for job in jobs for a in job["attempts"]]
    assert "open" not in outcomes

    assert _count(metrics, "faults.aborted_attempts") == outcomes.count("aborted")
    assert _count(metrics, "reexec.aborted_attempts") == outcomes.count("superseded")
    assert _count(metrics, "jobs.completed") == sum(
        job["completion"] is not None for job in jobs
    )
    assert _count(metrics, "faults.abandoned_jobs") == sum(
        bool(job.get("abandoned")) for job in jobs
    )

    platform = inst.platform
    for namespace, outcome in (("faults", "aborted"), ("reexec", "superseded")):
        expected = _wasted(payload, platform, outcome)
        for slot, name in enumerate(("uplink", "work", "downlink")):
            got = _count(metrics, f"{namespace}.wasted_{name}")
            assert got == pytest.approx(expected[slot], rel=1e-9), (namespace, name)
