"""Byte pins of the two saved forms of a run: the schedule and the trace.

The golden suite pins completions only, and the trace tests compare two
runs of the same code, so neither catches a recorder that drifts across
commits.  Each case here pins the sha256 of the canonical JSON of
``schedule_to_dict(result.schedule)`` and of ``RunTracer.payload()``
for one seeded run of about 60 jobs:

* ``ssf-edf`` on a clean instance;
* ``ssf-edf-fa`` under an exponential fault trace;
* ``fcfs`` under faults with periodic commits (interval 2, cost 0.1),
  phase commits and a retry budget small enough to abandon jobs;
* ``ssf-edf`` with periodic cloud-unavailability windows.

The hashes were captured before the schedule and the trace came to be
built from one attempt record.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults.model import instance_fault_trace
from repro.io.json_format import schedule_to_dict
from repro.obs.tracing import RunTracer
from repro.schedulers.registry import make_scheduler
from repro.sim.availability import periodic_unavailability
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import simulate
from repro.util.jsonl import dumps
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance

N_JOBS = 60


def _instance(seed: int, load: float = 1.0):
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=N_JOBS, ccr=1.0, load=load), seed=seed
    )


def _run(case: str):
    """Run one pinned case with a tracer attached; returns ``(result, tracer)``."""
    tracer = RunTracer()
    if case == "ssf-edf":
        inst = _instance(11)
        result = simulate(inst, make_scheduler("ssf-edf"), hooks=[tracer])
    elif case == "ssf-edf-fa-faults":
        inst = _instance(12)
        faults = instance_fault_trace(inst, mtbf=30.0, mttr=4.0, seed=12)
        result = simulate(inst, make_scheduler("ssf-edf-fa"), faults=faults, hooks=[tracer])
    elif case == "fcfs-ckpt-budget":
        inst = _instance(13)
        faults = instance_fault_trace(inst, mtbf=30.0, mttr=4.0, seed=13)
        policy = CheckpointPolicy(
            interval=2.0, commit_cost=0.1, phase_boundaries=True, retry_budget=3
        )
        result = simulate(
            inst, make_scheduler("fcfs"), faults=faults, checkpoint=policy, hooks=[tracer]
        )
        assert result.n_abandoned > 0, "the retry budget abandoned no job"
    elif case == "ssf-edf-windows":
        inst = _instance(14)
        windows = periodic_unavailability(
            inst.platform.n_cloud, period=5.0, busy_fraction=0.3, horizon=400.0
        )
        result = simulate(
            inst, make_scheduler("ssf-edf"), availability=windows, hooks=[tracer]
        )
    else:  # pragma: no cover - parametrization guard
        raise AssertionError(case)
    return result, tracer


def _sha(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


#: case -> (schedule sha256, trace payload sha256).
PINS = {
    "ssf-edf": (
        "aa1ab0dcd0db75170cef2931eb2a6eabd10147a4488cafb3a42fa17a9af88633",
        "a8b8ac8888b67cb95167a30ce1ba2d45e3cb99f510a84f623757afb6e4f633e0",
    ),
    "ssf-edf-fa-faults": (
        "f8234af19b273db42d30fc6882bd1333c16ad64517fcebbc82336e8f08ba3fce",
        "bbfc24d909fc7f23fbfa6c63e09c1a08873b3ae95dfe5247b8cd5750c06eacc2",
    ),
    "fcfs-ckpt-budget": (
        "d651c2f520f301daac935aee6dc35707893877f65c6ab664a1435a4f73eaddab",
        "5c8ee30a9ee1d0ac9e427ba0aa84feb42c758355a7c34cc13bc179cbc2506d51",
    ),
    "ssf-edf-windows": (
        "f2482fea5f34ad6ab4a3ac2affeb7382406ded6e0e7767f365edc58539bcdc20",
        "6404ed082638b0751d9c00eb0705b315d626972b7a84ce6cfe4e193110a089c1",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_schedule_and_trace_bytes_pinned(case):
    result, tracer = _run(case)
    schedule_sha, trace_sha = PINS[case]
    assert _sha(schedule_to_dict(result.schedule)) == schedule_sha
    assert _sha(tracer.payload()) == trace_sha
