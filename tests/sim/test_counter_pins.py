"""Exact pins of SSF-EDF's counters on faulted and windowed runs.

The counter ceilings of ``test_fault_path_smoke.py`` and
``test_ssf_edf_perf_smoke.py`` let a count fall, and the ``sweep-mtbf``
benchmark pin covers only plain ``ssf-edf`` under faults without
windows.  Each case here pins the ten ``scheduler.*`` counters, the
event and decision counts and the abandoned jobs of one seeded run of
60 jobs under exponential faults (MTBF 30, MTTR 4), exactly:

* ``ssf-edf`` under faults, under periodic availability windows, and
  under both: the engine's activation rounds read the run's own
  outlook, so ``outlook_queries`` and ``outlook_delta_updates`` count
  every down-set scan and every round served by key equality;
* ``ssf-edf-fa`` under faults;
* ``ssf-edf-fa`` with periodic commits (interval 2, cost 0.1) and a
  retry budget that abandons jobs;
* ``ssf-edf-fa`` on the same fault intervals without model rates: the
  discounted outlook degenerates to the transparent one, replay stays
  armed and is scoped to the fault epoch, so ``epoch_invalidations``
  moves.

The values were captured before activation lost its incremental resume.
"""

from __future__ import annotations

import pytest

from repro.faults.model import instance_fault_trace
from repro.faults.trace import FaultTrace
from repro.schedulers.registry import make_scheduler
from repro.sim.availability import periodic_unavailability
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import simulate
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance

N_JOBS = 60


def _run(case: str, seed: int):
    inst = generate_random_instance(
        RandomInstanceConfig(n_jobs=N_JOBS, ccr=1.0, load=1.5), seed=seed
    )
    faults = instance_fault_trace(inst, mtbf=30.0, mttr=4.0, seed=100 + seed)
    windows = periodic_unavailability(
        inst.platform.n_cloud, period=5.0, busy_fraction=0.3, horizon=400.0
    )
    policy, kwargs = {
        "ssf-edf-faults": ("ssf-edf", {"faults": faults}),
        "ssf-edf-windows": ("ssf-edf", {"availability": windows}),
        "ssf-edf-faults-windows": ("ssf-edf", {"faults": faults, "availability": windows}),
        "fa-faults": ("ssf-edf-fa", {"faults": faults}),
        "fa-ckpt-budget": (
            "ssf-edf-fa",
            {
                "faults": faults,
                "checkpoint": CheckpointPolicy(
                    interval=2.0, commit_cost=0.1, retry_budget=2
                ),
            },
        ),
        "fa-rateless": (
            "ssf-edf-fa",
            {"faults": FaultTrace(faults.edge_down, faults.cloud_down, faults.link_down)},
        ),
    }[case]
    return simulate(inst, make_scheduler(policy), record_trace=False, **kwargs)


def _fingerprint(result) -> dict:
    stats = {k.removeprefix("scheduler."): int(v) for k, v in result.scheduler_stats.items()}
    stats["n_events"] = result.n_events
    stats["n_decisions"] = result.n_decisions
    stats["n_abandoned"] = result.n_abandoned
    return stats


#: The pinned columns, in :data:`PINS` order.
FIELDS = (
    "probes", "probe_short_circuits", "rebuilds", "probe_reuses",
    "pass_reuses", "replays", "outlook_queries", "outlook_delta_updates",
    "partial_rebuilds", "epoch_invalidations", "n_events", "n_decisions",
    "n_abandoned",
)

#: (case, seed) -> the run's :data:`FIELDS`.
PINS = {
    ("ssf-edf-faults", 1): (533, 151, 1187, 60, 227, 255, 1199, 306, 0, 0, 1785, 1502, 0),
    ("ssf-edf-faults", 2): (302, 82, 778, 60, 122, 331, 914, 258, 0, 0, 1361, 1169, 0),
    ("ssf-edf-windows", 1): (236, 58, 375, 60, 102, 89, 309, 218, 0, 0, 585, 524, 0),
    ("ssf-edf-windows", 2): (203, 45, 369, 60, 83, 102, 310, 224, 0, 0, 592, 531, 0),
    ("ssf-edf-faults-windows", 1): (533, 151, 2897, 60, 227, 508, 3114, 354, 0, 0, 3830, 3465, 0),
    ("ssf-edf-faults-windows", 2): (302, 82, 1826, 60, 122, 500, 2092, 297, 0, 0, 2634, 2386, 0),
    ("fa-faults", 1): (500, 137, 1455, 60, 258, 0, 10242, 316, 316, 0, 1827, 1515, 0),
    ("fa-faults", 2): (280, 75, 1543, 60, 128, 0, 10241, 356, 356, 0, 1907, 1603, 0),
    ("fa-ckpt-budget", 1): (500, 137, 706, 60, 267, 0, 2189, 505, 505, 0, 718, 766, 28),
    ("fa-ckpt-budget", 2): (313, 74, 756, 60, 135, 0, 2407, 525, 525, 0, 765, 816, 28),
    ("fa-rateless", 1): (533, 151, 1422, 60, 227, 20, 3, 0, 0, 1195, 1785, 1502, 0),
    ("fa-rateless", 2): (302, 82, 1096, 60, 122, 13, 3, 0, 0, 910, 1361, 1169, 0),
}


@pytest.mark.parametrize("case, seed", sorted(PINS))
def test_counters_pinned(case, seed):
    got = _fingerprint(_run(case, seed))
    assert got == dict(zip(FIELDS, PINS[(case, seed)]))


@pytest.mark.parametrize("seed", [1, 2])
def test_cases_exercise_their_paths(seed):
    # Each pinned case reaches the machinery it is there for.
    pins = {case: dict(zip(FIELDS, PINS[(case, s)])) for case, s in PINS if s == seed}
    for case in ("ssf-edf-faults", "ssf-edf-windows", "ssf-edf-faults-windows"):
        assert pins[case]["outlook_delta_updates"] > 0, case
        assert pins[case]["replays"] > 0, case
    assert pins["fa-ckpt-budget"]["n_abandoned"] > 0
    assert pins["fa-rateless"]["epoch_invalidations"] > 0
    assert pins["fa-rateless"]["replays"] > 0
    assert pins["fa-faults"]["replays"] == 0
