"""The placement kernel's sorted-scan prune is exact.

An ordinary pass of :meth:`EdfPlacementKernel.place` walks the cloud
candidates by ascending compute availability and stops at the first one
whose lower bound cannot beat the incumbent; an explain pass walks
every cloud.  At every engine step of small seeded runs, both passes
must return bitwise the same columns, completions and flags.  The
states cover jobs on their edge, on a cloud and unassigned; transparent
and discounted kernels (the latter on an exponential fault trace, with
per-resource floors and a link rate below 1); heterogeneous cloud
speeds with repeated rates; integer amounts, for exact ties; and probes
with and without ``short_circuit``.
"""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.schedulers.base import BaseScheduler
from repro.schedulers.placement import EdfPlacementKernel
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)

#: Heterogeneous cloud speeds, each rate repeated.
_HETERO_CLOUDS = [1.0, 1.0, 2.0, 2.0, 2.0, 0.5, 0.5, 4.0, 4.0]


def _paper_instance(seed: int) -> Instance:
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=30, ccr=1.0, load=1.5),
        platform=paper_random_platform(),
        seed=seed,
    )


def _hetero_instance(seed: int) -> Instance:
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=30, ccr=0.5, load=1.0),
        platform=Platform.create([0.1, 0.5] * 3, cloud_speeds=_HETERO_CLOUDS),
        seed=seed,
    )


def _integer_instance(seed: int) -> Instance:
    """Integer amounts and releases on speeds 0.5, 1, 2 and 4: completions
    and candidate scores tie exactly."""
    rng = np.random.default_rng(seed)
    platform = Platform.create([0.5, 1.0] * 2, cloud_speeds=_HETERO_CLOUDS)
    jobs = [
        Job(
            origin=int(rng.integers(4)),
            work=float(rng.choice([2, 4, 6])),
            release=float(rng.integers(12)),
            up=float(rng.choice([0, 1, 2])),
            dn=float(rng.choice([1, 2])),
        )
        for _ in range(30)
    ]
    return Instance.create(platform, jobs)


def _faults(instance: Instance, seed: int):
    params = FaultClassParams(mtbf=30.0, mttr=4.0)
    return exponential_fault_trace(
        n_edge=instance.platform.n_edge,
        n_cloud=instance.platform.n_cloud,
        horizon=float(instance.release.max() + instance.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
    )


def _bits(column: list) -> tuple:
    """A list column's element types and exact values."""
    return tuple((type(x), x.hex() if isinstance(x, float) else x) for x in column)


def _columns(res) -> tuple:
    """Everything a caller reads off a placement, bitwise."""
    return (
        tuple(_bits(c) for c in (res.jobs, res.kinds, res.indices, res.completions)),
        res.feasible,
        res.complete,
    )


class PruneProbe(BaseScheduler):
    """Decides as ``inner``; before each decision, compares a pruned and
    an unpruned pass of its own kernel on the current state."""

    name = "prune-probe"

    def __init__(self, inner: BaseScheduler, *, failure_aware: bool, seed: int):
        self.inner = inner
        self.failure_aware = failure_aware
        self.rng = np.random.default_rng(seed)
        self.calls = 0
        self.mismatches: list[tuple] = []
        self.alloc_seen: set[int] = set()
        self.outcomes: set[tuple[bool, bool]] = set()
        self.floored = False
        self.link_rate = 1.0

    def start(self, view):
        self.inner.start(view)
        self.kernel = EdfPlacementKernel(view, failure_aware=self.failure_aware)
        self.link_rate = self.kernel.outlook.link_rate()

    def decide(self, view, events):
        live = view.live_jobs()
        if live.size:
            live_l = live.tolist()
            self.alloc_seen.update(view.alloc_kind[j] for j in live_l)
            self.floored |= bool(self.kernel.floor_report(view.now))
            inst = view.instance
            release = inst.release[live]
            min_time = inst.min_time[live]
            # Stretch targets from hopeless to slack, and integer
            # deadlines that tie in the EDF order.
            draws = [
                release + s * min_time for s in self.rng.uniform(1.0, 8.0, size=2)
            ]
            draws.append(np.floor(release + self.rng.integers(1, 30, size=live.size)))
            for deadlines in draws:
                deadlines_l = deadlines.tolist()
                for short_circuit in (False, True):
                    pruned = self.kernel.place(
                        view, live_l, deadlines_l, short_circuit=short_circuit
                    )
                    full = self.kernel.place(
                        view, live_l, deadlines_l, short_circuit=short_circuit, explain=True
                    )
                    self.calls += 1
                    self.outcomes.add((pruned.feasible, pruned.complete))
                    if _columns(pruned) != _columns(full):
                        self.mismatches.append((view.now, short_circuit, deadlines_l))
        return self.inner.decide(view, events)


_BUILDERS = {
    "paper": _paper_instance,
    "hetero": _hetero_instance,
    "integer": _integer_instance,
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("discounted", [False, True], ids=["transparent", "discounted"])
@pytest.mark.parametrize("shape", sorted(_BUILDERS))
def test_pruned_pass_matches_unpruned(shape, discounted, seed):
    instance = _BUILDERS[shape](seed)
    faults = _faults(instance, 100 + seed) if discounted else None
    inner = make_scheduler("ssf-edf-fa" if discounted else "ssf-edf")
    probe = PruneProbe(inner, failure_aware=discounted, seed=seed)
    simulate(instance, probe, faults=faults, record_trace=False)

    assert probe.calls > 0
    assert probe.mismatches == [], (
        f"{len(probe.mismatches)} of {probe.calls} pruned passes differ from the "
        f"unpruned one; first at {probe.mismatches[0]}"
    )
    # The states covered what the prune must be exact on.
    assert probe.alloc_seen == {ALLOC_NONE, ALLOC_EDGE, ALLOC_CLOUD}
    assert (True, True) in probe.outcomes
    assert (False, False) in probe.outcomes
    if discounted:
        assert probe.link_rate < 1.0
        assert probe.floored
    else:
        assert probe.link_rate == 1.0
