"""Stepwise differential test of the row-based matrix heuristics.

At every engine step, each of the nine matrix policies decides on the
engine's view twice: with its row-based ``decide`` and with the NumPy
matrix path it replaced (``tests/schedulers/matrix_reference.py``).  The
two decisions must be equal entry for entry, and the run continues on
the row-based one.  The instances are the golden suite's: random, Kang,
faulted, checkpointed and faulted, availability windows, a two-group
cloud mix (``hetero-n120``) and exact edge/cloud ties (``ties-n40``).
"""

from __future__ import annotations

import pytest

from repro.schedulers.base import BaseScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from tests.schedulers.matrix_reference import reference_decide
from tests.sim.test_golden_determinism import _CHECKPOINTS, _INSTANCES

MATRIX_POLICIES = (
    "fcfs",
    "fcfs-fa",
    "greedy",
    "greedy-fa",
    "greedy-unguarded",
    "srpt",
    "srpt-fa",
    "srpt-norestart",
    "cloud-only",
)

TAGS = (
    "rand-n200-s20210101-l2.0",
    "kang-n60",
    "faulted-n80",
    "ckpt-n100",
    "avail-n80",
    "hetero-n120",
    "ties-n40",
)


class _Differential(BaseScheduler):
    """Decides with ``inner`` and asserts the reference path agrees."""

    def __init__(self, inner: BaseScheduler):
        self.inner = inner
        self.name = inner.name
        self.steps = 0

    def start(self, view):
        self.inner.start(view)

    def decide(self, view, events):
        decision = self.inner.decide(view, events)
        expected = reference_decide(self.inner, view)
        assert decision.assignments == expected.assignments, f"step {self.steps}"
        self.steps += 1
        return decision


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("policy", MATRIX_POLICIES)
def test_rows_decide_like_the_matrix_path_at_every_step(policy, tag):
    inst, availability, faults, trace = _INSTANCES[tag]
    scheduler = _Differential(make_scheduler(policy))
    result = simulate(
        inst,
        scheduler,
        availability=availability,
        faults=faults,
        checkpoint=_CHECKPOINTS.get(tag),
        record_trace=trace,
    )
    assert scheduler.steps == result.n_decisions > 0
