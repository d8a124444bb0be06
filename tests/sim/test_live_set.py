"""The live set and the scalar types of the per-job simulation state.

:class:`~repro.sim.state.SimState` keeps the live set (released,
uncompleted jobs) up to date as releases pass and jobs finish or are
abandoned, and ``live_jobs()`` hands it out as a cached int64 array.
These tests check it against its definition,
``np.nonzero((release <= now + 1e-9) & ~done)[0]``, before every
decision of seeded runs that release, finish and abandon jobs, with the
done set rebuilt from the run's own events, and in direct ``SimState``
cases.  At the end of each run every per-job state list must hold only
Python scalars: a NumPy scalar in one of them changes no result but
brings the scalar-access overhead back.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.schedulers.base import BaseScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.availability import periodic_unavailability
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import simulate
from repro.sim.events import EventKind
from repro.sim.state import SimState
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)

#: Per-job state lists and the one Python type every entry must have.
STATE_LISTS = {
    "rem_up": float,
    "rem_work": float,
    "rem_dn": float,
    "completion": float,
    "alloc_kind": int,
    "alloc_index": int,
    "attempts": int,
    "done": bool,
}
CHECKPOINT_LISTS = {"ckpt_up": float, "ckpt_work": float, "ckpt_pending": bool}


def expected_live(instance: Instance, now: float, done) -> list[int]:
    """The live set by definition."""
    released = instance.release <= now + 1e-9
    return np.nonzero(released & ~np.asarray(done, dtype=bool))[0].tolist()


def assert_python_scalars(state: SimState) -> None:
    lists = dict(STATE_LISTS)
    if state.checkpointing:
        lists.update(CHECKPOINT_LISTS)
    for name, kind in lists.items():
        values = getattr(state, name)
        assert len(values) == state.instance.n_jobs, name
        bad = {type(v).__name__ for v in values if type(v) is not kind}
        assert not bad, f"{name} holds {sorted(bad)}"


class _LiveSetCheck(BaseScheduler):
    """Checks the live set before every decision of ``inner``."""

    def __init__(self, inner: BaseScheduler):
        self.inner = inner
        self.name = inner.name
        self.events: Counter = Counter()
        self.steps = 0

    def start(self, view):
        self.state = view._state
        self.done = [False] * view.instance.n_jobs
        self.inner.start(view)

    def decide(self, view, events):
        for ev in events:
            self.events[ev.kind] += 1
            if ev.kind in (EventKind.JOB_DONE, EventKind.JOB_ABANDONED):
                self.done[ev.job] = True
        assert self.state.done == self.done, f"step {self.steps}"
        live = view.live_jobs()
        assert live.dtype == np.int64
        assert not live.flags.writeable
        assert live.tolist() == expected_live(view.instance, view.now, self.done), (
            f"step {self.steps} at t={view.now}"
        )
        self.steps += 1
        return self.inner.decide(view, events)


def _instance(n_jobs: int, load: float, seed: int) -> Instance:
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=n_jobs, ccr=1.0, load=load),
        platform=paper_random_platform(),
        seed=seed,
    )


def _faults(instance: Instance, seed: int, mtbf: float, mttr: float):
    params = FaultClassParams(mtbf=mtbf, mttr=mttr)
    return exponential_fault_trace(
        n_edge=instance.platform.n_edge,
        n_cloud=instance.platform.n_cloud,
        horizon=float(instance.release.max() + instance.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
    )


def _run(policy: str, instance: Instance, **kwargs):
    check = _LiveSetCheck(make_scheduler(policy))
    result = simulate(instance, check, record_trace=False, **kwargs)
    assert check.steps == result.n_decisions > 0
    # The last events end the run without a decision.
    assert all(check.state.done)
    assert check.state.live_jobs().tolist() == []
    assert_python_scalars(check.state)
    return check, result


@pytest.mark.parametrize("seed", [1, 2])
def test_faulted_run_with_a_retry_budget(seed):
    inst = _instance(60, 1.0, seed)
    check, result = _run(
        "ssf-edf-fa",
        inst,
        faults=_faults(inst, seed, 15.0, 3.0),
        checkpoint=CheckpointPolicy(retry_budget=2),
    )
    # Decisions followed abandonments (the last events reach none).
    assert 0 < check.events[EventKind.JOB_ABANDONED] <= result.n_abandoned
    assert check.events[EventKind.ATTEMPT_ABORTED] > result.n_abandoned


@pytest.mark.parametrize("seed", [1, 2])
def test_fcfs_with_periodic_checkpoints(seed):
    inst = _instance(60, 1.0, seed)
    check, _ = _run(
        "fcfs",
        inst,
        faults=_faults(inst, seed, 30.0, 3.0),
        checkpoint=CheckpointPolicy(interval=2.0, commit_cost=0.1, phase_boundaries=True),
    )
    assert check.state.checkpointing
    assert check.events[EventKind.CHECKPOINT_COMMITTED] > 0
    assert check.events[EventKind.ATTEMPT_ABORTED] > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_availability_windows(seed):
    inst = _instance(60, 0.5, seed)
    windows = periodic_unavailability(
        inst.platform.n_cloud, period=5.0, busy_fraction=0.3, horizon=400.0
    )
    check, _ = _run("ssf-edf", inst, availability=windows)
    assert check.events[EventKind.AVAILABILITY_CHANGE] > 0


@pytest.fixture
def state() -> SimState:
    platform = Platform.create([1.0], n_cloud=1)
    jobs = [
        Job(origin=0, work=1.0, release=0.0),
        Job(origin=0, work=1.0, release=5.0, up=1.0, dn=1.0),
        Job(origin=0, work=2.0, release=5.0),
        Job(origin=0, work=1.0, release=10.0),
    ]
    return SimState(Instance.create(platform, jobs))


def _check(state: SimState) -> None:
    assert state.live_jobs().tolist() == expected_live(state.instance, state.now, state.done)


def test_now_moved_by_hand(state):
    for now in (0.0, 5.0 - 1e-10, 4.0, 12.0, 10.0 - 1e-8, 3.0, -1.0, 0.0, 5.0):
        state.now = now
        _check(state)
    assert state.live_jobs().tolist() == [0, 1, 2]


def test_array_is_rebuilt_only_when_the_set_changes(state):
    first = state.live_jobs()
    state.now = 1.0
    assert state.live_jobs() is first
    state.now = 5.0
    second = state.live_jobs()
    assert second is not first and second.tolist() == [0, 1, 2]
    assert first.tolist() == [0]
    state.finish(1, 6.0)
    assert state.live_jobs().tolist() == [0, 2]


def test_job_finished_before_its_release(state):
    state.finish(2, 1.0)
    _check(state)
    state.now = 5.0
    _check(state)
    assert state.live_jobs().tolist() == [0, 1]
    state.now = 0.0
    state.now = 12.0
    _check(state)
    assert state.live_jobs().tolist() == [0, 1, 3]


def test_finish_and_abandon_leave_the_live_set(state):
    state.now = 5.0
    state.assign(0, edge(0))
    state.assign(1, cloud(0))
    state.finish(0, 2.0)
    state.abandon(1)
    _check(state)
    assert state.live_jobs().tolist() == [2]
    assert state.completion[0] == 2.0 and np.isnan(state.completion[1])
    state.now = 12.0
    assert state.live_jobs().tolist() == [2, 3]
    assert_python_scalars(state)
