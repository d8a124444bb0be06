"""Dispatch guarantees of the engine's hook protocol.

Pins the contracts instrumentation relies on: callback order within one
engine step (decision → assign → step → complete/abort → events), abort
interleaving at fault boundaries, and the step callback's arguments:
the engine's own parallel job/activity/rate lists, shared by every step
hook, with each job at most once.
"""

import pytest

from repro.faults import FaultClassParams, exponential_fault_trace
from repro.sim.engine import simulate
from repro.sim.hooks import EngineHooks, HookSet
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE
from repro.schedulers.registry import make_scheduler
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


def small_instance(n=15, seed=4):
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=n, ccr=1.0, load=0.8), seed=seed
    )


class RecordingHooks(EngineHooks):
    """Log the name of every callback in arrival order."""

    def __init__(self):
        self.log = []

    def on_start(self, view):
        self.log.append("start")

    def on_decision(self, now, decision):
        self.log.append("decision")

    def on_assign(self, job, resource, now):
        self.log.append("assign")

    def on_step(self, t0, t1, jobs, acts, rates):
        self.log.append("step")

    def on_events(self, events):
        self.log.append("events")

    def on_abort(self, job, time):
        self.log.append("abort")

    def on_complete(self, job, time):
        self.log.append("complete")

    def on_finish(self, result):
        self.log.append("finish")


def cycles(log):
    """Split the log into per-decision cycles (decision .. events)."""
    assert log[0] == "start"
    assert log[1] == "events"  # the initial release batch
    assert log[-1] == "finish"
    body = log[2:-1]
    out = []
    current = None
    for name in body:
        if name == "decision":
            if current is not None:
                out.append(current)
            current = ["decision"]
        else:
            assert current is not None, f"{name!r} before the first decision"
            current.append(name)
    if current is not None:
        out.append(current)
    return out


#: Dispatch order within one engine step.
_RANK = {"decision": 0, "assign": 1, "step": 2, "complete": 3, "abort": 3, "events": 4}


class TestDispatchOrder:
    def test_decision_assign_step_events_order(self):
        spy = RecordingHooks()
        simulate(small_instance(), make_scheduler("ssf-edf"), hooks=[spy])
        for cycle in cycles(spy.log):
            ranks = [_RANK[name] for name in cycle]
            assert ranks == sorted(ranks), f"out-of-order cycle: {cycle}"
            # Exactly one step and one closing events batch per cycle.
            assert cycle.count("step") == 1
            assert cycle.count("events") == 1 and cycle[-1] == "events"

    def test_abort_interleaving_under_faults(self):
        inst = small_instance(n=25, seed=13)
        params = FaultClassParams(mtbf=40.0, mttr=5.0)
        faults = exponential_fault_trace(
            n_edge=inst.platform.n_edge,
            n_cloud=inst.platform.n_cloud,
            horizon=float(inst.release.max() + inst.min_time.sum()),
            seed=5,
            edge=params,
            cloud=params,
            link=params,
        )
        spy = RecordingHooks()
        simulate(inst, make_scheduler("ssf-edf-fa"), faults=faults, hooks=[spy])
        assert "abort" in spy.log, "fault trace produced no aborts"
        for cycle in cycles(spy.log):
            ranks = [_RANK[name] for name in cycle]
            assert ranks == sorted(ranks), f"out-of-order cycle: {cycle}"
            # Aborts are delivered inside the step that hit the fault
            # boundary, strictly before that step's events batch.
            if "abort" in cycle:
                assert cycle.index("abort") < cycle.index("events")


class StepLists(EngineHooks):
    """Keep every step's argument lists and check them against the view."""

    def __init__(self):
        self.steps = []
        self.problems = []

    def on_start(self, view):
        self.view = view

    def on_step(self, t0, t1, jobs, acts, rates):
        self.steps.append((jobs, acts, rates))
        platform = self.view.platform
        kind, index = self.view.alloc_kind, self.view.alloc_index
        if not len(jobs) == len(acts) == len(rates) or len(set(jobs)) != len(jobs):
            self.problems.append((t0, "lists not parallel or a job repeats"))
        for job, act, rate in zip(jobs, acts, rates):
            if act == ACT_COMPUTE and kind[job] == ALLOC_EDGE:
                expected = float(platform.edge_speeds[index[job]])
            elif act == ACT_COMPUTE and kind[job] == ALLOC_CLOUD:
                expected = float(platform.cloud_speeds[index[job]])
            elif act in (ACT_UPLINK, ACT_DOWNLINK) and kind[job] == ALLOC_CLOUD:
                expected = 1.0
            else:
                self.problems.append((t0, job, act, kind[job]))
                continue
            if rate != expected:
                self.problems.append((t0, job, act, rate, expected))


class TestStepLists:
    def test_step_hooks_share_the_engine_lists(self):
        first, second = StepLists(), StepLists()
        simulate(small_instance(n=25, seed=6), make_scheduler("ssf-edf"), hooks=[first, second])
        assert first.problems == []
        assert first.steps and len(first.steps) == len(second.steps)
        acts_seen = set()
        for mine, theirs in zip(first.steps, second.steps):
            # No per-hook copies: both hooks get the very same lists.
            assert all(a is b for a, b in zip(mine, theirs))
            acts_seen.update(mine[1])
        assert acts_seen == {ACT_UPLINK, ACT_COMPUTE, ACT_DOWNLINK}


class TestWantsProvenance:
    def test_flag_defaults_off(self):
        assert HookSet([RecordingHooks()]).wants_provenance is False
        assert HookSet([]).wants_provenance is False

    def test_flag_set_by_declaring_hook(self):
        class Wants(EngineHooks):
            """Declares the provenance requirement."""

            wants_decision_provenance = True

        assert HookSet([RecordingHooks(), Wants()]).wants_provenance is True

    def test_engine_ignores_schedulers_without_set_provenance(self):
        class Wants(EngineHooks):
            """Declares the provenance requirement."""

            wants_decision_provenance = True

        # srpt has no set_provenance; the run must not crash.
        result = simulate(small_instance(n=8), make_scheduler("srpt"), hooks=[Wants()])
        assert result.completion.size == 8
