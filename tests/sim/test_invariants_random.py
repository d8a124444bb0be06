"""Randomized (fixed-seed) model-invariant checks via the hooks API.

An :class:`InvariantAuditor` hook watches every engine step of a
simulation and checks, from the outside, the physical rules of the
model (paper §III): one-port full-duplex exclusivity, exclusive compute
slots, no migration within an attempt, and re-execution restarting work
from scratch.  Running it over randomized instances with pinned seeds
exercises decision shapes no hand-written scenario covers.
"""

import pytest

from repro.core.resources import ResourceKind
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.sim.hooks import EngineHooks
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


class InvariantAuditor(EngineHooks):
    """Checks model invariants from on_assign/on_step/on_complete alone."""

    def __init__(self, instance):
        self.instance = instance
        #: job -> (kind, index) of the current attempt.
        self.where: dict[int, tuple] = {}
        #: job -> number of attempts opened so far.
        self.attempts: dict[int, int] = {}
        #: job -> work progress (speed * time) of the *current* attempt.
        self.progress: dict[int, float] = {}
        self.violations: list[str] = []
        self.n_reassignments = 0

    def on_assign(self, job, resource, now):
        """Track attempt openings; a changed resource is a re-execution."""
        key = (resource.kind, resource.index)
        prev = self.where.get(job)
        if prev is not None and prev != key:
            self.n_reassignments += 1
        self.where[job] = key
        self.attempts[job] = self.attempts.get(job, 0) + 1
        # Every new attempt starts from zero progress (no migration:
        # progress never transfers between resources).
        self.progress[job] = 0.0

    def on_step(self, t0, t1, jobs, acts, rates):
        """Check per-step exclusivity and accumulate work progress."""
        dt = t1 - t0
        if not len(jobs) == len(acts) == len(rates):
            self.violations.append(f"t={t0}: step lists of unequal length")
        if len(set(jobs)) != len(jobs):
            self.violations.append(f"t={t0}: a job holds two grants")
        compute_slots = set()
        edge_send = set()
        edge_recv = set()
        cloud_recv = set()
        cloud_send = set()
        for job, act, rate in zip(jobs, acts, rates):
            kind, index = self.where[job]
            origin = int(self.instance.origin[job])
            if act == ACT_COMPUTE:
                if (kind, index) in compute_slots:
                    self.violations.append(
                        f"t={t0}: two jobs computing on {kind.value}[{index}]"
                    )
                compute_slots.add((kind, index))
                self.progress[job] += rate * dt
            elif act == ACT_UPLINK:
                if kind is not ResourceKind.CLOUD:
                    self.violations.append(f"t={t0}: uplink of edge-allocated job {job}")
                if origin in edge_send:
                    self.violations.append(f"t={t0}: edge[{origin}] sends twice")
                if index in cloud_recv:
                    self.violations.append(f"t={t0}: cloud[{index}] receives twice")
                edge_send.add(origin)
                cloud_recv.add(index)
            elif act == ACT_DOWNLINK:
                if index in cloud_send:
                    self.violations.append(f"t={t0}: cloud[{index}] sends twice")
                if origin in edge_recv:
                    self.violations.append(f"t={t0}: edge[{origin}] receives twice")
                cloud_send.add(index)
                edge_recv.add(origin)
            else:
                self.violations.append(f"t={t0}: unknown activity code {act}")

    def on_complete(self, job, time):
        """A completed job must have done its full work in its last attempt."""
        work = float(self.instance.work[job])
        kind, index = self.where[job]
        speed = (
            float(self.instance.platform.edge_speeds[index])
            if kind is ResourceKind.EDGE
            else float(self.instance.platform.cloud_speeds[index])
        )
        # Progress accumulates as speed * time; the last attempt alone
        # must cover the whole work amount — earlier attempts were wiped.
        if self.progress[job] < work - max(1.0, work) * 1e-6:
            self.violations.append(
                f"job {job} completed with only {self.progress[job]:.6f} "
                f"of {work:.6f} work in its final attempt"
            )


CASES = [
    ("srpt", 0.5, 101),
    ("srpt", 2.0, 102),
    ("ssf-edf", 0.5, 103),
    ("ssf-edf", 2.0, 104),
    ("greedy", 1.0, 105),
    ("fcfs", 2.0, 106),
    ("random", 1.0, 107),
]


@pytest.mark.parametrize("policy,load,seed", CASES)
def test_random_instances_respect_model_invariants(policy, load, seed):
    instance = generate_random_instance(
        RandomInstanceConfig(n_jobs=40, ccr=1.0, load=load), seed=seed
    )
    auditor = InvariantAuditor(instance)
    scheduler = (
        make_scheduler(policy, seed=seed) if policy == "random" else make_scheduler(policy)
    )
    result = simulate(instance, scheduler, hooks=[auditor])

    assert auditor.violations == []
    # Every job completed exactly once and opened at least one attempt.
    assert set(auditor.attempts) == set(range(instance.n_jobs))
    # The auditor's reassignment count is exactly the engine's
    # re-execution tally: moving a job wipes it and restarts.
    assert auditor.n_reassignments == result.n_reexecutions
