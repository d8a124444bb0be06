"""Differential testing: event engine vs the naive quantized reference.

The two simulators share no code.  Off the reference's time grid its
completions can be off by more than a few quanta: a release a fraction
of a quantum before another job's phase ends is rounded up to the next
grid point, so the reference misses the preemption the model makes
(``test_release_preempts_uplink_just_before_it_ends``).  The property
therefore draws instances on a dyadic grid — every release, amount and
rate a multiple or power-of-two fraction of the quantum — where every
event falls on a grid point and the two simulators must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.offline.list_scheduler import FixedPolicyScheduler
from repro.sim.engine import simulate
from repro.sim.reference import simulate_reference


def run_both(instance, allocation, priority, dt=0.005):
    engine = simulate(
        instance, FixedPolicyScheduler(allocation, priority), record_trace=False
    )
    reference = simulate_reference(instance, allocation, priority, dt=dt)
    return engine, reference


class TestKnownCases:
    def test_single_edge_job(self):
        platform = Platform.create([0.5], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])
        engine, ref = run_both(inst, [edge(0)], [0], dt=0.001)
        assert ref.completion[0] == pytest.approx(engine.completion[0], abs=0.01)

    def test_single_cloud_job(self):
        platform = Platform.create([0.5], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=2.0, up=1.0, dn=0.5)])
        engine, ref = run_both(inst, [cloud(0)], [0], dt=0.001)
        assert ref.completion[0] == pytest.approx(engine.completion[0], abs=0.01)

    def test_zero_downlink(self):
        platform = Platform.create([0.5], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=1.0, up=0.5, dn=0.0)])
        engine, ref = run_both(inst, [cloud(0)], [0], dt=0.001)
        assert ref.completion[0] == pytest.approx(engine.completion[0], abs=0.01)

    def test_contended_edge(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(
            platform, [Job(origin=0, work=1.0), Job(origin=0, work=2.0)]
        )
        engine, ref = run_both(inst, [edge(0), edge(0)], [0, 1], dt=0.001)
        assert np.allclose(ref.completion, engine.completion, atol=0.02)

    def test_contended_ports(self):
        platform = Platform.create([1.0], n_cloud=2)
        jobs = [Job(origin=0, work=0.5, up=1.0, dn=0.5) for _ in range(2)]
        inst = Instance.create(platform, jobs)
        engine, ref = run_both(inst, [cloud(0), cloud(1)], [0, 1], dt=0.001)
        assert np.allclose(ref.completion, engine.completion, atol=0.05)

    def test_release_preempts_uplink_just_before_it_ends(self):
        # Job 1 outranks job 0 and is released 1/512 before job 0's
        # uplink ends: it takes the port, job 0 sends its last 1/512
        # after it, then waits for the cloud job 1 computes on.  A
        # quantized reference rounds the release up past the end of job
        # 0's uplink and gives [6.48, 5.98] at dt=0.01, so the model's
        # completions, worked by hand, are pinned exactly.
        platform = Platform.create([1.0], n_cloud=1)
        jobs = [
            Job(origin=0, work=1.0, release=2.978515625, up=1.5, dn=0.0),
            Job(origin=0, work=1.0, release=4.4765625, up=0.5, dn=0.0),
        ]
        inst = Instance.create(platform, jobs)
        engine = simulate(
            inst, FixedPolicyScheduler([cloud(0), cloud(0)], [1, 0]), record_trace=False
        )
        assert engine.completion.tolist() == [6.9765625, 5.9765625]


class TestValidation:
    def test_bad_policy_rejected(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])
        with pytest.raises(ModelError):
            simulate_reference(inst, [edge(0)], [0, 0])
        with pytest.raises(ModelError):
            simulate_reference(inst, [edge(0)], [0], dt=0.0)

    def test_step_guard(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=100.0)])
        with pytest.raises(ModelError, match="steps"):
            simulate_reference(inst, [edge(0)], [0], dt=0.001, max_steps=100)


#: The property's time quantum; a power of two, so grid sums are exact.
DT = 1 / 64


class TestDifferentialProperty:
    @given(data=st.data())
    @settings(deadline=None, max_examples=20)
    def test_engine_matches_reference(self, data):
        n_edge = data.draw(st.integers(1, 2))
        n_cloud = data.draw(st.integers(0, 2))
        # Edge speeds 1, 1/2, 1/4: compute times of grid work stay on the grid.
        speeds = [data.draw(st.sampled_from([1.0, 0.5, 0.25])) for _ in range(n_edge)]
        platform = Platform.create(speeds, n_cloud=n_cloud)
        n = data.draw(st.integers(1, 4))
        jobs = []
        for _ in range(n):
            jobs.append(
                Job(
                    origin=data.draw(st.integers(0, n_edge - 1)),
                    work=data.draw(st.integers(1, 320)) * DT,
                    release=data.draw(st.integers(0, 320)) * DT,
                    up=data.draw(st.sampled_from([0.0, 0.5, 1.5])),
                    dn=data.draw(st.sampled_from([0.0, 0.5, 1.5])),
                )
            )
        inst = Instance.create(platform, jobs)
        allocation = []
        for job in jobs:
            options = [edge(job.origin)] + [cloud(k) for k in range(n_cloud)]
            allocation.append(data.draw(st.sampled_from(options)))
        priority = list(data.draw(st.permutations(range(n))))

        engine, ref = run_both(inst, allocation, priority, dt=DT)
        # Every event lies on the grid, so the reference lags no phase.
        assert np.allclose(ref.completion, engine.completion, rtol=0.0, atol=1e-9), (
            f"engine={engine.completion}, reference={ref.completion}"
        )
