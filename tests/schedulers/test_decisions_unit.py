"""Unit-level tests of each scheduler's decide() output.

The end-to-end tests check outcomes; these check the *decisions*
directly against hand-computed priorities and placements on frozen
simulator states, catching bugs that outcome metrics can mask.
"""

import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.schedulers.edge_only import EdgeOnlyScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.greedy import GreedyScheduler
from repro.schedulers.srpt import SrptScheduler
from repro.schedulers.ssf_edf import SsfEdfScheduler
from repro.sim.availability import CloudAvailability
from repro.sim.events import release
from repro.sim.state import SimState
from repro.sim.view import SimulationView


def frozen_view(platform, jobs, now=0.0):
    inst = Instance.create(platform, jobs)
    state = SimState(inst)
    state.now = now
    view = SimulationView(state, CloudAvailability.always_available())
    events = [release(now, int(i)) for i in state.live_jobs()]
    return inst, state, view, events


class TestSrptDecisions:
    def test_order_is_by_completion_time(self):
        platform = Platform.create([1.0], n_cloud=1)
        jobs = [
            Job(origin=0, work=5.0),                      # edge 5 / cloud 7
            Job(origin=0, work=2.0, up=1.0, dn=1.0),      # edge 2 / cloud 4
            Job(origin=0, work=9.0, up=0.5, dn=0.5),      # edge 9 / cloud 10
        ]
        _, _, view, events = frozen_view(platform, jobs)
        decision = SrptScheduler().decide(view, events)
        assigned = [(a.job, a.resource) for a in decision]
        # J1 finishes first (edge, 2); then among leftovers the cloud
        # is free: J0 on cloud takes 7 > J2's... J0 cloud 7 vs J2 cloud 10.
        assert assigned[0] == (1, edge(0))
        assert assigned[1] == (0, cloud(0))
        # J2 is appended as a leftover on its origin edge.
        assert assigned[2][0] == 2

    def test_two_slots_two_jobs(self):
        platform = Platform.create([1.0, 1.0], n_cloud=0)
        jobs = [Job(origin=0, work=3.0), Job(origin=1, work=1.0)]
        _, _, view, events = frozen_view(platform, jobs)
        decision = SrptScheduler().decide(view, events)
        assert [(a.job, a.resource) for a in decision] == [(1, edge(1)), (0, edge(0))]


class TestGreedyDecisions:
    def test_max_potential_stretch_first(self):
        platform = Platform.create([1.0], n_cloud=0)
        # Same release; J0's min_time 10, J1's 1.  Estimated stretches
        # at t=0 are both 1.0 (nothing waited yet), but J1 loses the
        # stay-bonus tie only if allocated... neither is allocated, so
        # lowest-index max wins; both orders give a valid greedy; check
        # at a later time instead.
        jobs = [Job(origin=0, work=10.0), Job(origin=0, work=1.0)]
        inst, state, view, events = frozen_view(platform, jobs, now=0.0)
        state.now = 5.0  # both have been waiting 5 units
        decision = GreedyScheduler().decide(view, [])
        # J1's achievable stretch (5+1)/1 = 6 >> J0's (5+10)/10 = 1.5.
        assert decision.assignments[0].job == 1

    def test_places_on_min_stretch_resource(self):
        platform = Platform.create([0.1], n_cloud=1)
        jobs = [Job(origin=0, work=5.0, up=1.0, dn=1.0)]  # edge 50 vs cloud 7
        _, _, view, events = frozen_view(platform, jobs)
        decision = GreedyScheduler().decide(view, events)
        assert decision.assignments[0].resource == cloud(0)

    def test_guard_blocks_pointless_move(self):
        platform = Platform.create([1.0], n_cloud=1)
        jobs = [Job(origin=0, work=10.0, up=5.0, dn=5.0)]
        inst, state, view, _ = frozen_view(platform, jobs)
        # Half-done on the edge: cloud (fresh 20) can't beat finishing
        # on the edge (5 left), so the guard forbids the move even
        # though the cloud is free.
        state.assign(0, edge(0))
        state.rem_work[0] = 5.0
        decision = GreedyScheduler().decide(view, [])
        assert decision.assignments[0].resource == edge(0)


class TestFcfsDecisions:
    def test_priority_by_release(self):
        platform = Platform.create([1.0], n_cloud=0)
        jobs = [
            Job(origin=0, work=1.0, release=2.0),
            Job(origin=0, work=9.0, release=1.0),
        ]
        inst, state, view, _ = frozen_view(platform, jobs, now=3.0)
        decision = FcfsScheduler().decide(view, [])
        assert [a.job for a in decision] == [1, 0]


class TestEdgeOnlyDecisions:
    def test_all_assignments_on_origin_edges(self):
        platform = Platform.create([1.0, 0.5], n_cloud=3)
        jobs = [Job(origin=0, work=2.0), Job(origin=1, work=2.0)]
        _, _, view, events = frozen_view(platform, jobs)
        decision = EdgeOnlyScheduler().decide(view, events)
        for a in decision:
            assert a.resource.is_edge
            assert a.resource.index == jobs[a.job].origin

    def test_edf_order(self):
        platform = Platform.create([1.0], n_cloud=0)
        # J0 released earlier -> earlier deadline at equal min_time.
        jobs = [
            Job(origin=0, work=2.0, release=0.0),
            Job(origin=0, work=2.0, release=0.0),
            Job(origin=0, work=0.5, release=0.0),
        ]
        _, _, view, events = frozen_view(platform, jobs)
        decision = EdgeOnlyScheduler().decide(view, events)
        # Shortest job has the tightest deadline (r + S*m with small m).
        assert decision.assignments[0].job == 2


class TestSsfEdfDecisions:
    def test_covers_all_live_jobs(self):
        platform = Platform.create([0.5], n_cloud=2)
        jobs = [Job(origin=0, work=2.0, up=1.0, dn=1.0) for _ in range(5)]
        _, _, view, events = frozen_view(platform, jobs)
        decision = SsfEdfScheduler().decide(view, events)
        assert sorted(a.job for a in decision) == [0, 1, 2, 3, 4]

    def test_single_fast_cloud_claims_short_jobs(self):
        platform = Platform.create([0.05], n_cloud=1)
        jobs = [
            Job(origin=0, work=1.0, up=0.1, dn=0.1),
            Job(origin=0, work=1.0, up=0.1, dn=0.1),
        ]
        _, _, view, events = frozen_view(platform, jobs)
        decision = SsfEdfScheduler().decide(view, events)
        # Edge takes 20; the placement should send at least the first
        # job to the cloud.
        assert decision.assignments[0].resource == cloud(0)

    def test_deadlines_persist_between_releases(self):
        platform = Platform.create([1.0], n_cloud=0)
        jobs = [Job(origin=0, work=2.0), Job(origin=0, work=2.0)]
        _, _, view, events = frozen_view(platform, jobs)
        scheduler = SsfEdfScheduler()
        scheduler.decide(view, events)
        saved = list(scheduler._deadlines)
        scheduler.decide(view, [])  # non-release event
        assert scheduler._deadlines == saved
