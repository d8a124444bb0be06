"""Tests for the discrete-event engine: model semantics end to end."""

import numpy as np
import pytest

from repro.core.errors import DecisionError, SimulationError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.core.validation import validate_schedule
from repro.offline.list_scheduler import FixedPolicyScheduler
from repro.schedulers.base import BaseScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.decision import Decision
from repro.sim.engine import simulate
from repro.sim.events import EventKind
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)


def run_fixed(instance, allocation, priority=None, **kwargs):
    priority = priority if priority is not None else list(range(instance.n_jobs))
    return simulate(instance, FixedPolicyScheduler(allocation, priority), **kwargs)


class TestSingleJob:
    def test_edge_execution_time(self):
        platform = Platform.create([0.25], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=2.0)])
        result = run_fixed(inst, [edge(0)])
        assert result.completion[0] == pytest.approx(8.0)
        assert result.max_stretch == pytest.approx(8.0 / min(8.0, 2.0 + 0.0))

    def test_cloud_execution_time(self):
        platform = Platform.create([0.25], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=2.0, up=1.5, dn=0.5)])
        result = run_fixed(inst, [cloud(0)])
        assert result.completion[0] == pytest.approx(4.0)

    def test_release_date_delays_start(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=2.0, release=10.0)])
        result = run_fixed(inst, [edge(0)])
        assert result.completion[0] == pytest.approx(12.0)
        assert result.max_stretch == pytest.approx(1.0)

    def test_zero_length_comms_skipped(self):
        platform = Platform.create([1.0], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=3.0, up=0.0, dn=0.0)])
        result = run_fixed(inst, [cloud(0)])
        assert result.completion[0] == pytest.approx(3.0)

    def test_zero_downlink_completes_despite_busy_receive_port(self):
        # J0's long downlink occupies edge[0]'s receive port; J1 has
        # dn=0 and must complete exactly at its compute end anyway (a
        # zero-length transfer needs no port).
        platform = Platform.create([1.0], n_cloud=2)
        jobs = [
            Job(origin=0, work=0.5, up=0.5, dn=10.0),
            Job(origin=0, work=1.0, up=1.0, dn=0.0),
        ]
        inst = Instance.create(platform, jobs)
        result = run_fixed(inst, [cloud(0), cloud(1)], priority=[0, 1])
        # J0: up 0-0.5, exec 0.5-1, dn 1-11. J1: up 0.5-1.5, exec 1.5-2.5.
        assert result.completion[1] == pytest.approx(2.5)
        assert result.completion[0] == pytest.approx(11.0)

    def test_heterogeneous_cloud_speed(self):
        platform = Platform.create([1.0], cloud_speeds=[4.0])
        inst = Instance.create(platform, [Job(origin=0, work=4.0, up=1.0, dn=1.0)])
        result = run_fixed(inst, [cloud(0)])
        assert result.completion[0] == pytest.approx(1.0 + 1.0 + 1.0)


class TestExclusivityAndPorts:
    def test_edge_compute_serialized(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(
            platform, [Job(origin=0, work=2.0), Job(origin=0, work=2.0)]
        )
        result = run_fixed(inst, [edge(0), edge(0)])
        assert sorted(result.completion.tolist()) == pytest.approx([2.0, 4.0])

    def test_uplinks_from_same_edge_serialized(self):
        platform = Platform.create([1.0], n_cloud=2)
        jobs = [Job(origin=0, work=0.1, up=2.0, dn=0.0) for _ in range(2)]
        inst = Instance.create(platform, jobs)
        result = run_fixed(inst, [cloud(0), cloud(1)])
        # Second uplink must wait for the first despite distinct clouds.
        assert max(result.completion) == pytest.approx(4.1)

    def test_uplinks_to_same_cloud_serialized(self):
        platform = Platform.create([1.0, 1.0], n_cloud=1)
        jobs = [Job(origin=0, work=0.1, up=2.0), Job(origin=1, work=0.1, up=2.0)]
        inst = Instance.create(platform, jobs)
        result = run_fixed(inst, [cloud(0), cloud(0)])
        # J0: up 0-2, exec 2-2.1; J1: up 2-4 (receive port), exec 4-4.1.
        assert max(result.completion) == pytest.approx(4.1)

    def test_independent_pairs_in_parallel(self):
        platform = Platform.create([1.0, 1.0], n_cloud=2)
        jobs = [Job(origin=0, work=1.0, up=2.0), Job(origin=1, work=1.0, up=2.0)]
        inst = Instance.create(platform, jobs)
        result = run_fixed(inst, [cloud(0), cloud(1)])
        assert result.completion.tolist() == pytest.approx([3.0, 3.0])

    def test_full_duplex_overlap(self):
        # Same edge unit: one job uploading while another downloads.
        platform = Platform.create([1.0], n_cloud=2)
        jobs = [
            Job(origin=0, work=0.5, up=1.0, dn=4.0),
            Job(origin=0, work=0.5, up=2.0, dn=1.0),
        ]
        inst = Instance.create(platform, jobs)
        result = run_fixed(inst, [cloud(0), cloud(1)])
        # J0: up 0-1, exec 1-1.5, dn 1.5-5.5. J1: up 1-3 (send port
        # freed at 1), exec 3-3.5, dn 3.5-4.5 overlapping J0's dn? No -
        # same edge receive port, so J1's dn waits until 5.5.
        assert result.completion[0] == pytest.approx(5.5)
        assert result.completion[1] == pytest.approx(6.5)

    def test_compute_overlaps_communication(self):
        # Cloud computes one job while receiving the next one's uplink.
        platform = Platform.create([1.0], n_cloud=1)
        jobs = [
            Job(origin=0, work=4.0, up=1.0, dn=0.0),
            Job(origin=0, work=1.0, up=2.0, dn=0.0),
        ]
        inst = Instance.create(platform, jobs)
        result = run_fixed(inst, [cloud(0), cloud(0)])
        # J0 up 0-1 exec 1-5; J1 up 1-3, exec 5-6.
        assert result.completion[0] == pytest.approx(5.0)
        assert result.completion[1] == pytest.approx(6.0)


class TestPreemptionAndReexecution:
    def test_priority_preempts_on_release(self):
        # A long job starts; a short higher-priority job released later
        # preempts it; the long job resumes (progress kept).
        platform = Platform.create([1.0], n_cloud=0)
        jobs = [Job(origin=0, work=10.0), Job(origin=0, work=1.0, release=2.0)]
        inst = Instance.create(platform, jobs)
        result = run_fixed(inst, [edge(0), edge(0)], priority=[1, 0])
        assert result.completion[1] == pytest.approx(3.0)
        assert result.completion[0] == pytest.approx(11.0)
        # Preemption is not a re-execution.
        assert result.n_reexecutions == 0
        errs = validate_schedule(result.schedule)
        assert errs == []

    def test_reexecution_loses_progress(self):
        # A scheduler that flips the job to the cloud after the first event.
        platform = Platform.create([1.0], n_cloud=1)
        jobs = [Job(origin=0, work=4.0, up=1.0, dn=1.0), Job(origin=0, work=1.0, release=1.0)]
        inst = Instance.create(platform, jobs)

        class Flipper(BaseScheduler):
            name = "flipper"

            def decide(self, view, events):
                d = Decision()
                live = set(view.live_jobs().tolist())
                if view.now < 1.0:
                    if 0 in live:
                        d.add(0, edge(0))  # start on edge
                else:
                    if 1 in live:
                        d.add(1, edge(0))
                    if 0 in live:
                        d.add(0, cloud(0))  # restart on the cloud
                return d

        result = simulate(inst, Flipper())
        # J0 ran 0-1 on edge (lost), then up 1-2, exec 2-6, dn 6-7.
        assert result.completion[0] == pytest.approx(7.0)
        assert result.n_reexecutions == 1
        assert validate_schedule(result.schedule) == []


class TestEngineGuards:
    def test_deadlock_detected(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])

        class Idler(BaseScheduler):
            name = "idler"

            def decide(self, view, events):
                return Decision()

        with pytest.raises(SimulationError, match="deadlock"):
            simulate(inst, Idler())

    def test_unreleased_job_rejected(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(
            platform, [Job(origin=0, work=1.0), Job(origin=0, work=1.0, release=99.0)]
        )

        class Eager(BaseScheduler):
            name = "eager"

            def decide(self, view, events):
                d = Decision()
                d.add(1, edge(0))
                return d

        with pytest.raises(DecisionError, match="not released"):
            simulate(inst, Eager())

    def test_wrong_edge_rejected(self):
        platform = Platform.create([1.0, 1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])
        with pytest.raises(DecisionError, match="originates"):
            run_fixed(inst, [edge(1)])

    def test_bad_cloud_rejected(self):
        platform = Platform.create([1.0], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])
        with pytest.raises(DecisionError, match="no such cloud"):
            run_fixed(inst, [cloud(5)])

    # 1 and 40 entries: both sides of the 32-entry size at which _apply
    # used to switch to NumPy array checks.
    @pytest.mark.parametrize("n_entries", [1, 40])
    @pytest.mark.parametrize(
        "kind, index, message",
        [
            (ALLOC_CLOUD, -1, r"no such cloud processor: cloud\[-1\]"),
            (7, 0, "unknown allocation kind: 7"),
            (ALLOC_EDGE, -1, r"cannot run on edge\[-1\]"),
            # Equal to an unassigned job's allocation: still rejected.
            (ALLOC_NONE, -1, "unknown allocation kind: -1"),
        ],
        ids=["cloud-index-negative", "kind-unknown", "edge-index-negative", "kind-none"],
    )
    def test_bad_raw_entry_rejected(self, n_entries, kind, index, message):
        """Raw columns from ``add_bulk`` are checked for sign and kind."""
        platform = Platform.create([1.0], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)] * n_entries)

        class Raw(BaseScheduler):
            name = "raw"

            def decide(self, view, events):
                d = Decision()
                d.add_bulk(
                    list(range(n_entries)),
                    [ALLOC_EDGE] * (n_entries - 1) + [kind],
                    [0] * (n_entries - 1) + [index],
                )
                return d

        with pytest.raises(DecisionError, match=message):
            simulate(inst, Raw())

    def test_completed_job_with_its_allocation_rejected(self):
        """A finished job re-sent on the resource it finished on is refused."""
        platform = Platform.create([1.0], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=1.0), Job(origin=0, work=1.0)])

        class Resender(BaseScheduler):
            name = "resender"

            def decide(self, view, events):
                return Decision.of([(0, edge(0)), (1, edge(0))])

        with pytest.raises(DecisionError, match="job 0 is already completed"):
            simulate(inst, Resender())

    def test_duplicate_assignment_rejected(self):
        platform = Platform.create([1.0], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])

        class Duplicator(BaseScheduler):
            name = "dup"

            def decide(self, view, events):
                d = Decision()
                d.add(0, edge(0))
                d.add(0, cloud(0))
                return d

        with pytest.raises(DecisionError, match="twice"):
            simulate(inst, Duplicator())

    def test_max_steps_guard(self):
        platform = Platform.create([1.0], n_cloud=0)
        jobs = [Job(origin=0, work=1.0, release=float(i)) for i in range(6)]
        inst = Instance.create(platform, jobs)
        with pytest.raises(SimulationError, match="steps"):
            run_fixed(inst, [edge(0)] * 6, max_steps=2)

    def test_empty_instance(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [])
        result = simulate(inst, FixedPolicyScheduler([], []))
        assert result.max_stretch == 0.0
        assert result.n_events == 0


class TestEventsAndResult:
    def test_event_counts_edge_job(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])
        result = run_fixed(inst, [edge(0)])
        # release + compute_done + job_done.
        assert result.n_events == 3

    def test_event_counts_cloud_job(self):
        platform = Platform.create([1.0], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=1.0, up=1.0, dn=1.0)])
        result = run_fixed(inst, [cloud(0)])
        # release + uplink_done + compute_done + downlink_done + job_done.
        assert result.n_events == 5

    def test_scheduler_sees_release_events(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(
            platform, [Job(origin=0, work=1.0), Job(origin=0, work=1.0, release=5.0)]
        )
        seen = []

        class Recorder(BaseScheduler):
            name = "recorder"

            def decide(self, view, events):
                seen.extend(e.kind for e in events)
                d = Decision()
                for i in view.live_jobs():
                    d.add(int(i), edge(0))
                return d

        simulate(inst, Recorder())
        assert seen.count(EventKind.RELEASE) == 2
        assert EventKind.JOB_DONE in seen

    def test_result_metrics(self):
        platform = Platform.create([0.5], n_cloud=0)
        inst = Instance.create(
            platform, [Job(origin=0, work=1.0), Job(origin=0, work=1.0)]
        )
        result = run_fixed(inst, [edge(0), edge(0)])
        assert result.makespan == pytest.approx(4.0)
        assert result.average_stretch == pytest.approx((1.0 + 2.0) / 2)
        assert result.scheduler_name == "fixed-policy"
        assert result.wall_time > 0

    def test_no_trace_mode(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)])
        result = run_fixed(inst, [edge(0)], record_trace=False)
        assert result.schedule is None
        assert result.max_stretch == pytest.approx(1.0)

    def test_clock_is_python_float_on_large_decisions(self):
        """Every ``now`` a scheduler sees is a Python float, not a NumPy scalar."""
        inst = generate_random_instance(
            RandomInstanceConfig(n_jobs=100, ccr=1.0, load=1.0),
            platform=paper_random_platform(),
            seed=20210110,
        )
        inner = make_scheduler("ssf-edf")
        clock_types = set()
        largest = 0

        class Watch:
            name = "watch"

            def start(self, view):
                inner.start(view)

            def decide(self, view, events):
                nonlocal largest
                clock_types.add(type(view.now))
                decision = inner.decide(view, events)
                largest = max(largest, len(decision))
                return decision

        simulate(inst, Watch(), record_trace=False)
        assert largest > 32
        assert clock_types == {float}

    def test_simultaneous_releases_processed_together(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(
            platform,
            [Job(origin=0, work=1.0, release=2.0), Job(origin=0, work=1.0, release=2.0)],
        )
        result = run_fixed(inst, [edge(0), edge(0)])
        assert sorted(result.completion.tolist()) == pytest.approx([3.0, 4.0])
