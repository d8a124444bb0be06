"""Tests for repro.capacity: outlook composition, floors, transparency."""

import math

import numpy as np
import pytest

from repro.capacity import CapacityOutlook, ExpectationDiscount
from repro.capacity.outlook import NO_DISCOUNT
from repro.core.errors import ModelError
from repro.core.intervals import Interval
from repro.core.platform import Platform
from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.faults.trace import (
    DOMAIN_CLOUD,
    DOMAIN_EDGE,
    DOMAIN_LINK,
    FaultRates,
    FaultTrace,
    RenewalRates,
)
from repro.sim.availability import CloudAvailability


def _platform():
    return Platform.create([0.5, 0.25, 1.0], cloud_speeds=[1.0, 2.0])


def _windows():
    return CloudAvailability({0: (Interval(2.0, 4.0), Interval(8.0, 9.0))})


def _trace():
    return FaultTrace(
        edge_down={1: (Interval(1.0, 3.0),)},
        cloud_down={1: (Interval(0.5, 2.5),)},
        link_down={0: (Interval(2.0, 6.0),)},
        rates=FaultRates(
            edge=RenewalRates(40.0, 4.0),
            cloud=RenewalRates(50.0, 5.0),
            link=RenewalRates(60.0, 6.0),
        ),
    )


class TestTransparentOutlook:
    def test_rates_are_platform_speeds_bitwise(self):
        platform = _platform()
        outlook = CapacityOutlook(platform)
        expected_edge = np.asarray(platform.edge_speeds, dtype=np.float64)
        expected_cloud = np.asarray(platform.cloud_speeds, dtype=np.float64)
        assert outlook.edge_rates().tobytes() == expected_edge.tobytes()
        assert outlook.cloud_rates().tobytes() == expected_cloud.tobytes()
        assert outlook.link_rate() == 1.0
        assert not outlook.discounted

    def test_floors_are_identity(self):
        outlook = CapacityOutlook(_platform(), _windows(), _trace())
        # Undiscounted: current health is the engine's to enforce, not
        # the scheduler's to anticipate — floors collapse to t even for
        # down resources.
        assert outlook.earliest_edge_start(1, 2.0) == 2.0
        assert outlook.earliest_cloud_start(0, 3.0) == 3.0
        assert outlook.earliest_link_start(0, 3.0) == 3.0

    def test_completion_ignores_floors_but_walks_windows(self):
        outlook = CapacityOutlook(_platform(), _windows())
        # Cloud 0 speed 1.0: start at 1, window [2,4) pauses, finish
        # 1 unit before + 2 after the window.
        assert outlook.earliest_cloud_completion(0, 1.0, 3.0) == pytest.approx(6.0)
        # Cloud 1 has no windows.
        assert outlook.earliest_cloud_completion(1, 1.0, 3.0) == pytest.approx(2.5)

    def test_query_counter_increments(self):
        outlook = CapacityOutlook(_platform())
        before = outlook.n_queries
        outlook.edge_rates()
        outlook.cloud_rates()
        outlook.blocked_at(0.0)
        assert outlook.n_queries == before + 3


class TestBlockedAt:
    def test_composes_faults_and_windows(self):
        outlook = CapacityOutlook(_platform(), _windows(), _trace())
        edges, clouds, links, busy = outlook.blocked_at(2.0)
        assert edges == [1]
        assert clouds == [1]
        assert links == [0]
        assert busy == [0]

    def test_empty_when_nothing_down(self):
        outlook = CapacityOutlook(_platform(), _windows(), _trace())
        assert outlook.blocked_at(7.0) == ([], [], [], [])

    def test_next_boundary_is_min_of_sources(self):
        outlook = CapacityOutlook(_platform(), _windows(), _trace())
        # Fault boundary at 0.5 precedes the first window edge at 2.0.
        assert outlook.next_boundary(0.0) == 0.5
        # Past every fault boundary only the windows remain.
        assert outlook.next_boundary(6.5) == 8.0
        assert outlook.next_boundary(100.0) == math.inf


def _touching_trace():
    # Edge 0's two outages meet at t=2.0: it must stay down there.
    return FaultTrace(
        edge_down={0: (Interval(1.0, 2.0), Interval(2.0, 3.0))},
        cloud_down={0: (Interval(2.0, 8.5),), 1: (Interval(0.5, 2.0),)},
        link_down={2: (Interval(2.0, 2.5), Interval(2.5, 9.0))},
    )


def _seeded_trace(group_size):
    params = FaultClassParams(mtbf=3.0, mttr=1.5)
    return exponential_fault_trace(
        n_edge=3, n_cloud=2, horizon=30.0, seed=11 + group_size,
        edge=params, cloud=params, link=params, group_size=group_size,
    )


def _query_times(trace):
    """Every fault and window boundary, the midpoints between them and
    instants before and after them all, ascending."""
    marks = {b for _, _, iv in trace.iter_down_intervals() for b in (iv.start, iv.end)}
    marks |= {b for ivs in _windows().windows.values() for iv in ivs for b in (iv.start, iv.end)}
    marks = sorted(marks)
    mids = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
    return sorted([marks[0] - 1.0, *marks, *mids, marks[-1] + 1.0])


class TestBlockedAtSweep:
    TRACES = {
        "hand-built": _trace,
        "touching": _touching_trace,
        "seeded": lambda: _seeded_trace(1),
        "seeded-groups": lambda: _seeded_trace(2),
    }

    @pytest.mark.parametrize("order", ["forward", "repeated", "backward", "shuffled"])
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_matches_down_at(self, name, order):
        trace = self.TRACES[name]()
        outlook = CapacityOutlook(_platform(), _windows(), trace)
        times = _query_times(trace)
        if order == "repeated":
            times = [t for t in times for _ in range(2)]
        elif order == "backward":
            times = times[::-1]
        elif order == "shuffled":
            np.random.default_rng(5).shuffle(times)
        av = _windows()
        for t in times:
            edges, clouds, links, busy = outlook.blocked_at(t)
            assert (edges, clouds, links) == trace.down_at(t), t
            assert busy == [k for k in sorted(av.windows) if not av.is_available(k, t)]

    def test_touching_intervals_stay_down_at_their_shared_instant(self):
        outlook = CapacityOutlook(_platform(), _windows(), _touching_trace())
        assert outlook.blocked_at(1.5)[:3] == ([0], [1], [])
        assert outlook.blocked_at(2.0)[:3] == ([0], [0], [2])
        assert outlook.blocked_at(2.5)[:3] == ([0], [0], [2])
        assert outlook.blocked_at(3.0)[:3] == ([], [0], [2])

    def test_answers_handed_out_never_change(self):
        outlook = CapacityOutlook(_platform(), _windows(), _touching_trace())
        first = outlook.blocked_at(1.5)
        copy = tuple(list(ids) for ids in first)
        for t in (2.0, 3.0, 9.5, 0.0, 2.0):
            outlook.blocked_at(t)
        assert first == copy

    def test_counters_unchanged_by_the_sweep(self):
        outlook = CapacityOutlook(_platform(), _windows(), _trace())
        # Key changes at 1.0, back at 0.2 and at 2.0; 0.1 and the
        # second 2.0 repeat the previous key.
        for t in (0.0, 0.1, 1.0, 0.2, 2.0, 2.0):
            outlook.blocked_at(t)
        assert (outlook.n_queries, outlook.n_delta_updates) == (6, 2)


class TestDeliverableWork:
    def test_window_overlap_carved_out(self):
        outlook = CapacityOutlook(_platform(), _windows())
        # [1, 5): 4 time units minus 2 inside the window, at speed 1.
        assert outlook.deliverable_cloud_work(0, 1.0, 5.0) == pytest.approx(2.0)
        # Cloud 1 (speed 2, no windows): full span.
        assert outlook.deliverable_cloud_work(1, 1.0, 5.0) == pytest.approx(8.0)

    def test_empty_and_edge_spans(self):
        outlook = CapacityOutlook(_platform(), _windows())
        assert outlook.deliverable_cloud_work(0, 5.0, 5.0) == 0.0
        assert outlook.deliverable_cloud_work(0, 6.0, 5.0) == 0.0
        assert outlook.deliverable_edge_work(0, 0.0, 4.0) == pytest.approx(2.0)


class TestDiscountedOutlook:
    def _outlook(self):
        discount = ExpectationDiscount.from_rates(_trace().rates)
        return CapacityOutlook(_platform(), _windows(), _trace(), discount=discount)

    def test_rates_scaled_by_availability(self):
        outlook = self._outlook()
        assert outlook.discounted
        assert outlook.edge_rates()[0] == pytest.approx(0.5 * 40.0 / 44.0)
        assert outlook.cloud_rates()[1] == pytest.approx(2.0 * 50.0 / 55.0)
        assert outlook.link_rate() == pytest.approx(60.0 / 66.0)

    def test_down_resources_floored_at_expected_recovery(self):
        outlook = self._outlook()
        assert outlook.earliest_edge_start(1, 2.0) == pytest.approx(2.0 + 4.0)
        assert outlook.earliest_edge_start(0, 2.0) == 2.0  # healthy
        assert outlook.earliest_cloud_start(1, 1.0) == pytest.approx(1.0 + 5.0)
        assert outlook.earliest_link_start(0, 3.0) == pytest.approx(3.0 + 6.0)

    def test_planned_window_floors_at_published_end(self):
        outlook = self._outlook()
        # Cloud 0 is healthy but inside the [2, 4) window: floor is the
        # window end (published co-tenancy is fair game).
        assert outlook.earliest_cloud_start(0, 3.0) == pytest.approx(4.0)

    def test_non_positive_rate_rejected(self):
        discount = ExpectationDiscount(cloud_availability=0.0)
        outlook = CapacityOutlook(_platform(), discount=discount)
        with pytest.raises(ModelError):
            outlook.earliest_cloud_completion(0, 0.0, 1.0)


class TestExpectationDiscount:
    def test_from_rates_none_is_identity(self):
        assert ExpectationDiscount.from_rates(None) == NO_DISCOUNT

    def test_partial_rates(self):
        rates = FaultRates(edge=RenewalRates(10.0, 1.0))
        d = ExpectationDiscount.from_rates(rates)
        assert d.edge_availability == pytest.approx(10.0 / 11.0)
        assert d.cloud_availability == 1.0
        assert d.availability_of(DOMAIN_EDGE) == d.edge_availability
        assert d.recovery_of(DOMAIN_EDGE) == 1.0
        assert d.recovery_of(DOMAIN_LINK) == 0.0

    def test_expected_rework_superlinear(self):
        d = ExpectationDiscount(cloud_mtbf=10.0)
        short = d.expected_rework(1.0, DOMAIN_CLOUD)
        long = d.expected_rework(10.0, DOMAIN_CLOUD)
        assert short == pytest.approx(10.0 * math.expm1(0.1))
        # Superlinear: ten times the work costs more than ten times the
        # expected busy time.
        assert long > 10.0 * short

    def test_expected_rework_infinite_mtbf_is_identity(self):
        assert NO_DISCOUNT.expected_rework(7.0, DOMAIN_EDGE) == 7.0
        assert NO_DISCOUNT.expected_rework(7.0, DOMAIN_LINK) == 7.0
