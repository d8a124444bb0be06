"""Unit tests for the fault-trace data model and the MTBF/MTTR sampler."""

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.intervals import Interval
from repro.faults import (
    DOMAIN_CLOUD,
    DOMAIN_EDGE,
    DOMAIN_LINK,
    FaultClassParams,
    FaultTrace,
    FaultTransition,
    exponential_fault_trace,
)


class TestFaultTraceValidation:
    def test_empty_trace(self):
        trace = FaultTrace.none()
        assert trace.is_empty
        assert trace.n_boundaries == 0
        assert trace.next_boundary(0.0) == float("inf")
        assert trace.edge_up(0, 5.0) and trace.cloud_up(3, 5.0) and trace.link_up(1, 5.0)

    def test_negative_index_rejected(self):
        with pytest.raises(ModelError, match="non-negative"):
            FaultTrace(edge_down={-1: (Interval(0.0, 1.0),)})

    def test_empty_interval_tuple_rejected(self):
        with pytest.raises(ModelError, match="omit the key"):
            FaultTrace(cloud_down={0: ()})

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ModelError, match="sorted and disjoint"):
            FaultTrace(edge_down={0: (Interval(0.0, 2.0), Interval(1.0, 3.0))})

    def test_unsorted_intervals_rejected(self):
        with pytest.raises(ModelError, match="sorted and disjoint"):
            FaultTrace(link_down={0: (Interval(5.0, 6.0), Interval(1.0, 2.0))})

    def test_touching_intervals_allowed(self):
        trace = FaultTrace(edge_down={0: (Interval(0.0, 1.0), Interval(1.0, 2.0))})
        assert not trace.edge_up(0, 0.5) and not trace.edge_up(0, 1.5)


class TestFaultTraceQueries:
    def trace(self):
        return FaultTrace(
            edge_down={1: (Interval(2.0, 4.0),)},
            cloud_down={0: (Interval(3.0, 5.0),)},
            link_down={1: (Interval(2.0, 3.0),)},
        )

    def test_up_down_half_open(self):
        trace = self.trace()
        assert trace.edge_up(1, 1.9)
        assert not trace.edge_up(1, 2.0)  # start is inclusive
        assert not trace.edge_up(1, 3.9)
        assert trace.edge_up(1, 4.0)  # end is exclusive
        assert trace.edge_up(0, 3.0)  # unlisted resources never fail

    def test_next_boundary_strictly_after(self):
        trace = self.trace()
        assert trace.next_boundary(0.0) == 2.0
        assert trace.next_boundary(2.0) == 3.0
        assert trace.next_boundary(4.0) == 5.0
        assert trace.next_boundary(5.0) == float("inf")

    def test_transitions_ordered_downs_first_then_domain(self):
        trace = self.trace()
        at3 = trace.transitions_at(3.0)
        # cloud 0 goes down and link 1 comes up at t=3: down first.
        assert at3 == (
            FaultTransition(DOMAIN_CLOUD, 0, True),
            FaultTransition(DOMAIN_LINK, 1, False),
        )
        assert trace.transitions_at(2.0) == (
            FaultTransition(DOMAIN_EDGE, 1, True),
            FaultTransition(DOMAIN_LINK, 1, True),
        )
        assert trace.transitions_at(99.0) == ()

    def test_down_at(self):
        trace = self.trace()
        assert trace.down_at(2.5) == ([1], [], [1])
        assert trace.down_at(3.5) == ([1], [0], [])
        assert trace.down_at(10.0) == ([], [], [])

    def test_iter_down_intervals(self):
        listed = list(self.trace().iter_down_intervals())
        assert (DOMAIN_EDGE, 1, Interval(2.0, 4.0)) in listed
        assert len(listed) == 3


def _touching_trace():
    # Edge 0 has two intervals meeting at t=2, where cloud 1 goes down
    # and link 0 comes back up.
    return FaultTrace(
        edge_down={0: (Interval(1.0, 2.0), Interval(2.0, 3.0))},
        cloud_down={1: (Interval(2.0, 4.0),)},
        link_down={0: (Interval(0.5, 2.0),)},
    )


def _table_traces():
    params = FaultClassParams(mtbf=10.0, mttr=3.0)
    kwargs = dict(n_edge=5, n_cloud=3, horizon=150.0, edge=params, cloud=params, link=params)
    return [
        exponential_fault_trace(seed=1, **kwargs),
        exponential_fault_trace(seed=2, **kwargs),
        exponential_fault_trace(seed=3, group_size=2, **kwargs),
        exponential_fault_trace(seed=4, group_size=2, **kwargs),
        _touching_trace(),
    ]


def _grouped_transitions(trace):
    """Transitions by instant, rebuilt from ``iter_down_intervals``."""
    rank = {DOMAIN_EDGE: 0, DOMAIN_CLOUD: 1, DOMAIN_LINK: 2}
    by_time: dict[float, list[FaultTransition]] = {}
    for domain, idx, iv in trace.iter_down_intervals():
        by_time.setdefault(iv.start, []).append(FaultTransition(domain, idx, True))
        by_time.setdefault(iv.end, []).append(FaultTransition(domain, idx, False))
    return {
        t: tuple(sorted(trs, key=lambda tr: (not tr.goes_down, rank[tr.domain], tr.index)))
        for t, trs in by_time.items()
    }


class TestTransitionTable:
    @pytest.mark.parametrize("case", range(len(_table_traces())))
    def test_every_boundary_matches_the_interval_grouping(self, case):
        trace = _table_traces()[case]
        expected = _grouped_transitions(trace)
        boundaries = sorted(expected)
        assert trace.n_boundaries == len(boundaries)
        assert trace.interval_key(boundaries[0] - 1.0) == 0
        assert trace.next_boundary(boundaries[0] - 1.0) == boundaries[0]
        for k, b in enumerate(boundaries):
            assert trace.transitions_at(b) == expected[b]
            nxt = boundaries[k + 1] if k + 1 < len(boundaries) else float("inf")
            assert trace.interval_key(b) == k + 1
            assert trace.next_boundary(b) == nxt
            if nxt < float("inf"):
                mid = (b + nxt) / 2
                assert trace.transitions_at(mid) == ()
                assert trace.interval_key(mid) == k + 1
                assert trace.next_boundary(mid) == nxt

    @pytest.mark.parametrize("case", range(len(_table_traces())))
    def test_rows_between_keys_are_the_boundaries_crossed(self, case):
        trace = _table_traces()[case]
        domains = (DOMAIN_EDGE, DOMAIN_CLOUD, DOMAIN_LINK)
        boundaries = sorted(_grouped_transitions(trace))
        for k, b in enumerate(boundaries):
            rows = trace.transition_rows(k, k + 1)
            assert {t for t, *_ in rows} == {b}
            assert tuple(
                FaultTransition(domains[d], idx, not up) for _, up, d, idx in rows
            ) == trace.transitions_at(b)
            assert trace.transition_rows(k + 1, k + 1) == []
        n_intervals = len(list(trace.iter_down_intervals()))
        assert len(trace.transition_rows(0, trace.n_boundaries)) == 2 * n_intervals

    def test_touching_intervals_go_down_before_up(self):
        trace = _touching_trace()
        assert trace.transitions_at(2.0) == (
            FaultTransition(DOMAIN_EDGE, 0, True),
            FaultTransition(DOMAIN_CLOUD, 1, True),
            FaultTransition(DOMAIN_EDGE, 0, False),
            FaultTransition(DOMAIN_LINK, 0, False),
        )
        assert trace.down_at(2.0) == ([0], [1], [])


class TestExponentialModel:
    def test_params_validated(self):
        with pytest.raises(ModelError, match="mtbf"):
            FaultClassParams(mtbf=0.0, mttr=1.0)
        with pytest.raises(ModelError, match="mttr"):
            FaultClassParams(mtbf=1.0, mttr=-1.0)

    def test_bad_horizon_and_sizes(self):
        with pytest.raises(ModelError, match="horizon"):
            exponential_fault_trace(n_edge=1, n_cloud=1, horizon=0.0, seed=0)
        with pytest.raises(ModelError, match="negative platform"):
            exponential_fault_trace(n_edge=-1, n_cloud=1, horizon=1.0, seed=0)

    def test_same_seed_same_trace(self):
        params = FaultClassParams(mtbf=10.0, mttr=2.0)
        kwargs = dict(n_edge=4, n_cloud=3, horizon=100.0, edge=params, cloud=params, link=params)
        a = exponential_fault_trace(seed=7, **kwargs)
        b = exponential_fault_trace(seed=7, **kwargs)
        assert a == b
        c = exponential_fault_trace(seed=8, **kwargs)
        assert a != c

    def test_none_class_never_fails(self):
        trace = exponential_fault_trace(
            n_edge=4,
            n_cloud=3,
            horizon=500.0,
            seed=1,
            edge=FaultClassParams(mtbf=5.0, mttr=1.0),
        )
        assert not trace.cloud_down and not trace.link_down
        assert trace.edge_down  # MTBF far below horizon: some crash expected

    def test_windows_clipped_at_horizon(self):
        trace = exponential_fault_trace(
            n_edge=8,
            n_cloud=0,
            horizon=50.0,
            seed=3,
            edge=FaultClassParams(mtbf=5.0, mttr=20.0),
        )
        for _, _, iv in trace.iter_down_intervals():
            assert 0.0 < iv.start < 50.0
            assert iv.end <= 50.0

    def test_generator_seed_accepted(self):
        params = FaultClassParams(mtbf=10.0, mttr=2.0)
        rng = np.random.default_rng(5)
        trace = exponential_fault_trace(
            n_edge=2, n_cloud=2, horizon=40.0, seed=rng, edge=params
        )
        assert isinstance(trace, FaultTrace)
