"""Tests for the shared scheduler helpers (repro.schedulers.base)."""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.schedulers.base import (
    append_leftovers,
    claim_columns,
    has_release,
    resource_from_column,
)
from repro.schedulers.greedy import _highest_first
from repro.sim.availability import CloudAvailability
from repro.sim.decision import Decision
from repro.sim.events import compute_done, release
from repro.sim.state import SimState
from repro.sim.view import SimulationView


@pytest.fixture
def view():
    platform = Platform.create([0.5, 0.25], n_cloud=2)
    inst = Instance.create(
        platform,
        [Job(origin=0, work=1.0), Job(origin=1, work=2.0, up=1.0, dn=1.0)],
    )
    state = SimState(inst)
    return SimulationView(state, CloudAvailability.always_available()), state


INF = np.inf


def _reference_claims(values, origins, n_edge, highest_first):
    """The full-matrix mask loop Greedy and SRPT each ran before
    :func:`claim_columns`: every round masks the whole matrix with the
    free processors and unassigned rows, then reduces it."""
    n_rows, width = values.shape
    edge_free = np.ones(n_edge, dtype=bool)
    cloud_free = np.ones(width - 1, dtype=bool)
    unassigned = np.ones(n_rows, dtype=bool)
    claims = []
    for _ in range(min(n_rows, n_edge + width - 1)):
        available = np.empty((n_rows, width), dtype=bool)
        available[:, 0] = edge_free[origins]
        available[:, 1:] = cloud_free[None, :]
        available &= unassigned[:, None]
        masked = np.where(available, values, np.inf)
        best = masked.min(axis=1)
        if highest_first:
            candidates = np.isfinite(best)
            if not candidates.any():
                break
            row = int(np.where(candidates, best, -np.inf).argmax())
        else:
            row = int(best.argmin())
            if not np.isfinite(best[row]):
                break
        col = int(masked[row].argmin())
        claims.append((row, col))
        if col == 0:
            edge_free[origins[row]] = False
        else:
            cloud_free[col - 1] = False
        unassigned[row] = False
    return claims


class TestClaimColumns:
    @pytest.mark.parametrize("score", [None, _highest_first])
    def test_ties_go_to_first_row_and_lowest_column(self, score):
        values = np.array([[2.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        assert claim_columns(values, np.array([0, 0]), score) == [(0, 1), (1, 2)]

    def test_scores_order_the_rows(self):
        values = np.array([[5.0, 6.0], [3.0, 4.0], [1.0, 9.0]])
        origins = np.array([0, 1, 2])
        assert claim_columns(values.copy(), origins) == [(2, 0), (1, 0), (0, 0)]
        assert claim_columns(values.copy(), origins, _highest_first) == [
            (0, 0),
            (1, 0),
            (2, 0),
        ]

    @pytest.mark.parametrize("score", [None, _highest_first])
    def test_row_with_no_finite_free_value_never_claims(self, score):
        values = np.array([[INF, INF], [3.0, 5.0]])
        assert claim_columns(values, np.array([0, 1]), score) == [(1, 0)]
        # Both rows want the one edge unit of their shared origin: the
        # loser is left with no finite value and never claims.
        values = np.array([[1.0, INF], [2.0, INF]])
        winner = 0 if score is None else 1
        assert claim_columns(values, np.array([0, 0]), score) == [(winner, 0)]

    def test_edge_claim_closes_column_zero_only_for_same_origin(self):
        values = np.array([[1.0, 9.0], [1.0, 9.0], [2.0, 9.0]])
        claims = claim_columns(values, np.array([0, 0, 1]))
        assert claims == [(0, 0), (2, 0), (1, 1)]

    def test_no_cloud_columns(self):
        values = np.array([[3.0], [1.0], [2.0]])
        assert claim_columns(values, np.array([0, 0, 1])) == [(1, 0), (2, 0)]

    def test_no_rows(self):
        values = np.empty((0, 3))
        assert claim_columns(values, np.empty(0, dtype=np.int64)) == []
        assert claim_columns(values, np.empty(0, dtype=np.int64), _highest_first) == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("score", [None, _highest_first], ids=["srpt", "greedy"])
    def test_matches_full_matrix_mask_loop(self, seed, score):
        """Small integer values make ties common; ``inf`` entries and
        several rows per origin exercise the closing rules."""
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n_rows = int(rng.integers(0, 12))
            n_edge = int(rng.integers(1, 4))
            n_cloud = int(rng.integers(0, 5))
            values = rng.integers(1, 5, size=(n_rows, 1 + n_cloud)).astype(float)
            values[rng.random(values.shape) < 0.2] = INF
            origins = rng.integers(0, n_edge, size=n_rows)
            expected = _reference_claims(values, origins, n_edge, score is not None)
            assert claim_columns(values.copy(), origins, score) == expected


class TestAppendLeftovers:
    def test_unstarted_jobs_parked_on_origin(self, view):
        v, _ = view
        d = Decision()
        append_leftovers(d, v)
        assert [(a.job, str(a.resource)) for a in d] == [
            (0, "edge[0]"),
            (1, "edge[1]"),
        ]

    def test_started_jobs_keep_allocation(self, view):
        v, state = view
        state.assign(1, cloud(0))
        d = Decision()
        append_leftovers(d, v)
        assert [(a.job, str(a.resource)) for a in d] == [
            (0, "edge[0]"),
            (1, "cloud[0]"),
        ]

    def test_assigned_jobs_skipped(self, view):
        v, _ = view
        d = Decision()
        d.add(0, edge(0))
        append_leftovers(d, v)
        assert [a.job for a in d] == [0, 1]

    def test_done_jobs_excluded(self, view):
        v, state = view
        state.finish(0, 1.0)
        d = Decision()
        append_leftovers(d, v)
        assert [a.job for a in d] == [1]


class TestSmallHelpers:
    def test_has_release(self):
        assert has_release([compute_done(1.0, 0), release(1.0, 1)])
        assert not has_release([compute_done(1.0, 0)])
        assert not has_release([])

    def test_resource_from_column(self, view):
        v, _ = view
        assert resource_from_column(v, 0, 0) == edge(0)
        assert resource_from_column(v, 1, 0) == edge(1)
        assert resource_from_column(v, 0, 1) == cloud(0)
        assert resource_from_column(v, 0, 2) == cloud(1)
