"""Tests for the shared scheduler helpers (repro.schedulers.base).

:class:`Rows` is checked three ways: its values against the scalar
estimates of :class:`SimulationView` at every step of faulted runs, its
claim loop against the full-matrix mask loop on seeded random rows
(rate groups, current clouds and every policy mask), and its leftover
tail.  ``TestClaimColumns``, ``TestAppendLeftovers`` and
``test_resource_from_column`` check the NumPy matrix path in
``matrix_reference.py`` that the stepwise differential test compares
the schedulers against.
"""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.resources import cloud, edge
from repro.schedulers.base import _STAY_BONUS, INF, BaseScheduler, Rows, has_release
from repro.schedulers.greedy import _forbid_moves_not_better
from repro.schedulers.registry import make_scheduler
from repro.schedulers.srpt import _pin_started
from repro.sim.availability import CloudAvailability
from repro.sim.decision import Decision
from repro.sim.engine import simulate
from repro.sim.events import compute_done, release
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE, SimState
from repro.sim.view import SimulationView
from tests.schedulers.matrix_reference import (
    _highest_first,
    append_leftovers,
    claim_columns,
    resource_from_column,
)
from tests.sim.test_golden_determinism import _CHECKPOINTS, _INSTANCES


@pytest.fixture
def view():
    platform = Platform.create([0.5, 0.25], n_cloud=2)
    inst = Instance.create(
        platform,
        [Job(origin=0, work=1.0), Job(origin=1, work=2.0, up=1.0, dn=1.0)],
    )
    state = SimState(inst)
    return SimulationView(state, CloudAvailability.always_available()), state


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


STAY = 1.0 - _STAY_BONUS


def _check_rows(view: SimulationView) -> int:
    """Assert every row value equals the scalar estimate bitwise (times
    the stay factor on the current resource); return the rows checked."""
    for stretch, estimate in ((False, view.duration_on), (True, view.stretch_est)):
        rows = Rows(view, stretch=stretch)
        groups = list(rows.groups)
        for i, job in enumerate(rows.jobs):
            own = rows.cloud[i]
            on_edge = rows.kind[i] == ALLOC_EDGE
            expected = estimate(job, edge(rows.origin[i])) * (STAY if on_edge else 1.0)
            assert rows.edge[i] == expected
            assert (own >= 0) == (rows.stay[i] < INF)
            for k, rate in enumerate(rows.rate):
                if k == own:
                    assert rows.stay[i] == estimate(job, cloud(k)) * STAY
                else:
                    assert rows.fresh[groups.index(rate)][i] == estimate(job, cloud(k))
    return len(rows.jobs)


class _CheckingSrpt(BaseScheduler):
    """SRPT that checks :class:`Rows` against the scalar estimates first."""

    name = "srpt"

    def __init__(self) -> None:
        self.inner = make_scheduler("srpt")
        self.rows = 0

    def decide(self, view, events):
        self.rows += _check_rows(view)
        return self.inner.decide(view, events)


class TestRowValues:
    @pytest.mark.parametrize("tag", ["faulted-n80", "hetero-n120", "ties-n40"])
    def test_rows_equal_scalar_estimates_at_every_step(self, tag):
        inst, availability, faults, _ = _INSTANCES[tag]
        scheduler = _CheckingSrpt()
        simulate(
            inst,
            scheduler,
            availability=availability,
            faults=faults,
            checkpoint=_CHECKPOINTS.get(tag),
        )
        assert scheduler.rows > 0


def _rows(origin, current, edge_values, stay, fresh, rates, n_edge):
    """Rows over given values.  ``current[i]`` is row ``i``'s current
    column: -1 never started, 0 its origin edge, ``1 + k`` cloud ``k``;
    ``fresh[i]`` lists one value per rate group, in first-seen order."""
    rows = Rows.__new__(Rows)
    rows.jobs = list(range(len(origin)))
    rows.origin = list(origin)
    rows.kind = [ALLOC_NONE if c < 0 else ALLOC_EDGE if c == 0 else ALLOC_CLOUD for c in current]
    rows.index = [c - 1 if c > 0 else o if c == 0 else -1 for o, c in zip(origin, current)]
    rows.cloud = [c - 1 if c > 0 else -1 for c in current]
    rows.rate = list(rates)
    rows.groups = {}
    for k, rate in enumerate(rates):
        rows.groups.setdefault(rate, []).append(k)
    rows.free = list(rows.groups.values())
    rows.edge_free = [True] * n_edge
    rows.cloud_free = [True] * len(rates)
    rows.edge, rows.stay = list(edge_values), list(stay)
    rows.fresh = [[f[q] for f in fresh] for q in range(len(rows.groups))]
    return rows


def _matrix(rows):
    """The rows as the ``live x (1 + n_cloud)`` matrix they compress."""
    group = {rate: q for q, rate in enumerate(rows.groups)}
    values = np.empty((len(rows.jobs), 1 + len(rows.rate)))
    for i in range(len(rows.jobs)):
        values[i, 0] = rows.edge[i]
        for k, rate in enumerate(rows.rate):
            own = rows.cloud[i] == k
            values[i, 1 + k] = rows.stay[i] if own else rows.fresh[group[rate]][i]
    return values


def _mask(values, current, mode):
    """The matrix masks of guarded Greedy, srpt-norestart and Cloud-Only."""
    current = np.asarray(current, dtype=np.int64)
    rows = np.nonzero(current >= 0)[0]
    cols = current[rows]
    stay = values[rows, cols]
    if mode == "guarded":
        worse = values[rows, :] >= stay[:, None]
        worse[np.arange(len(rows)), cols] = False
        values[rows, :] = np.where(worse, INF, values[rows, :])
    elif mode == "norestart":
        values[rows, :] = INF
        values[rows, cols] = stay
    elif mode == "cloud-only":
        values[:, 0] = INF


_MASKS = {
    "guarded": _forbid_moves_not_better,
    "norestart": _pin_started,
    "cloud-only": lambda rows: setattr(rows, "edge", [INF] * len(rows.edge)),
}


class TestRowsClaim:
    @pytest.mark.parametrize("highest_first", [False, True])
    def test_ties_go_to_first_row_and_lowest_column(self, highest_first):
        # Cloud 0 is alone in its group; clouds 1 and 2 share a rate.
        rows = _rows([0, 0], [-1, -1], [2.0, 2.0], [INF, INF],
                     [[1.0, 1.0], [1.0, 1.0]], [2.0, 1.0, 1.0], 1)
        assert rows.claim(highest_first=highest_first) == [(0, 1), (1, 2)]

    def test_edge_wins_a_tie_with_every_cloud(self):
        rows = _rows([0, 1], [-1, -1], [3.0, 3.0], [INF, INF],
                     [[3.0], [3.0]], [1.0, 1.0], 2)
        assert rows.claim() == [(0, 0), (1, 0)]

    def test_group_offers_its_lowest_cloud_but_the_rows_own(self):
        # Row 0 stays on cloud 0 at 5; a restart on cloud 1 costs 1.
        rows = _rows([0], [1], [9.0], [5.0], [[1.0]], [1.0, 1.0], 1)
        assert rows.claim() == [(0, 2)]
        # Down to the row's own cloud, the group offers nothing.
        rows = _rows([0, 0], [-1, 2], [9.0, 9.0], [INF, 5.0],
                     [[1.0], [1.0]], [1.0, 1.0], 1)
        assert rows.claim() == [(0, 1), (1, 2)]

    def test_cloud_claim_rekeys_the_rows_staying_on_it(self):
        # Row 0 takes cloud 0, where row 1 stays at 2; row 1's best
        # becomes a restart at 3, behind row 2's 2.5 on the last cloud.
        rows = _rows([0, 0, 0], [-1, 1, -1], [INF] * 3, [INF, 2.0, INF],
                     [[1.0], [3.0], [2.5]], [1.0, 1.0], 1)
        assert rows.claim() == [(0, 1), (2, 2)]

    @pytest.mark.parametrize("highest_first", [False, True])
    def test_rows_of_a_claimed_edge_lose_only_that_edge(self, highest_first):
        rows = _rows([0, 0, 1], [-1] * 3, [1.0, 1.0, 2.0], [INF] * 3,
                     [[9.0]] * 3, [1.0], 2)
        # Row 1 loses edge 0 to row 0 and falls back to the cloud.
        expected = [(2, 0), (0, 0), (1, 1)] if highest_first else [(0, 0), (2, 0), (1, 1)]
        assert rows.claim(highest_first=highest_first) == expected

    def test_no_rows_and_no_clouds(self):
        assert _rows([], [], [], [], [], [1.0], 1).claim() == []
        rows = _rows([0, 0, 1], [-1] * 3, [3.0, 1.0, 2.0], [INF] * 3, [[]] * 3, [], 2)
        assert rows.claim() == [(1, 0), (2, 0)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", ["srpt", "greedy", "guarded", "norestart", "cloud-only"])
    def test_matches_full_matrix_mask_loop(self, seed, mode):
        """Small integer values make ties common; interleaved rate
        groups, shared current clouds and ``inf`` entries exercise the
        candidates and the re-keying rules under every policy mask."""
        rng = np.random.default_rng(seed)
        highest_first = mode in ("greedy", "guarded")

        def draw(size):
            values = rng.integers(1, 5, size=size).astype(float)
            values[rng.random(size) < 0.2] = INF
            return values.tolist()

        for _ in range(250):
            n_rows = int(rng.integers(0, 12))
            n_edge = int(rng.integers(1, 4))
            n_cloud = int(rng.integers(0, 6))
            rates = rng.choice([1.0, 2.0, 3.0], size=n_cloud).tolist()
            origin = rng.integers(0, n_edge, size=n_rows).tolist()
            current = rng.integers(-1, 1 + n_cloud, size=n_rows).tolist()
            ints = rng.integers(1, 5, size=n_rows).astype(float).tolist()
            edge_values = [v if c == 0 else e for c, v, e in zip(current, ints, draw(n_rows))]
            stay = [v if c > 0 else INF for c, v in zip(current, ints)]
            fresh = [draw(len(set(rates))) for _ in range(n_rows)]
            rows = _rows(origin, current, edge_values, stay, fresh, rates, n_edge)
            values = _matrix(rows)
            _mask(values, current, mode)
            if mode in _MASKS:
                _MASKS[mode](rows)
            expected = _reference_claims(values, np.array(origin, dtype=np.int64),
                                         n_edge, highest_first)
            assert rows.claim(highest_first=highest_first) == expected


class TestRowsDecision:
    def test_unstarted_jobs_parked_on_origin(self, view):
        v, _ = view
        assert [(a.job, str(a.resource)) for a in Rows(v).decision([])] == [
            (0, "edge[0]"),
            (1, "edge[1]"),
        ]

    def test_claims_lead_and_started_jobs_keep_allocation(self, view):
        v, state = view
        state.assign(0, cloud(0))
        d = Rows(v).decision([(1, 2)])
        assert [(a.job, str(a.resource)) for a in d] == [(1, "cloud[1]"), (0, "cloud[0]")]
        d = Rows(v).decision([(1, 0)])
        assert [(a.job, str(a.resource)) for a in d] == [(1, "edge[1]"), (0, "cloud[0]")]

    def test_done_jobs_excluded(self, view):
        v, state = view
        state.finish(0, 1.0)
        assert [a.job for a in Rows(v).decision([])] == [1]

    def test_cloud_only_tail_keeps_only_jobs_on_a_cloud(self, view):
        v, state = view
        state.assign(1, cloud(1))
        d = Rows(v).decision([], cloud_only=True)
        assert [(a.job, str(a.resource)) for a in d] == [(1, "cloud[1]")]
        assert len(Rows(v).decision([(1, 2)], cloud_only=True)) == 1
