"""Reference NumPy matrix path of the matrix heuristics (test-only).

Before the schedulers decided on plain rows, FCFS, Greedy, SRPT and
Cloud-Only each built a ``(live jobs) x (1 + n_cloud)`` matrix of
estimates (column 0 the origin edge unit, column ``1 + k`` cloud ``k``),
scaled each started job's current entry by ``1 - _STAY_BONUS``, masked
it, ran a claim loop over it and appended the leftover tail.  This
module keeps that path verbatim so the stepwise differential test
(``test_rows_differential.py``) can check, at every engine step, that
the row-based ``decide`` of each policy returns the same decision.  The
view's per-job state is a set of plain lists; :func:`state_arrays`
turns the ones this path reads into the NumPy arrays it was written
for.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.resources import Resource, cloud, edge
from repro.schedulers.base import _STAY_BONUS
from repro.schedulers.cloud_only import CloudOnlyScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.greedy import GreedyScheduler
from repro.schedulers.srpt import SrptScheduler
from repro.sim.decision import Decision
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE
from repro.sim.view import SimulationView


def state_arrays(view: SimulationView, *names: str) -> list[np.ndarray]:
    """The view's per-job state lists ``names`` (e.g. ``"alloc_kind"``)
    as NumPy arrays, for fancy indexing."""
    return [np.asarray(getattr(view, name)) for name in names]


def durations_matrix(
    view: SimulationView, jobs: np.ndarray, *, discounted: bool = False
) -> np.ndarray:
    """Durations of shape ``(len(jobs), 1 + n_cloud)``: column 0 on the
    origin edge unit, column ``1 + k`` on cloud ``k``; progress counts
    only on a job's current cloud."""
    inst = view.instance
    n_cloud = view.platform.n_cloud
    out = np.empty((len(jobs), 1 + n_cloud))
    out[:, 0] = view.durations_edge(jobs, discounted=discounted)
    if n_cloud:
        speeds = view.capacity_outlook(discounted=discounted).cloud_rates()
        cloud_cols = out[:, 1:]
        np.divide(inst.work[jobs][:, None], speeds[None, :], out=cloud_cols)
        cloud_cols += inst.up[jobs][:, None]
        cloud_cols += inst.dn[jobs][:, None]
        alloc_kind, alloc_index, rem_up, rem_work, rem_dn = state_arrays(
            view, "alloc_kind", "alloc_index", "rem_up", "rem_work", "rem_dn"
        )
        on_cloud = np.nonzero(alloc_kind[jobs] == ALLOC_CLOUD)[0]
        if on_cloud.size:
            ids = jobs[on_cloud]
            ks = alloc_index[ids]
            out[on_cloud, 1 + ks] = rem_up[ids] + rem_work[ids] / speeds[ks] + rem_dn[ids]
    return out


def stretch_matrix(
    view: SimulationView, jobs: np.ndarray, *, discounted: bool = False
) -> np.ndarray:
    """Estimated stretches, same shape and columns as :func:`durations_matrix`."""
    inst = view.instance
    durations = durations_matrix(view, jobs, discounted=discounted)
    durations += view.now
    durations -= inst.release[jobs][:, None]
    durations /= inst.min_time[jobs][:, None]
    return durations


def current_columns(view: SimulationView, jobs: np.ndarray) -> np.ndarray:
    """Column of each job's current allocation.

    0 for the origin edge unit, ``1 + k`` for cloud ``k``, and -1 for
    jobs that were never assigned.
    """
    alloc_kind, alloc_index = state_arrays(view, "alloc_kind", "alloc_index")
    kind = alloc_kind[jobs]
    index = alloc_index[jobs]
    cols = np.full(len(jobs), -1, dtype=np.int64)
    cols[kind == ALLOC_EDGE] = 0
    on_cloud = kind == ALLOC_CLOUD
    cols[on_cloud] = 1 + index[on_cloud]
    return cols


def prefer_current(
    view: SimulationView, live: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scale each started job's current entry by ``1 - _STAY_BONUS`` in
    place; return those rows and their current columns."""
    current = current_columns(view, live)
    rows = np.nonzero(current >= 0)[0]
    cols = current[rows]
    values[rows, cols] *= 1.0 - _STAY_BONUS
    return rows, cols


def _highest_first(best: np.ndarray) -> np.ndarray:
    """Claim score: the job with the highest best stretch goes first."""
    return np.where(best < np.inf, -best, np.inf)


def claim_columns(
    values: np.ndarray,
    origins: np.ndarray,
    score: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[tuple[int, int]]:
    """Claim one free processor per round until no row has a finite one.

    ``inf`` forbids a column, and the matrix is overwritten.  Each round
    the row minimizing ``score(best)`` takes its cheapest free column,
    which closes for every row, or only for rows of that origin if it is
    column 0.  Ties go to the first row and the lowest column.
    """
    n_rows = values.shape[0]
    claims: list[tuple[int, int]] = []
    if n_rows == 0:
        return claims
    col_of = values.argmin(axis=1)
    best = values[np.arange(n_rows), col_of]
    while True:
        row = int((best if score is None else score(best)).argmin())
        if not best[row] < np.inf:
            return claims
        col = int(col_of[row])
        claims.append((row, col))
        values[row] = np.inf
        if col == 0:
            same = origins == origins[row]
            values[same, 0] = np.inf
            stale = np.nonzero(same & (col_of == 0))[0]
        else:
            values[:, col] = np.inf
            stale = np.nonzero(col_of == col)[0]
        col_of[stale] = values[stale].argmin(axis=1)
        best[stale] = values[stale, col_of[stale]]


def append_leftovers(decision: Decision, view: SimulationView) -> None:
    """Append every live job missing from ``decision`` at lowest
    priority, in ascending job order: a started job on its current
    resource, a job never started on its origin edge unit."""
    live = view.live_jobs()
    taken = np.zeros(view.instance.n_jobs, dtype=bool)
    taken[decision.as_arrays()[0]] = True
    rest = live[~taken[live]]
    if rest.size == 0:
        return
    alloc_kind, alloc_index = state_arrays(view, "alloc_kind", "alloc_index")
    kind = alloc_kind[rest]
    never = kind == ALLOC_NONE
    kinds = np.where(never, ALLOC_EDGE, kind).astype(np.int8)
    indices = np.where(never, view.instance.origin[rest], alloc_index[rest])
    decision.add_bulk(rest, kinds, indices)


def resource_from_column(view: SimulationView, i: int, column: int) -> Resource:
    """Column 0 is job ``i``'s origin edge unit; column ``1 + k`` is cloud ``k``."""
    if column == 0:
        return edge(view.instance.jobs[i].origin)
    return cloud(column - 1)


def _fcfs(s: FcfsScheduler, view: SimulationView) -> Decision:
    decision = Decision()
    live = view.live_jobs()
    if live.size == 0:
        return decision
    durations = durations_matrix(view, live, discounted=s.failure_aware)
    prefer_current(view, live, durations)
    values = durations.tolist()
    origins = view.instance.origin[live].tolist()
    jobs = live.tolist()
    edge_free = [True] * view.platform.n_edge
    cloud_free = list(range(1, durations.shape[1]))
    for row in np.lexsort((live, view.instance.release[live])).tolist():
        origin = origins[row]
        free = [0] + cloud_free if edge_free[origin] else cloud_free
        if not free:
            continue
        col = min(free, key=values[row].__getitem__)
        if col:
            cloud_free.remove(col)
            decision.add(jobs[row], cloud(col - 1))
        else:
            edge_free[origin] = False
            decision.add(jobs[row], edge(origin))
    append_leftovers(decision, view)
    return decision


def _greedy(s: GreedyScheduler, view: SimulationView) -> Decision:
    decision = Decision()
    live = view.live_jobs()
    if live.size == 0:
        return decision
    stretches = stretch_matrix(view, live, discounted=s.failure_aware)
    rows, cols = prefer_current(view, live, stretches)
    if s.guarded:
        best_case_stay = stretches[rows, cols]
        worse = stretches[rows, :] >= best_case_stay[:, None]
        worse[np.arange(len(rows)), cols] = False
        stretches[rows, :] = np.where(worse, np.inf, stretches[rows, :])
    origins = view.instance.origin[live]
    for row, col in claim_columns(stretches, origins, _highest_first):
        job = int(live[row])
        decision.add(job, resource_from_column(view, job, col))
    append_leftovers(decision, view)
    return decision


def _srpt(s: SrptScheduler, view: SimulationView) -> Decision:
    decision = Decision()
    live = view.live_jobs()
    if live.size == 0:
        return decision
    durations = durations_matrix(view, live, discounted=s.failure_aware)
    rows, cols = prefer_current(view, live, durations)
    if not s.allow_restart:
        stay = durations[rows, cols]
        durations[rows, :] = np.inf
        durations[rows, cols] = stay
    origins = view.instance.origin[live]
    for row, col in claim_columns(durations, origins):
        job = int(live[row])
        decision.add(job, resource_from_column(view, job, col))
    append_leftovers(decision, view)
    return decision


def _cloud_only(s: CloudOnlyScheduler, view: SimulationView) -> Decision:
    decision = Decision()
    live = view.live_jobs()
    if live.size == 0:
        return decision
    durations = durations_matrix(view, live)
    prefer_current(view, live, durations)
    durations[:, 0] = np.inf
    taken = np.zeros(live.size, dtype=bool)
    for row, col in claim_columns(durations, view.instance.origin[live]):
        decision.add(int(live[row]), cloud(col - 1))
        taken[row] = True
    alloc_kind, alloc_index = state_arrays(view, "alloc_kind", "alloc_index")
    rest = live[~taken & (alloc_kind[live] == ALLOC_CLOUD)]
    if rest.size:
        decision.add_bulk(
            rest,
            np.full(rest.size, ALLOC_CLOUD, dtype=np.int8),
            alloc_index[rest],
        )
    return decision


_REFERENCE = {
    FcfsScheduler: _fcfs,
    GreedyScheduler: _greedy,
    SrptScheduler: _srpt,
    CloudOnlyScheduler: _cloud_only,
}


def reference_decide(scheduler, view: SimulationView) -> Decision:
    """The matrix-path decision of ``scheduler`` (one of the four matrix
    heuristics, read for its flags) on ``view``."""
    return _REFERENCE[type(scheduler)](scheduler, view)
