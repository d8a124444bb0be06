"""Scheduler base class and shared placement helpers.

All heuristics of Section V share two ingredients:

* a *claim loop* for one decision round — each processor is claimed by
  at most one live job, job by job in the heuristic's priority order
  (:func:`claim_columns`; FCFS keeps its own fixed release-order pass);
* a *work-conserving tail* — jobs that did not win a slot are appended
  at lower priority on their current (or origin-edge) resource, so that
  in-flight communications keep flowing whenever their ports are free
  and the engine never deadlocks (:func:`append_leftovers`).
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from repro.core.resources import Resource, cloud, edge
from repro.sim.decision import Decision
from repro.sim.events import Event, EventKind
from repro.sim.state import ALLOC_EDGE, ALLOC_NONE
from repro.sim.view import SimulationView


class BaseScheduler(abc.ABC):
    """Common base: naming and a no-op ``start`` hook."""

    #: Human-readable policy name (used in results and experiment tables).
    name: str = "base"

    def start(self, view: SimulationView) -> None:
        """Called once before the first decision; default: nothing."""

    @abc.abstractmethod
    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        """Return the prioritized assignments for the next period."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


#: Relative tie-break bonus for staying on the current resource: avoids
#: restarting a job from scratch when an equivalent fresh resource ties.
_STAY_BONUS = 1e-9


def prefer_current(
    view: SimulationView, live: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scale the current-resource entry of each started job's row of
    ``values`` by ``1 - _STAY_BONUS``, in place; return those rows and
    their current columns."""
    current = view.current_columns(live)
    rows = np.nonzero(current >= 0)[0]
    cols = current[rows]
    values[rows, cols] *= 1.0 - _STAY_BONUS
    return rows, cols


def claim_columns(
    values: np.ndarray,
    origins: np.ndarray,
    score: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[tuple[int, int]]:
    """Claim one free processor per round until no row has a finite one.

    ``values`` has the columns of :meth:`SimulationView.durations_matrix`
    (column 0 is the edge unit ``origins[row]``); ``inf`` forbids a
    column, and the matrix is overwritten.  Each round the row
    minimizing ``score(best)`` (``best``, each row's cheapest free
    value, by default) takes its cheapest free column, which closes for
    every row, or only for rows of that origin if it is column 0.  Ties
    go to the first row and the lowest column.  Returns the ``(row,
    column)`` claims in order.
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
    """Append every live job missing from ``decision`` at lowest priority.

    Each leftover keeps its current allocation (so partially transferred
    or computed jobs can keep moving when ports/processors are idle); a
    job never started is parked on its origin edge unit.  The tail is
    appended in one vectorized :meth:`~repro.sim.decision.Decision.add_bulk`
    call, in ascending job order (as the historical scalar loop did).
    """
    live = view.live_jobs()
    taken = np.zeros(view.instance.n_jobs, dtype=bool)
    taken[decision.jobs_array()] = True
    rest = live[~taken[live]]
    if rest.size == 0:
        return
    kind = view.alloc_kind[rest]
    never = kind == ALLOC_NONE
    kinds = np.where(never, ALLOC_EDGE, kind).astype(np.int8)
    indices = np.where(never, view.instance.origin[rest], view.alloc_index[rest])
    decision.add_bulk(rest, kinds, indices)


def has_release(events: Sequence[Event]) -> bool:
    """True when the event batch contains at least one job release."""
    return any(e.kind is EventKind.RELEASE for e in events)


def resource_from_column(view: SimulationView, i: int, column: int) -> Resource:
    """Map a :meth:`SimulationView.durations_matrix` column to a resource.

    Column 0 is the job's origin edge unit; column ``1 + k`` is cloud
    processor ``k``.
    """
    if column == 0:
        return edge(view.instance.jobs[i].origin)
    return cloud(column - 1)
