"""Scheduler base class and the rows the matrix heuristics decide on.

FCFS, Greedy, SRPT and Cloud-Only (Section V) price every live job on
every processor it could start on now.  Clouds of bitwise-equal rate
are interchangeable for a job that restarts, so a :class:`Rows` row
holds one value per cloud *rate group*, besides its origin-edge value
and, on a cloud, the value of staying there.  Each decision then claims
processors job by job in the heuristic's priority order
(:meth:`Rows.claim`; FCFS keeps its own release-order pass) and appends
a *work-conserving tail*: jobs that did not win a slot stay at lower
priority on their current (or origin-edge) resource, so in-flight
communications keep flowing whenever their ports are free and the
engine never deadlocks (:meth:`Rows.decision`).
"""

from __future__ import annotations

import abc
from heapq import heapify, heappop, heappush
from typing import Sequence

from repro.sim.decision import Decision
from repro.sim.events import Event, EventKind
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE, ALLOC_NONE
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
_STAY = 1.0 - _STAY_BONUS

INF = float("inf")


class Rows:
    """One decision's estimates: one row per live job, in job order.

    Columns name processors: 0 is a row's origin edge unit, ``1 + k``
    cloud ``k``.  Row ``i`` holds ``edge[i]`` (its origin edge),
    ``stay[i]`` (its current cloud ``cloud[i]``; ``inf`` and -1 off
    the cloud) and ``fresh[q][i]`` (a restart on any cloud of rate
    group ``q``): durations, or with ``stretch`` estimated stretches.
    Each value equals bitwise the view's scalar estimate
    (:meth:`SimulationView.duration_on`, :meth:`~SimulationView.stretch_est`)
    for that resource, scaled by ``1 - _STAY_BONUS`` on the current one.
    Policies forbid a value by setting it to ``inf``.
    """

    def __init__(
        self, view: SimulationView, *, discounted: bool = False, stretch: bool = False
    ):
        inst = view.instance
        outlook = view.capacity_outlook(discounted=discounted)
        self.live = live = view.live_jobs()
        self.jobs = jobs = live.tolist()
        self.origin = origin = inst.origin[live].tolist()
        alloc_kind, alloc_index = view.alloc_kind, view.alloc_index
        self.kind = kind = [alloc_kind[j] for j in jobs]
        self.index = index = [alloc_index[j] for j in jobs]
        self.rate = rates = outlook.cloud_rates().tolist()
        #: Free clouds of each rate group, ascending, keyed by the rate.
        self.groups = {r: [k for k, x in enumerate(rates) if x == r] for r in dict.fromkeys(rates)}
        self.free = list(self.groups.values())
        self.edge_free = [True] * view.platform.n_edge
        self.cloud_free = [True] * len(rates)

        edge_rates = outlook.edge_rates().tolist()
        work = inst.work[live].tolist()
        up, dn = inst.up[live].tolist(), inst.dn[live].tolist()
        r_up, r_work, r_dn = view.rem_up, view.rem_work, view.rem_dn
        edge = [
            (r_work[j] if kd == ALLOC_EDGE else w) / edge_rates[o]
            for j, o, kd, w in zip(jobs, origin, kind, work)
        ]
        stay = [
            r_up[j] + r_work[j] / rates[k] + r_dn[j] if kd == ALLOC_CLOUD else INF
            for j, kd, k in zip(jobs, kind, index)
        ]
        fresh = [[w / r + u + d for w, u, d in zip(work, up, dn)] for r in self.groups]
        if stretch:
            now = view.now
            release, min_time = inst.release[live].tolist(), inst.min_time[live].tolist()

            def estimate(values: list[float]) -> list[float]:
                return [(v + now - r) / m for v, r, m in zip(values, release, min_time)]

            edge, stay, fresh = estimate(edge), estimate(stay), [estimate(f) for f in fresh]
        self.edge = [e * _STAY if kd == ALLOC_EDGE else e for e, kd in zip(edge, kind)]
        self.stay = [c * _STAY for c in stay]
        self.cloud = [k if kd == ALLOC_CLOUD else -1 for kd, k in zip(kind, index)]
        self.fresh = fresh

    def best(self, i: int) -> tuple[float, int]:
        """Row ``i``'s cheapest free ``(value, column)``, lowest column on
        ties; the value is ``inf`` when nothing it may use is free.

        A group offers its lowest free cloud other than the row's own:
        that one carries the row's progress and offers itself.
        """
        value = self.edge[i] if self.edge_free[self.origin[i]] else INF
        col = 0
        k = self.cloud[i]
        if k >= 0 and self.stay[i] < value and self.cloud_free[k]:
            value, col = self.stay[i], k + 1
        for fresh, free in zip(self.fresh, self.free):
            v = fresh[i]
            if v <= value and free:
                own = free[0] == k
                if len(free) > own and (v < value or free[own] < col - 1):
                    value, col = v, free[own] + 1
        return value, col

    def take(self, i: int, col: int) -> list[int] | None:
        """Claim column ``col`` for row ``i``; return the claimed cloud's
        group (its still-free clouds), or None for an edge claim."""
        if col == 0:
            self.edge_free[self.origin[i]] = False
            return None
        self.cloud_free[col - 1] = False
        free = self.groups[self.rate[col - 1]]
        free.remove(col - 1)
        return free

    def claim(self, *, highest_first: bool = False) -> list[tuple[int, int]]:
        """Claim one free processor per round until no row has a finite
        value; return the ``(row, column)`` claims in order.

        Each round the row of lowest ``(score, row)`` takes its column
        from :meth:`best`; the score is the best value, negated with
        ``highest_first`` (Greedy).  Rows wait in a heap, stale entries
        skipped when popped, and a claim re-keys only the rows whose
        best it can change: an edge claim the rows of that origin, a
        cloud claim the rows staying on that cloud or on the group's
        last free one, and every row once the group runs out.
        """
        n = len(self.jobs)
        sign = -1.0 if highest_first else 1.0
        taken = [False] * n
        key = [sign * self.best(i)[0] for i in range(n)]
        heap = [(s, i) for i, s in enumerate(key) if abs(s) < INF]
        heapify(heap)
        by_origin: dict[int, list[int]] = {}
        by_cloud: dict[int, list[int]] = {}
        for i, (o, k) in enumerate(zip(self.origin, self.cloud)):
            by_origin.setdefault(o, []).append(i)
            by_cloud.setdefault(k, []).append(i)
        claims = []
        while heap:
            s, i = heappop(heap)
            if taken[i] or s != key[i]:
                continue
            col = self.best(i)[1]
            taken[i] = True
            claims.append((i, col))
            free = self.take(i, col)
            if free is None:
                stale = by_origin[self.origin[i]]
            elif not any(self.free):
                # No cloud is left: each row's best is its edge value or inf.
                edge = zip(self.edge, self.origin)
                key = [sign * (e if self.edge_free[o] else INF) for e, o in edge]
                heap = [(s, j) for j, s in enumerate(key) if abs(s) < INF and not taken[j]]
                heapify(heap)
                continue
            elif not free:
                stale = range(n)
            else:
                stale = by_cloud.get(col - 1, [])
                if len(free) == 1:
                    stale = stale + by_cloud.get(free[0], [])
            for j in stale:
                if not taken[j]:
                    s = sign * self.best(j)[0]
                    if s != key[j]:
                        key[j] = s
                        if abs(s) < INF:
                            heappush(heap, (s, j))
        return claims

    def decision(
        self, claims: list[tuple[int, int]], *, cloud_only: bool = False
    ) -> Decision:
        """The claims in order, then every other row in job order: a
        started job on its current resource, a job never started on its
        origin edge unit.  ``cloud_only`` keeps only the tail rows that
        are on a cloud."""
        jobs, kinds, indices = [], [], []
        claimed = [False] * len(self.jobs)
        for i, col in claims:
            claimed[i] = True
            jobs.append(self.jobs[i])
            kinds.append(ALLOC_CLOUD if col else ALLOC_EDGE)
            indices.append(col - 1 if col else self.origin[i])
        tail = zip(claimed, self.jobs, self.kind, self.index, self.origin)
        for done, job, kind, index, origin in tail:
            if done or (cloud_only and kind != ALLOC_CLOUD):
                continue
            jobs.append(job)
            kinds.append(ALLOC_EDGE if kind == ALLOC_NONE else kind)
            indices.append(origin if kind == ALLOC_NONE else index)
        decision = Decision()
        decision.add_bulk(jobs, kinds, indices)
        return decision


def has_release(events: Sequence[Event]) -> bool:
    """True when the event batch contains at least one job release."""
    return any(e.kind is EventKind.RELEASE for e in events)
