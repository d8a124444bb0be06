"""The scheduler → engine contract.

At every event the engine asks the scheduler for a :class:`Decision`:
an *ordered* list of ``(job, resource)`` assignments.  The order encodes
priority — the engine activates jobs first-listed-first, so when two
jobs need the same processor or the same communication port, the earlier
one gets it and the later one waits until the next event.

Semantics of an assignment:

* assigning a job to its current resource continues it (progress kept);
* assigning it to a different resource triggers a re-execution from
  scratch (progress lost; the model forbids migration);
* a live job *not listed* in the decision keeps its allocation and
  progress but is suspended (preempted) until a later decision lists it.

Storage is columnar: a decision holds parallel (job, kind, index)
columns rather than per-assignment objects, because the engine consumes
decisions as NumPy arrays (:meth:`Decision.as_arrays`) and schedulers
append the work-conserving tail of a decision in one vectorized call
(:meth:`Decision.add_bulk`).  :class:`Assignment` objects are
materialized only on demand (iteration, ``assignments``) for
inspection and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import DecisionError
from repro.core.resources import Resource, ResourceKind, cloud, edge
from repro.sim.state import ALLOC_EDGE


@dataclass(frozen=True)
class Assignment:
    """One prioritized placement of a job on a resource."""

    job: int
    resource: Resource


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I8 = np.empty(0, dtype=np.int8)


class Decision:
    """An ordered list of assignments (earlier = higher priority)."""

    __slots__ = (
        "_jobs",
        "_kinds",
        "_indices",
        "_segments",
        "_length",
        "_arrays",
        "provenance",
    )

    def __init__(self, assignments: Iterable[Assignment] | None = None):
        #: Scalar-append staging columns (flushed into ``_segments``).
        self._jobs: list[int] = []
        self._kinds: list[int] = []
        self._indices: list[int] = []
        #: Flushed columnar pieces, each ``(jobs, kinds, indices)`` arrays.
        self._segments: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._length = 0
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Optional structured explanation attached by the scheduler when
        #: provenance-collecting hooks are registered (duck-typed: any
        #: object with ``to_dict()``); None on ordinary runs.
        self.provenance = None
        if assignments:
            for a in assignments:
                self.add(a.job, a.resource)

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, Resource]]) -> "Decision":
        """Build a decision from ``(job, resource)`` pairs."""
        d = cls()
        for j, r in pairs:
            d.add(j, r)
        return d

    def add(self, job: int, resource: Resource) -> None:
        """Append an assignment with the lowest priority so far."""
        self._jobs.append(job)
        self._kinds.append(0 if resource.kind is ResourceKind.EDGE else 1)
        self._indices.append(resource.index)
        self._length += 1
        self._arrays = None

    def add_bulk(
        self,
        jobs: np.ndarray | Sequence[int],
        kinds: np.ndarray | Sequence[int],
        indices: np.ndarray | Sequence[int],
    ) -> None:
        """Append many assignments at once, preserving their order.

        ``kinds`` uses the :mod:`repro.sim.state` allocation codes
        (``ALLOC_EDGE`` / ``ALLOC_CLOUD``).  This is the vectorized
        counterpart of repeated :meth:`add` calls — schedulers use it
        for the work-conserving leftover tail.
        """
        jobs = np.asarray(jobs, dtype=np.int64)
        if jobs.size == 0:
            return
        self._flush_pending()
        self._segments.append(
            (
                jobs,
                np.asarray(kinds, dtype=np.int8),
                np.asarray(indices, dtype=np.int64),
            )
        )
        self._length += jobs.size
        self._arrays = None

    def _flush_pending(self) -> None:
        """Move the scalar-append staging columns into a segment."""
        if self._jobs:
            self._segments.append(
                (
                    np.array(self._jobs, dtype=np.int64),
                    np.array(self._kinds, dtype=np.int8),
                    np.array(self._indices, dtype=np.int64),
                )
            )
            self._jobs, self._kinds, self._indices = [], [], []

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The decision as parallel ``(jobs, kinds, indices)`` arrays.

        ``kinds`` holds the allocation codes of :mod:`repro.sim.state`.
        The arrays are cached until the next mutation; callers must not
        modify them.
        """
        if self._arrays is None:
            self._flush_pending()
            segs = self._segments
            if not segs:
                self._arrays = (_EMPTY_I64, _EMPTY_I8, _EMPTY_I64)
            elif len(segs) == 1:
                self._arrays = segs[0]
            else:
                self._arrays = (
                    np.concatenate([s[0] for s in segs]),
                    np.concatenate([s[1] for s in segs]),
                    np.concatenate([s[2] for s in segs]),
                )
        return self._arrays

    @property
    def assignments(self) -> list[Assignment]:
        """The decision as :class:`Assignment` objects (materialized on demand)."""
        return list(self)

    def check_well_formed(self) -> None:
        """Raise :class:`DecisionError` on duplicate jobs."""
        jobs = self.as_arrays()[0]
        if not jobs.size:
            return
        if jobs.size > 256:
            if np.unique(jobs).size == jobs.size:
                return
        seen: set[int] = set()
        for j in jobs.tolist():
            if j in seen:
                raise DecisionError(f"job {j} assigned twice in one decision")
            seen.add(j)

    def __iter__(self) -> Iterator[Assignment]:
        jobs, kinds, indices = self.as_arrays()
        for j, k, i in zip(jobs.tolist(), kinds.tolist(), indices.tolist()):
            yield Assignment(j, edge(i) if k == ALLOC_EDGE else cloud(i))

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decision):
            return NotImplemented
        a = self.as_arrays()
        b = other.as_arrays()
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Decision({self.assignments!r})"
