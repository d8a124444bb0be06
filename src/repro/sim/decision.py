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

Storage is columnar: a decision holds three parallel plain lists (job,
kind, index) rather than per-assignment objects.  Schedulers append
entries one at a time (:meth:`Decision.add`) or in bulk
(:meth:`Decision.add_bulk`, which converts a NumPy column once with
``tolist()``), and the engine reads the lists themselves
(:meth:`Decision.as_lists`).  NumPy arrays (:meth:`Decision.as_arrays`)
and :class:`Assignment` objects (iteration, ``assignments``) are built
only on demand, for inspection, hooks and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import DecisionError
from repro.core.resources import Resource, ResourceKind, cloud, edge
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE


@dataclass(frozen=True)
class Assignment:
    """One prioritized placement of a job on a resource."""

    job: int
    resource: Resource


class Decision:
    """An ordered list of assignments (earlier = higher priority)."""

    __slots__ = ("_jobs", "_kinds", "_indices", "provenance")

    def __init__(self, assignments: Iterable[Assignment] | None = None):
        self._jobs: list[int] = []
        self._kinds: list[int] = []
        self._indices: list[int] = []
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
        self._jobs.append(int(job))
        self._kinds.append(ALLOC_EDGE if resource.kind is ResourceKind.EDGE else ALLOC_CLOUD)
        self._indices.append(int(resource.index))

    def add_bulk(
        self,
        jobs: np.ndarray | Sequence[int],
        kinds: np.ndarray | Sequence[int],
        indices: np.ndarray | Sequence[int],
    ) -> None:
        """Append many assignments at once, preserving their order.

        ``kinds`` uses the :mod:`repro.sim.state` allocation codes
        (``ALLOC_EDGE`` / ``ALLOC_CLOUD``).  A NumPy column is converted
        once with ``tolist()``; any other sequence must hold Python ints
        and is appended as it is.
        """
        for column, values in ((self._jobs, jobs), (self._kinds, kinds), (self._indices, indices)):
            column.extend(values.tolist() if isinstance(values, np.ndarray) else values)

    def as_lists(self) -> tuple[list[int], list[int], list[int]]:
        """The decision's own ``(jobs, kinds, indices)`` lists; callers
        must not modify them."""
        return self._jobs, self._kinds, self._indices

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The decision as new parallel ``(jobs, kinds, indices)`` arrays
        (int64, int8, int64); ``kinds`` holds the allocation codes of
        :mod:`repro.sim.state`."""
        return (
            np.array(self._jobs, dtype=np.int64),
            np.array(self._kinds, dtype=np.int8),
            np.array(self._indices, dtype=np.int64),
        )

    @property
    def assignments(self) -> list[Assignment]:
        """The decision as :class:`Assignment` objects (materialized on demand)."""
        return list(self)

    def check_well_formed(self) -> None:
        """Raise :class:`DecisionError` on duplicate jobs."""
        seen: set[int] = set()
        for j in self._jobs:
            if j in seen:
                raise DecisionError(f"job {j} assigned twice in one decision")
            seen.add(j)

    def __iter__(self) -> Iterator[Assignment]:
        for j, k, i in zip(self._jobs, self._kinds, self._indices):
            yield Assignment(j, edge(i) if k == ALLOC_EDGE else cloud(i))

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decision):
            return NotImplemented
        return self.as_lists() == other.as_lists()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Decision({self.assignments!r})"
