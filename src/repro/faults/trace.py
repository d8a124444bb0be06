"""Deterministic fault traces: unplanned crashes and link outages.

Where :class:`repro.sim.availability.CloudAvailability` models *planned*
co-tenancy (§VII: cloud compute cycles stolen, network untouched), a
:class:`FaultTrace` models *unplanned* failures:

* **edge crashes** — edge unit ``j`` is dead during each interval of
  ``edge_down[j]``: its compute slot and both communication ports are
  unusable, and any attempt allocated to it (plus any in-flight
  transfer of a job originating at ``j``) is aborted, its progress
  lost;
* **cloud crashes** — cloud processor ``k`` is dead during
  ``cloud_down[k]``: compute and ports unusable, and every attempt
  allocated to ``k`` is aborted regardless of phase (data staged on
  the processor is lost with it);
* **link outages** — the access link of edge unit ``o`` is down during
  ``link_down[o]``: only the unit's send/receive ports are unusable.
  In-flight up/downlinks of jobs originating at ``o`` are aborted;
  a job computing on the cloud keeps its attempt and simply waits for
  the link to return before its downlink can start.

Recovery is the model's own re-execution rule: an aborted job goes back
to pending and the scheduler re-decides at the fault boundary — exactly
what a re-assignment to a different resource already does, so faults
add no new mechanism to the model, only new *events*.

The trace is immutable and queried by absolute simulation time, so the
same trace replayed against the same instance and scheduler gives
byte-identical results in any process (serial or pool worker).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.core.errors import ModelError
from repro.core.intervals import Interval

#: Fault domains, in the deterministic processing order used at a
#: simultaneous boundary.
DOMAIN_EDGE = "edge"
DOMAIN_CLOUD = "cloud"
DOMAIN_LINK = "link"

_DOMAINS = (DOMAIN_EDGE, DOMAIN_CLOUD, DOMAIN_LINK)


@dataclass(frozen=True)
class FaultTransition:
    """One resource going down or coming back up at a boundary."""

    domain: str  # DOMAIN_EDGE | DOMAIN_CLOUD | DOMAIN_LINK
    index: int
    goes_down: bool


@dataclass(frozen=True)
class RenewalRates:
    """MTBF/MTTR of one resource class of a renewal fault model."""

    mtbf: float
    mttr: float

    def __post_init__(self) -> None:
        if not self.mtbf > 0:
            raise ModelError(f"mtbf must be positive, got {self.mtbf}")
        if not self.mttr > 0:
            raise ModelError(f"mttr must be positive, got {self.mttr}")

    @property
    def availability(self) -> float:
        """Steady-state available fraction, ``mtbf / (mtbf + mttr)``."""
        return self.mtbf / (self.mtbf + self.mttr)


@dataclass(frozen=True)
class FaultRates:
    """The model parameters a generated trace was drawn from.

    Optional metadata attached to a :class:`FaultTrace` by the seeded
    generators (:mod:`repro.faults.model`).  Failure-aware schedulers
    discount capacity from these *parameters* — never from the trace's
    future boundaries, which would be clairvoyant.  A ``None`` class
    never fails.
    """

    edge: RenewalRates | None = None
    cloud: RenewalRates | None = None
    link: RenewalRates | None = None


def _check_windows(label: str, windows: Mapping[int, tuple[Interval, ...]]) -> None:
    for idx, ivs in windows.items():
        if idx < 0:
            raise ModelError(f"{label} index must be non-negative, got {idx}")
        if not ivs:
            raise ModelError(f"{label}[{idx}] has an empty interval tuple; omit the key")
        for a, b in zip(ivs, ivs[1:]):
            if b.start < a.end:
                raise ModelError(
                    f"down intervals of {label}[{idx}] must be sorted and disjoint: "
                    f"{a} then {b}"
                )


@dataclass(frozen=True)
class FaultTrace:
    """Per-resource crash/outage intervals, queried by absolute time.

    ``edge_down[j]`` / ``cloud_down[k]`` / ``link_down[o]`` are sorted
    tuples of disjoint half-open :class:`Interval`\\ s during which the
    resource is down.  Resources without an entry never fail.  The
    trace is validated at construction and immutable afterwards.
    """

    edge_down: Mapping[int, tuple[Interval, ...]] = field(default_factory=dict)
    cloud_down: Mapping[int, tuple[Interval, ...]] = field(default_factory=dict)
    link_down: Mapping[int, tuple[Interval, ...]] = field(default_factory=dict)
    #: Model parameters behind the trace (seeded generators attach them);
    #: None for hand-built traces.  Not part of the trace's identity.
    rates: FaultRates | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        mappings = (self.edge_down, self.cloud_down, self.link_down)
        for label, mapping in zip(_DOMAINS, mappings):
            _check_windows(label, mapping)
        # The transition table: one row ``(time, goes_up, domain_rank,
        # index)`` per interval start and one per interval end, sorted
        # once.  Plain tuple order is the processing order at a
        # simultaneous boundary — downs before ups, then edge, cloud,
        # link, then index — so abort processing and event emission are
        # deterministic.
        rows = [
            (iv.start, False, d, idx)
            for d, mapping in enumerate(mappings)
            for idx, ivs in mapping.items()
            for iv in ivs
        ]
        rows += [
            (iv.end, True, d, idx)
            for d, mapping in enumerate(mappings)
            for idx, ivs in mapping.items()
            for iv in ivs
        ]
        rows.sort()
        # Distinct boundary times, and the offset of each one's first
        # row; ``offsets[k]`` is the number of rows at or before any
        # instant whose interval key is ``k``.
        boundaries: list[float] = []
        offsets: list[int] = []
        last = None
        for pos, row in enumerate(rows):
            if row[0] != last:
                last = row[0]
                boundaries.append(last)
                offsets.append(pos)
        offsets.append(len(rows))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_boundaries", boundaries)
        object.__setattr__(self, "_offsets", offsets)
        # Per-resource sorted interval-start lists and sorted index
        # lists: the point queries bisect plain float lists (no
        # per-probe key callable) and down_at skips re-sorting the
        # mappings on every query.
        object.__setattr__(
            self,
            "_starts",
            tuple({idx: [iv.start for iv in ivs] for idx, ivs in m.items()} for m in mappings),
        )
        object.__setattr__(self, "_sorted_idx", tuple(sorted(m) for m in mappings))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultTrace":
        """A trace with no faults at all (the paper's base model)."""
        return cls({}, {}, {})

    # -- queries ---------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the trace contains no fault interval of any kind."""
        return not self._boundaries

    @property
    def n_boundaries(self) -> int:
        """Number of distinct fault boundary instants."""
        return len(self._boundaries)

    def _down_fast(self, d: int, idx: int, t: float) -> bool:
        """Down-state probe on the precomputed start lists (d: domain rank)."""
        starts = self._starts[d].get(idx)
        if starts is None:
            return False
        pos = bisect_right(starts, t) - 1
        if pos < 0:
            return False
        mapping = (self.edge_down, self.cloud_down, self.link_down)[d]
        return mapping[idx][pos].contains_time(t)

    def edge_up(self, j: int, t: float) -> bool:
        """True when edge unit ``j`` is alive at time ``t``."""
        return not self._down_fast(0, j, t)

    def cloud_up(self, k: int, t: float) -> bool:
        """True when cloud processor ``k`` is alive at time ``t``."""
        return not self._down_fast(1, k, t)

    def link_up(self, o: int, t: float) -> bool:
        """True when the access link of edge unit ``o`` is up at ``t``."""
        return not self._down_fast(2, o, t)

    def next_boundary(self, t: float) -> float:
        """Earliest fault boundary strictly after ``t`` (inf if none)."""
        b = self._boundaries
        pos = bisect_right(b, t)
        return b[pos] if pos < len(b) else float("inf")

    def interval_key(self, t: float) -> int:
        """Index of the constancy interval of ``t``.

        The trace's down-state is piecewise constant between boundaries,
        and down intervals are half-open, so :meth:`down_at` returns the
        same sets for any two instants with equal keys.  Consumers (the
        capacity outlook's delta cache, the engine's activation rounds)
        use key equality as the exact "nothing changed" predicate
        instead of re-deriving the down-state.
        """
        return bisect_right(self._boundaries, t)

    def transitions_at(self, boundary: float) -> tuple[FaultTransition, ...]:
        """The transitions at an exact boundary instant (may be empty)."""
        b = self._boundaries
        k = bisect_left(b, boundary)
        if k == len(b) or b[k] != boundary:
            return ()
        return tuple(
            FaultTransition(_DOMAINS[d], idx, not goes_up)
            for _, goes_up, d, idx in self._rows[self._offsets[k] : self._offsets[k + 1]]
        )

    def transition_rows(self, key0: int, key1: int) -> list[tuple[float, bool, int, int]]:
        """The table rows crossed going from interval key ``key0`` to ``key1``.

        Rows are ``(time, goes_up, domain_rank, index)``, the domain rank
        indexing ``(edge, cloud, link)``, in processing order, for every
        boundary ``b`` with ``key0 < interval_key(b) <= key1`` (none
        unless ``key0 < key1``).  Applied in order to the down-state of
        key ``key0`` they give the down-state of key ``key1``.  The list
        is a fresh copy.
        """
        offsets = self._offsets
        return self._rows[offsets[key0] : offsets[key1]]

    def down_at(self, t: float) -> tuple[list[int], list[int], list[int]]:
        """Indices of (edge units, cloud processors, links) down at ``t``.

        Each list is ascending; used by the engine to block the ledger
        at the start of an activation round.
        """
        ei, ci, li = self._sorted_idx
        edges = [j for j in ei if self._down_fast(0, j, t)]
        clouds = [k for k in ci if self._down_fast(1, k, t)]
        links = [o for o in li if self._down_fast(2, o, t)]
        return edges, clouds, links

    def iter_down_intervals(self) -> Iterator[tuple[str, int, Interval]]:
        """Yield every (domain, index, interval) of the trace."""
        for domain, mapping in zip(_DOMAINS, (self.edge_down, self.cloud_down, self.link_down)):
            for idx in sorted(mapping):
                for iv in mapping[idx]:
                    yield domain, idx, iv
