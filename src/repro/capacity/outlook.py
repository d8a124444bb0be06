"""The :class:`CapacityOutlook`: one answer to "what can resource k deliver?".

The outlook composes, per resource (edge unit, cloud processor, access
link), the three sources of capacity information a run has:

* **static windows** — planned cloud co-tenancy
  (:class:`~repro.sim.availability.CloudAvailability`): compute cycles
  gone for known intervals, ports untouched;
* **current health** — the fault trace's *present* state
  (:class:`~repro.faults.trace.FaultTrace`).  Only ``t == now`` is ever
  consulted; future fault boundaries are clairvoyant and never queried;
* an optional **expectation discount**
  (:class:`ExpectationDiscount`) derived from the MTBF/MTTR parameters
  the trace was drawn from
  (:class:`~repro.faults.trace.FaultRates`): steady-state availability
  scales effective rates, the memoryless expected remaining repair
  (MTTR) floors the earliest start of a currently-down resource, and
  the expected-rework integral prices restart-on-crash re-execution.

Undiscounted outlooks are *transparent by construction*: effective rates
are the platform speed arrays themselves (bit-identical — dividing by
them reproduces the exact IEEE-754 operations consumers performed before
this layer existed) and every earliest-start floor equals ``t``.  The
golden determinism suite pins that transparency end to end.

Consumers: :class:`~repro.sim.view.SimulationView` serves duration
estimates from outlook rates, the placement kernel
(:mod:`repro.schedulers.placement`) builds its rate tables and
reservation floors from it, and the engine blocks the
:class:`~repro.sim.ledger.ResourceLedger` from the outlook's composed
down-set at every activation round.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError
from repro.core.platform import Platform
from repro.faults.trace import DOMAIN_CLOUD, DOMAIN_EDGE, DOMAIN_LINK, FaultTrace
from repro.sim.availability import CloudAvailability

_INF = float("inf")


@dataclass(frozen=True)
class ExpectationDiscount:
    """Per-class expectation discounting derived from renewal parameters.

    ``*_availability`` is the steady-state available fraction
    ``mtbf / (mtbf + mttr)`` of the class (1.0 when the class never
    fails); ``*_mttr`` the expected remaining repair of a currently-down
    resource (memoryless exponential repair, so the expectation does not
    depend on how long the resource has been down); ``*_mtbf`` the mean
    up-time, the argument of :func:`expected_rework`.
    """

    edge_availability: float = 1.0
    cloud_availability: float = 1.0
    link_availability: float = 1.0
    edge_mttr: float = 0.0
    cloud_mttr: float = 0.0
    link_mttr: float = 0.0
    edge_mtbf: float = _INF
    cloud_mtbf: float = _INF
    link_mtbf: float = _INF

    @classmethod
    def from_rates(cls, rates) -> "ExpectationDiscount":
        """Build from a :class:`~repro.faults.trace.FaultRates` (or None)."""
        if rates is None:
            return cls()
        kw = {}
        for name, cl in (("edge", rates.edge), ("cloud", rates.cloud), ("link", rates.link)):
            if cl is not None:
                kw[f"{name}_availability"] = cl.availability
                kw[f"{name}_mttr"] = cl.mttr
                kw[f"{name}_mtbf"] = cl.mtbf
        return cls(**kw)


#: The identity discount (no fault model): rates and floors untouched.
NO_DISCOUNT = ExpectationDiscount()


def expected_rework(t: float, mtbf: float) -> float:
    """Expected wall time of a ``t``-long uninterrupted exposure.

    With failures arriving at rate ``1/mtbf`` and progress lost on each
    crash, the classic renewal argument gives
    ``E[T] = mtbf * (e^{t/mtbf} - 1)`` expected processing time:
    superlinear in ``t``, which is why long jobs should avoid
    failure-prone resources disproportionately, and ``t`` itself as
    ``mtbf → ∞``.  Repair time is not included (the availability factor
    already accounts for it in expectation).
    """
    if t <= 0.0 or mtbf == _INF:
        return t
    return mtbf * math.expm1(t / mtbf)


def _check_trace_fits(faults: FaultTrace, platform: Platform) -> None:
    """Reject a trace naming a resource ``platform`` does not have."""
    for domain, down, n, noun in (
        (DOMAIN_EDGE, faults.edge_down, platform.n_edge, "edge unit"),
        (DOMAIN_CLOUD, faults.cloud_down, platform.n_cloud, "cloud processor"),
        (DOMAIN_LINK, faults.link_down, platform.n_edge, "access link"),
    ):
        if down and max(down) >= n:
            raise ModelError(
                f"fault trace names {domain}[{max(down)}], but the platform has "
                f"{n} {noun}{'' if n == 1 else 's'}"
            )


class CapacityOutlook:
    """Deliverable-capacity and earliest-completion queries per resource.

    One outlook is built per run (the inputs — platform, windows, trace,
    discount — are all immutable) and shared by every consumer.
    ``n_queries`` counts the public capacity queries served, which the
    scheduler telemetry exports as ``scheduler.outlook_queries``; a
    :meth:`blocked_at` answer served from its cache counts in
    ``n_delta_updates`` instead.
    """

    __slots__ = (
        "platform",
        "availability",
        "faults",
        "discount",
        "discounted",
        "n_queries",
        "n_delta_updates",
        "_edge_rates",
        "_cloud_rates",
        "_link_rate",
        "_has_windows",
        "_has_faults",
        "_win_clouds",
        "_blocked_key",
        "_blocked_cache",
        "_fault_key",
        "_down_counts",
        "_down",
    )

    def __init__(
        self,
        platform: Platform,
        availability: CloudAvailability | None = None,
        faults: FaultTrace | None = None,
        discount: ExpectationDiscount | None = None,
    ):
        self.platform = platform
        self.availability = availability if availability is not None else CloudAvailability.always_available()
        self.faults = faults if faults is not None else FaultTrace.none()
        _check_trace_fits(self.faults, platform)
        self.discount = discount if discount is not None else NO_DISCOUNT
        self.discounted = self.discount is not NO_DISCOUNT and self.discount != NO_DISCOUNT
        self.n_queries = 0

        edge = np.asarray(platform.edge_speeds, dtype=np.float64)
        cloud = np.asarray(platform.cloud_speeds, dtype=np.float64)
        if self.discounted:
            # Effective rates: speed scaled by the steady-state available
            # fraction of the resource's fault class.
            edge = edge * self.discount.edge_availability
            cloud = cloud * self.discount.cloud_availability
            self._link_rate = self.discount.link_availability
        else:
            # Transparent mode: the arrays ARE the platform speeds, so
            # every consumer division is the bitwise-identical operation
            # it performed before the capacity layer existed.
            self._link_rate = 1.0
        self._edge_rates = edge
        self._cloud_rates = cloud
        self._has_windows = bool(self.availability.windows)
        self._has_faults = not self.faults.is_empty
        self._win_clouds = tuple(sorted(self.availability.windows))
        #: Delta cache of :meth:`blocked_at`, the run's one cache of the
        #: down-set: the composed down-state is piecewise constant
        #: between fault/window boundaries, so one scan per constancy
        #: interval suffices.  ``n_delta_updates`` counts the answers
        #: served from the cache (exported as
        #: ``scheduler.outlook_delta_updates``).
        self.n_delta_updates = 0
        self._blocked_key: tuple[int, int] | None = None
        self._blocked_cache: tuple[list[int], list[int], list[int], list[int]] | None = None
        self._reset_faults()

    def _reset_faults(self) -> None:
        """Down-state of fault key 0: every resource up."""
        n_edge, n_cloud = self.platform.n_edge, self.platform.n_cloud
        #: Fault key the down-state below describes.
        self._fault_key = 0
        #: Per-domain (edge, cloud, link) count of down intervals each
        #: resource is inside; touching intervals briefly count 2 at
        #: their shared instant, which keeps the resource down.
        self._down_counts = ([0] * n_edge, [0] * n_cloud, [0] * n_edge)
        #: Per-domain ascending indices of the resources with a nonzero count.
        self._down: tuple[list[int], list[int], list[int]] = ([], [], [])

    def _sweep_faults(self, key: int) -> None:
        """Move the fault down-state to interval key ``key``.

        Applies the trace's transition rows crossed since the current
        key; an earlier key replays from key 0.
        """
        if key < self._fault_key:
            self._reset_faults()
        counts, down = self._down_counts, self._down
        for _, goes_up, d, idx in self.faults.transition_rows(self._fault_key, key):
            c = counts[d]
            if goes_up:
                c[idx] -= 1
                if not c[idx]:
                    down[d].remove(idx)
            else:
                c[idx] += 1
                if c[idx] == 1:
                    insort(down[d], idx)
        self._fault_key = key

    # -- effective rates -------------------------------------------------------

    def edge_rates(self) -> np.ndarray:
        """Effective compute rate of every edge unit (read-only array)."""
        self.n_queries += 1
        return self._edge_rates

    def cloud_rates(self) -> np.ndarray:
        """Effective compute rate of every cloud processor."""
        self.n_queries += 1
        return self._cloud_rates

    def link_rate(self) -> float:
        """Effective transfer rate of the access links (1.0 undiscounted)."""
        self.n_queries += 1
        return self._link_rate

    # -- composed down-state ---------------------------------------------------

    def blocked_key(self, t: float) -> tuple[int, int]:
        """Constancy-interval key of the composed down-state at ``t``.

        Equal keys guarantee equal :meth:`blocked_at` answers (both the
        fault trace's down-state and window membership are piecewise
        constant on half-open intervals), so :meth:`blocked_at` uses key
        equality as its exact "the blocked set did not change" test.
        Not counted as a capacity query: it reads the boundary indices,
        not the state.
        """
        fk = self.faults.interval_key(t) if self._has_faults else 0
        wk = self.availability.interval_key(t) if self._has_windows else 0
        return (fk, wk)

    def blocked_at(self, t: float) -> tuple[list[int], list[int], list[int], list[int]]:
        """Resources that cannot be granted at instant ``t``.

        Returns ``(edges, clouds, links, cloud_compute_only)``: crashed
        edge units, crashed cloud processors and downed links from the
        fault trace (the full resource is unusable), plus cloud
        processors whose *compute* slot is taken by a static
        co-tenancy window (their ports stay usable).  This is the set
        the engine blocks in the ledger at every activation round.

        When ``t`` falls in the same constancy interval as the previous
        call (see :meth:`blocked_key`), the answer is the very tuple of
        the previous one, counted as one ``n_delta_updates`` and no
        ``n_queries``; so a consumer tells an unchanged down-set by
        identity (``is``), and callers must treat the lists as
        read-only.  Otherwise the call is a query, and on a fault-key
        change the down-state is swept forward over the trace's
        transitions crossed since the previous answer (see
        :meth:`FaultTrace.transition_rows`), never re-probed per
        resource; each new answer holds fresh lists, so answers handed
        out earlier never change.
        """
        key = self.blocked_key(t)
        if key == self._blocked_key:
            self.n_delta_updates += 1
            return self._blocked_cache
        self.n_queries += 1
        if key[0] != self._fault_key:
            self._sweep_faults(key[0])
        busy: list[int] = []
        if self._has_windows:
            av = self.availability
            busy = [k for k in self._win_clouds if not av.is_available(k, t)]
        edges, clouds, links = self._down
        self._blocked_key = key
        self._blocked_cache = (edges[:], clouds[:], links[:], busy)
        return self._blocked_cache

    def next_boundary(self, t: float) -> float:
        """Earliest capacity-changing instant strictly after ``t``."""
        self.n_queries += 1
        b = _INF
        if self._has_windows:
            b = self.availability.next_boundary(t)
        if self._has_faults:
            fb = self.faults.next_boundary(t)
            if fb < b:
                b = fb
        return b

    # -- earliest-start floors -------------------------------------------------
    #
    # Floors answer "when could resource k next start work, in
    # expectation?".  Undiscounted they are exactly ``t`` (current fault
    # state is then the engine's job to enforce, not the scheduler's to
    # anticipate).  Discounted, a currently-down resource is floored at
    # ``t + E[remaining repair]`` — observable current health plus the
    # model's memoryless repair expectation, never the trace's actual
    # (future) recovery instant — and a cloud inside a *planned* window
    # is floored at the window's published end.

    def earliest_edge_start(self, j: int, t: float) -> float:
        """Expected earliest instant edge unit ``j`` can start new work."""
        self.n_queries += 1
        if self.discounted and not self.faults.edge_up(j, t):
            return t + self.discount.edge_mttr
        return t

    def earliest_cloud_start(self, k: int, t: float) -> float:
        """Expected earliest instant cloud ``k`` can start computing."""
        self.n_queries += 1
        if not self.discounted:
            return t
        floor = t
        if not self.faults.cloud_up(k, t):
            floor = t + self.discount.cloud_mttr
        if self._has_windows:
            # Planned co-tenancy windows are published, so their end is
            # fair game (unlike fault recovery instants).
            for iv in self.availability.windows.get(k, ()):
                if iv.contains_time(t):
                    if iv.end > floor:
                        floor = iv.end
                    break
        return floor

    def earliest_link_start(self, o: int, t: float) -> float:
        """Expected earliest instant edge ``o``'s access link can transfer."""
        self.n_queries += 1
        if self.discounted and not self.faults.link_up(o, t):
            return t + self.discount.link_mttr
        return t

    # -- window math -----------------------------------------------------------

    def deliverable_cloud_work(self, k: int, t0: float, t1: float) -> float:
        """Work units cloud ``k`` can deliver over ``[t0, t1)``.

        Effective rate times the available time in the window, with the
        static co-tenancy intervals carved out.
        """
        self.n_queries += 1
        if t1 <= t0:
            return 0.0
        busy = 0.0
        for iv in self.availability.windows.get(k, ()):
            lo = iv.start if iv.start > t0 else t0
            hi = iv.end if iv.end < t1 else t1
            if hi > lo:
                busy += hi - lo
        return float(self._cloud_rates[k]) * ((t1 - t0) - busy)

    def deliverable_edge_work(self, j: int, t0: float, t1: float) -> float:
        """Work units edge unit ``j`` can deliver over ``[t0, t1)``."""
        self.n_queries += 1
        if t1 <= t0:
            return 0.0
        return float(self._edge_rates[j]) * (t1 - t0)

    def earliest_cloud_completion(self, k: int, t: float, work: float) -> float:
        """Instant ``work`` units finish on cloud ``k`` when started at ``t``.

        Walks the static unavailability windows: compute pauses during a
        window and resumes at its end (exactly the engine's semantics
        for planned co-tenancy).  Faults are *not* walked — their future
        boundaries are not knowable; discounted mode prices them through
        the effective rate and the start floor instead.
        """
        self.n_queries += 1
        rate = float(self._cloud_rates[k])
        if rate <= 0.0:
            raise ModelError(f"cloud[{k}] has non-positive effective rate {rate}")
        cur = self.earliest_cloud_start(k, t) if self.discounted else t
        remaining = work
        for iv in self.availability.windows.get(k, ()):
            if iv.end <= cur:
                continue
            if iv.contains_time(cur):
                cur = iv.end
                continue
            gap = iv.start - cur
            if remaining <= gap * rate:
                break
            remaining -= gap * rate
            cur = iv.end
        return cur + remaining / rate

    def earliest_edge_completion(self, j: int, t: float, work: float) -> float:
        """Instant ``work`` units finish on edge ``j`` when started at ``t``."""
        self.n_queries += 1
        start = self.earliest_edge_start(j, t) if self.discounted else t
        return start + work / float(self._edge_rates[j])
