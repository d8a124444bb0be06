"""Seeded stochastic fault models (MTBF/MTTR exponential renewal).

The classic reliability model: each resource alternates exponentially
distributed up-times (mean **MTBF**) and down-times (mean **MTTR**),
independently per resource.  Draw order is fixed — edge units in index
order, then cloud processors, then links, alternating (uptime, downtime)
within a resource — so a trace is a pure function of the seed and the
parameters, and the same trace is drawn in a serial run and in any pool
worker (byte-identical results, like everything else derived from
``repro.util.rng``).

``group_size > 1`` switches a class to *correlated* failures: resources
are partitioned into consecutive index groups (shared racks / power
domains) and one renewal sequence is drawn per group, shared by every
member — group members crash and recover together.  ``group_size=1``
reproduces the independent model draw for draw.

``groups`` generalizes this to *topology-driven* correlation: arbitrary
(and possibly overlapping) membership lists per domain, e.g. the edge
units of one rack plus the links of one aggregation switch.  One
renewal sequence is drawn per listed group (in listed order, within the
fixed edge → cloud → link domain order); resources in several groups
take the union of their groups' down windows, merged to sorted disjoint
intervals; resources of a faulty domain not covered by any group keep
their independent per-resource draw.  ``parse_fault_groups`` parses the
CLI spec syntax (``"edge:0,1;link:0-2"``).

Generated traces carry their parameters as
:class:`~repro.faults.trace.FaultRates` metadata, which is what
failure-aware schedulers (and the capacity layer,
:mod:`repro.capacity`) discount expected capacity from — the model, not
the realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.intervals import Interval
from repro.faults.trace import (
    DOMAIN_CLOUD,
    DOMAIN_EDGE,
    DOMAIN_LINK,
    FaultRates,
    FaultTrace,
    RenewalRates,
)
from repro.util.rng import SeedLike, as_generator

if TYPE_CHECKING:
    from repro.core.instance import Instance

#: One correlated fault group: a domain name ("edge" / "cloud" / "link")
#: and the member resource indices sharing a renewal sequence.
FaultGroup = tuple[str, tuple[int, ...]]

#: Default fraction of an outage spent repairing: MTTR = MTTR_FRACTION * MTBF.
MTTR_FRACTION = 0.1

#: Down intervals shorter than this are discarded (zero-length intervals
#: are invalid, and sub-tolerance outages cannot affect the simulation).
_MIN_DOWN = 1e-9


@dataclass(frozen=True)
class FaultClassParams:
    """MTBF/MTTR of one fault class (edge, cloud, or link)."""

    mtbf: float
    mttr: float

    def __post_init__(self) -> None:
        if not self.mtbf > 0:
            raise ModelError(f"mtbf must be positive, got {self.mtbf}")
        if not self.mttr > 0:
            raise ModelError(f"mttr must be positive, got {self.mttr}")


def _draw_windows(
    rng: np.random.Generator, params: FaultClassParams, horizon: float
) -> tuple[Interval, ...]:
    """Alternating Exp(MTBF) up / Exp(MTTR) down renewal, clipped at horizon."""
    ivs: list[Interval] = []
    t = 0.0
    while True:
        t += float(rng.exponential(params.mtbf))
        if t >= horizon:
            break
        d = float(rng.exponential(params.mttr))
        end = min(t + d, horizon)
        if end - t > _MIN_DOWN:
            ivs.append(Interval(t, end))
        t = end
    return tuple(ivs)


def _draw_class(
    rng: np.random.Generator,
    params: FaultClassParams | None,
    n: int,
    horizon: float,
    group_size: int,
) -> dict[int, tuple[Interval, ...]]:
    """Per-resource windows of one class; groups share one renewal draw."""
    windows: dict[int, tuple[Interval, ...]] = {}
    if params is None:
        return windows
    for base in range(0, n, group_size):
        ivs = _draw_windows(rng, params, horizon)
        if ivs:
            for idx in range(base, min(base + group_size, n)):
                windows[idx] = ivs
    return windows


def _merge_windows(seqs: list[tuple[Interval, ...]]) -> tuple[Interval, ...]:
    """Union of several sorted window sequences, as sorted disjoint intervals.

    Resources belonging to several (overlapping) fault groups are down
    whenever *any* of their groups is down; :class:`FaultTrace` requires
    strictly disjoint windows per resource, so the union is coalesced.
    """
    merged: list[Interval] = []
    for iv in sorted(iv for seq in seqs for iv in seq):
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, iv.end)
        else:
            merged.append(iv)
    return tuple(merged)


def _draw_class_grouped(
    rng: np.random.Generator,
    params: FaultClassParams | None,
    n: int,
    horizon: float,
    domain_groups: list[tuple[int, ...]],
) -> dict[int, tuple[Interval, ...]]:
    """Per-resource windows of one class under topology-driven groups.

    One renewal sequence per group, in listed order; overlapping
    memberships union; uncovered resources keep independent draws (in
    index order, after the group draws).
    """
    windows: dict[int, tuple[Interval, ...]] = {}
    if params is None:
        return windows
    per_resource: dict[int, list[tuple[Interval, ...]]] = {}
    covered: set[int] = set()
    for members in domain_groups:
        ivs = _draw_windows(rng, params, horizon)
        covered.update(members)
        if ivs:
            for idx in members:
                per_resource.setdefault(idx, []).append(ivs)
    for idx in sorted(per_resource):
        merged = _merge_windows(per_resource[idx])
        if merged:
            windows[idx] = merged
    for idx in range(n):
        if idx in covered:
            continue
        ivs = _draw_windows(rng, params, horizon)
        if ivs:
            windows[idx] = ivs
    return windows


def _validate_groups(
    groups: Sequence[tuple[str, Sequence[int]]], n_edge: int, n_cloud: int
) -> dict[str, list[tuple[int, ...]]]:
    """Check domains/indices and split the group list by domain."""
    limits = {DOMAIN_EDGE: n_edge, DOMAIN_CLOUD: n_cloud, DOMAIN_LINK: n_edge}
    by_domain: dict[str, list[tuple[int, ...]]] = {d: [] for d in limits}
    for pos, (domain, members) in enumerate(groups):
        if domain not in limits:
            raise ModelError(
                f"fault group {pos} has unknown domain {domain!r}; "
                f"expected one of {sorted(limits)}"
            )
        members = tuple(int(m) for m in members)
        if not members:
            raise ModelError(f"fault group {pos} ({domain}) has no members")
        if len(set(members)) != len(members):
            raise ModelError(f"fault group {pos} ({domain}) has duplicate members: {members}")
        limit = limits[domain]
        for m in members:
            if not 0 <= m < limit:
                raise ModelError(
                    f"fault group {pos} ({domain}) member {m} out of range "
                    f"[0, {limit})"
                )
        by_domain[domain].append(members)
    return by_domain


def parse_fault_groups(spec: str) -> tuple[FaultGroup, ...]:
    """Parse the CLI fault-group syntax into ``(domain, members)`` tuples.

    ``spec`` is ``;``-separated groups, each ``domain:members`` where
    members are comma-separated indices or ``a-b`` inclusive ranges:
    ``"edge:0,1;link:0-2;cloud:1"``.  Domains may repeat (one group per
    entry) and memberships may overlap across groups.
    """
    out: list[FaultGroup] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        domain, sep, body = chunk.partition(":")
        domain = domain.strip()
        if not sep or not body.strip():
            raise ModelError(
                f"bad fault group {chunk!r}; expected 'domain:i,j,a-b' "
                "(e.g. 'edge:0,1;link:0-2')"
            )
        members: list[int] = []
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            lo, dash, hi = item.partition("-")
            try:
                if dash:
                    a, b = int(lo), int(hi)
                    if b < a:
                        raise ValueError
                    members.extend(range(a, b + 1))
                else:
                    members.append(int(item))
            except ValueError:
                raise ModelError(
                    f"bad fault group member {item!r} in {chunk!r}; "
                    "expected an index or an 'a-b' range"
                ) from None
        if not members:
            raise ModelError(f"fault group {chunk!r} has no members")
        out.append((domain, tuple(members)))
    if not out:
        raise ModelError(f"no fault groups in spec {spec!r}")
    return tuple(out)


def exponential_fault_trace(
    *,
    n_edge: int,
    n_cloud: int,
    horizon: float,
    seed: SeedLike = None,
    edge: FaultClassParams | None = None,
    cloud: FaultClassParams | None = None,
    link: FaultClassParams | None = None,
    group_size: int = 1,
    groups: Sequence[tuple[str, Sequence[int]]] | None = None,
) -> FaultTrace:
    """Draw a :class:`FaultTrace` from the exponential MTBF/MTTR model.

    ``edge`` / ``cloud`` / ``link`` give the per-class parameters; a
    ``None`` class never fails.  ``horizon`` bounds the trace — pick it
    generously above the expected makespan; boundaries past the actual
    makespan simply never fire.  ``group_size`` sets the correlation
    granularity: consecutive index groups of that size share one renewal
    sequence per class (they fail and recover together); the default 1
    keeps every resource independent.  ``groups`` instead names
    arbitrary (possibly overlapping) correlated groups per domain — see
    the module docstring; it is mutually exclusive with
    ``group_size > 1``, and ``groups=None`` reproduces the historical
    stream draw for draw.  The returned trace carries its parameters as
    :class:`~repro.faults.trace.FaultRates` metadata.
    """
    if n_edge < 0 or n_cloud < 0:
        raise ModelError(f"negative platform sizes: n_edge={n_edge}, n_cloud={n_cloud}")
    if not horizon > 0:
        raise ModelError(f"horizon must be positive, got {horizon}")
    if group_size < 1:
        raise ModelError(f"group_size must be >= 1, got {group_size}")
    if groups is not None and group_size != 1:
        raise ModelError("groups and group_size > 1 are mutually exclusive")
    rng = as_generator(seed)
    if groups is not None:
        by_domain = _validate_groups(groups, n_edge, n_cloud)
        edge_down = _draw_class_grouped(rng, edge, n_edge, horizon, by_domain[DOMAIN_EDGE])
        cloud_down = _draw_class_grouped(rng, cloud, n_cloud, horizon, by_domain[DOMAIN_CLOUD])
        link_down = _draw_class_grouped(rng, link, n_edge, horizon, by_domain[DOMAIN_LINK])
    else:
        edge_down = _draw_class(rng, edge, n_edge, horizon, group_size)
        cloud_down = _draw_class(rng, cloud, n_cloud, horizon, group_size)
        link_down = _draw_class(rng, link, n_edge, horizon, group_size)
    rates = FaultRates(
        edge=None if edge is None else RenewalRates(edge.mtbf, edge.mttr),
        cloud=None if cloud is None else RenewalRates(cloud.mtbf, cloud.mttr),
        link=None if link is None else RenewalRates(link.mtbf, link.mttr),
    )
    return FaultTrace(edge_down, cloud_down, link_down, rates=rates)


def instance_fault_trace(
    instance: Instance,
    *,
    mtbf: float,
    mttr: float | None = None,
    seed: SeedLike = None,
    group_size: int = 1,
    groups: Sequence[tuple[str, Sequence[int]]] | None = None,
) -> FaultTrace:
    """Exponential faults on every resource of ``instance``'s platform.

    Edge units, cloud processors and links share one MTBF/MTTR;
    ``mttr`` defaults to :data:`MTTR_FRACTION` of ``mtbf``.  The horizon
    is the last release plus the whole workload run serially at its best
    speed, safely past the end of any plausible schedule (faults beyond
    the actual makespan are never reached).  ``group_size`` and
    ``groups`` are passed to :func:`exponential_fault_trace`.  An
    instance without jobs has no horizon and is a :class:`ModelError`.
    """
    if instance.n_jobs == 0:
        raise ModelError(
            "cannot inject faults into an empty instance (0 jobs): its fault "
            "horizon, the last release plus the total minimal work time, is undefined"
        )
    params = FaultClassParams(
        mtbf=mtbf, mttr=MTTR_FRACTION * mtbf if mttr is None else mttr
    )
    return exponential_fault_trace(
        n_edge=instance.platform.n_edge,
        n_cloud=instance.platform.n_cloud,
        horizon=float(instance.release.max() + instance.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
        group_size=group_size,
        groups=groups,
    )
