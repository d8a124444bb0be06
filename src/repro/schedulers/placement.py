"""Shared placement kernel for the heuristic schedulers' hot paths.

The constructive EDF placement of SSF-EDF (Section V-D) is the single
most expensive loop of the repository: it runs once per engine event
*and* once per binary-search probe at every release.  This module keeps
the placement rule untouched but re-hosts it in an
:class:`EdfPlacementKernel` built once per run:

* the six per-resource reservation timelines are preallocated and reset
  with :meth:`EdfPlacementKernel.reset` (no ``np.full`` allocations per
  call);
* the per-job cloud evaluation is a plain-Python scan over the cloud
  processors (P is small — ufunc dispatch overhead dominates at that
  size), with the fresh ``work / cloud_speed`` durations precomputed
  once as a matrix;
* the stay-on-current-cloud tie-break scales the current processor's
  *scalar* score inside the scan instead of copying a score vector;
* probes may pass ``short_circuit=True`` to abort at the first missed
  deadline — infeasible probes then cost O(k·P) for the first violating
  prefix instead of O(n·P).

Every arithmetic expression evaluates the exact IEEE-754 operations of
the historical ``_edf_placement`` loop, so placements are bit-identical
(pinned by the golden determinism suite).

The module also hosts the machinery for SSF-EDF's *decision reuse*
(:class:`ReplayCache`): a placement doubles as a reservation schedule,
and as long as the engine demonstrably executes that schedule, replaying
the cached decision is exact.  The cache tracks the schedule
structurally — per-resource FIFO queues of (job, phase) segments with no
floating-point comparisons — and invalidates on any divergence (see
:meth:`ReplayCache.advance`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.capacity.outlook import expected_rework
from repro.sim.events import EventKind
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE
from repro.sim.view import SimulationView

_TOL = 1e-9
_STAY = 1.0 - _TOL
_INF = float("inf")

#: Phase codes of a placement segment (uplink / compute / downlink).
_P_UP = 0
_P_COMP = 1
_P_DN = 2


@dataclass
class PlacementStats:
    """Hot-path counters of one SSF-EDF run (exported as ``scheduler.*``).

    ``probes`` counts feasibility-predicate calls of the binary search;
    ``probe_short_circuits`` the probes that aborted at the first missed
    deadline; ``rebuilds`` the full placement constructions used as
    decisions; ``probe_reuses`` the release decisions that adopted the
    final feasible probe's placement instead of rebuilding;
    ``pass_reuses`` the constructive passes served from the
    per-decision order cache (two probes of one binary search whose
    deadline vectors sort the jobs identically share one pass — the
    pass reads deadlines only through the order); ``replays`` the
    non-release decisions served from the cache; ``outlook_queries``
    the capacity-outlook queries the run served (rate tables, floors,
    composed down-state — see :mod:`repro.capacity`).

    The fault-path counters: ``outlook_delta_updates`` counts
    down-state answers served from the outlook's constancy-interval
    delta cache instead of a fresh scan; ``partial_rebuilds`` the
    reservation-floor refreshes rebuilt from the kernel's cached
    recipe (the outlook served the same down-set from its cache, so no
    floor queries); ``epoch_invalidations`` the
    cross-event replays abandoned because a fault/availability
    boundary bumped the fault epoch since the cache was established.
    """

    probes: int = 0
    probe_short_circuits: int = 0
    rebuilds: int = 0
    probe_reuses: int = 0
    pass_reuses: int = 0
    replays: int = 0
    outlook_queries: int = 0
    outlook_delta_updates: int = 0
    partial_rebuilds: int = 0
    epoch_invalidations: int = 0

    def as_counters(self) -> dict[str, float]:
        """The stats as ``scheduler.*`` counter name → value."""
        return {
            "scheduler.probes": float(self.probes),
            "scheduler.probe_short_circuits": float(self.probe_short_circuits),
            "scheduler.rebuilds": float(self.rebuilds),
            "scheduler.probe_reuses": float(self.probe_reuses),
            "scheduler.pass_reuses": float(self.pass_reuses),
            "scheduler.replays": float(self.replays),
            "scheduler.outlook_queries": float(self.outlook_queries),
            "scheduler.outlook_delta_updates": float(self.outlook_delta_updates),
            "scheduler.partial_rebuilds": float(self.partial_rebuilds),
            "scheduler.epoch_invalidations": float(self.epoch_invalidations),
        }


@dataclass
class PlacementResult:
    """One constructive EDF placement, in columnar (decision-ready) form.

    ``jobs`` / ``kinds`` / ``indices`` are the decision columns in EDF
    order (the engine's priority order), lists of Python ints;
    ``completions`` the per-job completion estimates in the same order,
    a list of Python floats; ``feasible`` whether every deadline was
    met.  A short-circuited infeasible probe returns truncated columns
    (``complete=False``) — only the flag is meaningful then.  The lists
    may be shared with the kernel's pass cache and the scheduler's
    replay cache: treat them as read-only.
    """

    jobs: list[int]
    kinds: list[int]
    indices: list[int]
    completions: list[float]
    feasible: bool
    complete: bool = True
    #: Per-job explanation rows (see :meth:`EdfPlacementKernel.place`
    #: with ``explain=True``); None on ordinary runs.
    explain: list[dict] | None = None


@dataclass
class ProbeRecord:
    """One binary-search feasibility probe, with its rejection reason.

    An infeasible probe names the *violator*: the first job (in EDF
    order) whose constructive completion missed its probe deadline
    ``release + stretch * min_time`` — the structured "why was this
    stretch rejected" answer.  ``violator`` is -1 on feasible probes.
    """

    stretch: float
    feasible: bool
    short_circuited: bool
    violator: int = -1
    violator_completion: float = 0.0
    violator_deadline: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (violator details only on infeasible probes)."""
        d: dict = {
            "stretch": self.stretch,
            "feasible": self.feasible,
            "short_circuited": self.short_circuited,
        }
        if not self.feasible:
            d["violator"] = {
                "job": self.violator,
                "completion": self.violator_completion,
                "deadline": self.violator_deadline,
            }
        return d


@dataclass
class DecisionProvenance:
    """Structured explanation of one SSF-EDF decision.

    Attached to :attr:`repro.sim.decision.Decision.provenance` when a
    provenance-collecting hook is registered (see
    ``EngineHooks.wants_decision_provenance``).  ``path`` is how the
    decision was served (``rebuild`` / ``probe_adoption`` / ``replay``);
    ``probes`` the binary-search history of a release decision;
    ``placements`` the kernel's per-job explanation rows: the chosen
    resource, its completion vs the deadline, the edge completion, and
    the cheapest cloud with its completion (``cloud_index`` /
    ``cloud_completion``).  Explain passes scan every cloud without the
    prune, so on a platform with clouds every row names one, also when
    the edge won; ``floors`` the failure-aware push-back report
    (resources whose reservation timelines start after ``now`` because
    the :class:`~repro.capacity.outlook.CapacityOutlook` holds them
    down or co-tenanted).
    """

    path: str
    target_stretch: float
    probes: list[ProbeRecord]
    placements: list[dict] | None
    floors: list[dict]

    def to_dict(self) -> dict:
        """JSON-ready form (the trace exporter's decision payload)."""
        return {
            "path": self.path,
            "target_stretch": self.target_stretch,
            "probes": [p.to_dict() for p in self.probes],
            "placements": self.placements if self.placements is not None else [],
            "floors": self.floors,
        }


class EdfPlacementKernel:
    """Preallocated state for the constructive EDF placement of one run.

    All capacity arithmetic is served by the run's
    :class:`~repro.capacity.outlook.CapacityOutlook` (queried in bulk at
    build time, never per job in the hot loop).  With the transparent
    (undiscounted) outlook the rate tables are the platform speeds
    bitwise and every reservation timeline starts at ``now`` — the exact
    historical behavior.  With a discounted outlook
    (``failure_aware``), effective rates are availability-scaled and
    the timelines of currently-down resources start at their
    expected-recovery floor instead of ``now``, so placements route
    around dead or co-tenanted resources.

    With ``rework_pricing`` (requires ``failure_aware``) every candidate
    duration is replaced by its *expected* duration under the fault
    trace's exponential failure model with restart-on-failure: an
    exposure of ``t`` dedicated time units on a domain with mean time
    between failures ``mtbf`` is expected to take
    ``mtbf * (exp(t / mtbf) - 1)`` wall time (the classic
    restart-from-scratch expectation).  Compute exposures are priced
    with the edge/cloud MTBF; transfer segments at their full duration
    with the link MTBF (mid-transfer progress is never committed).
    When the run carries a periodic
    :class:`~repro.sim.checkpoint.CheckpointPolicy` the compute price is
    ``min(unsplit, chunks × per-chunk)`` — the *long-job split rule*: a
    job whose expected rework exceeds its total commit overhead is
    priced as its checkpointed chunks instead of one monolithic
    exposure.  With no fault model (infinite MTBFs) every price is the
    identity and the mode degenerates to plain ``failure_aware``.
    """

    def __init__(
        self,
        view: SimulationView,
        *,
        failure_aware: bool = False,
        rework_pricing: bool = False,
    ):
        instance = view.instance
        platform = view.platform
        self.instance = instance
        self.n_edge = platform.n_edge
        self.n_cloud = platform.n_cloud
        outlook = view.capacity_outlook(discounted=failure_aware)
        self.outlook = outlook
        self.failure_aware = failure_aware and outlook.discounted

        # Rework-pricing scalars.  The MTBFs come off the outlook's
        # ExpectationDiscount *attributes* (model parameters, not
        # capacity queries — ``n_queries`` must stay at the historical
        # count); the commit geometry off the run's checkpoint policy.
        self._rework = rework_pricing and self.failure_aware
        self._rw_edge_mtbf = _INF
        self._rw_cloud_mtbf = _INF
        self._rw_link_mtbf = _INF
        self._rw_interval: float | None = None
        self._rw_cost = 0.0
        if self._rework:
            discount = outlook.discount
            if discount is not None:
                self._rw_edge_mtbf = discount.edge_mtbf
                self._rw_cloud_mtbf = discount.cloud_mtbf
                self._rw_link_mtbf = discount.link_mtbf
            policy = view.checkpoint_policy
            if policy is not None and policy.interval is not None:
                self._rw_interval = policy.interval
                self._rw_cost = policy.commit_cost
        edge_speeds = outlook.edge_rates()
        self.cloud_speeds = outlook.cloud_rates()
        self._link_rate = outlook.link_rate()
        self._cloud_speeds_l = self.cloud_speeds.tolist()

        # Reservation timelines.  All six are scalar-accessed only from
        # the per-job loop and live in plain lists, which are cheaper to
        # index and update than NumPy arrays at these sizes.
        self._cloud_comp: list[float] = [0.0] * self.n_cloud
        self._cloud_recv: list[float] = [0.0] * self.n_cloud
        self._cloud_send: list[float] = [0.0] * self.n_cloud
        self._edge_comp: list[float] = [0.0] * self.n_edge
        self._edge_send: list[float] = [0.0] * self.n_edge
        self._edge_recv: list[float] = [0.0] * self.n_edge

        # Expected-recovery floors of the failure-aware mode, refreshed
        # once per decision instant (every probe of one decision shares
        # the same ``now``).
        self._floor_now = float("nan")
        self._floor_ec: list[float] = []
        self._floor_es: list[float] = []
        self._floor_er: list[float] = []
        self._floor_cc: list[float] = []
        self._floor_cr: list[float] = []
        self._floor_cs: list[float] = []
        #: The outlook's down-set answer behind the floors above, kept
        #: for :meth:`floor_report` (no extra outlook queries at report
        #: time), plus the floor recipe derived from it: down-cloud
        #: membership and the end of the window containing ``now`` per
        #: blocked cloud.  While the outlook hands back this very tuple
        #: the floors are rebuilt from the recipe with the outlook
        #: queries' exact arithmetic (partial rebuild); a new answer —
        #: some resource transitioned — re-derives it.
        self._floor_blocked: tuple[list[int], list[int], list[int], list[int]] = (
            [],
            [],
            [],
            [],
        )
        self._floor_down_clouds: frozenset[int] = frozenset()
        self._floor_win_end: dict[int, float] = {}
        #: Floor refreshes served from the cached recipe (exported as
        #: ``scheduler.partial_rebuilds``).
        self.partial_rebuilds = 0
        #: Constructive passes served from a per-decision order cache
        #: (exported as ``scheduler.pass_reuses``; see :meth:`place`).
        self.pass_reuses = 0

        # Static per-job quantities, precomputed once from the outlook's
        # effective rates.  Undiscounted, the divisions are the exact
        # elementwise operations the historical loop performed per job,
        # so the values are bit-identical.
        self._origin_l = instance.origin.tolist()
        if self._link_rate != 1.0:
            self._up_l = (instance.up / self._link_rate).tolist()
            self._dn_l = (instance.dn / self._link_rate).tolist()
        else:
            self._up_l = instance.up.tolist()
            self._dn_l = instance.dn.tolist()
        if self.n_cloud:
            woc = instance.work[:, None] / self.cloud_speeds[None, :]
            self._woc_l = woc.tolist()
            # Cheapest cloud compute duration per job, an operand of the
            # scan's prune bound (see place(): a cloud whose compute slot
            # frees too late to beat the incumbent even at this duration
            # ends the scan without its full reservation chain).
            self._woc_min_l = woc.min(axis=1).tolist()
        else:
            self._woc_l = [[] for _ in range(instance.n_jobs)]
            self._woc_min_l = [_INF] * instance.n_jobs
        self._edge_dur_l = (instance.work / edge_speeds[instance.origin]).tolist()
        self._edge_speeds_l = edge_speeds.tolist()

    def _rw_compute(self, t: float, mtbf: float, speed: float) -> float:
        """Expected compute time for a ``t``-long exposure on ``speed``.

        Without a periodic commit interval this is the unsplit
        expectation of :func:`~repro.capacity.outlook.expected_rework`.
        With one, the exposure can be committed every ``interval`` work
        units at ``commit_cost`` extra work, so the job is also priced
        as ``t / (interval / speed)`` fractional chunks of
        ``(interval + cost) / speed`` time each — and the cheaper of the
        two prices wins (the long-job split rule: splitting pays exactly
        when expected rework exceeds the total commit overhead).
        """
        full = expected_rework(t, mtbf)
        interval = self._rw_interval
        if interval is None or t <= 0.0 or mtbf == _INF:
            return full
        chunk = (interval + self._rw_cost) / speed
        chunks = t * speed / interval
        split = chunks * expected_rework(chunk, mtbf)
        return split if split < full else full

    def _cloud_floor_cached(self, k: int, now: float) -> float:
        """Expected earliest cloud start from the cached recipe.

        Reproduces :meth:`CapacityOutlook.earliest_cloud_start` exactly
        for instants inside the cached constancy interval: same
        ``now + mttr`` expression for a down processor, same
        window-end max — membership and window ends cannot have
        changed while the outlook serves the same down-set.
        """
        f = now + self.outlook.discount.cloud_mttr if k in self._floor_down_clouds else now
        end = self._floor_win_end.get(k)
        if end is not None and end > f:
            f = end
        return f

    def _refresh_floors(self, now: float) -> None:
        """Recompute the expected-recovery floors for decision instant ``now``.

        Runs only in failure-aware mode, whose outlook is discounted.
        Floors are piecewise *affine* in ``now`` between fault/window
        boundaries, so while the outlook hands back the very down-set
        tuple it answered last (its cache, see
        :meth:`CapacityOutlook.blocked_at`) the refresh is a partial
        rebuild: the cached per-cloud recipe replays the floor queries'
        arithmetic bit-identically without querying the outlook.  Only
        a new answer — some resource actually transitioned — pays the
        per-resource queries again.
        """
        if now == self._floor_now:
            return
        self._floor_now = now
        outlook = self.outlook
        ec = [now] * self.n_edge
        es = [now] * self.n_edge
        er = [now] * self.n_edge
        cc = [now] * self.n_cloud
        cr = [now] * self.n_cloud
        cs = [now] * self.n_cloud
        blocked = outlook.blocked_at(now)
        edges, clouds, links, busy = blocked
        if blocked is self._floor_blocked:
            self.partial_rebuilds += 1
            d = outlook.discount
            for j in edges:
                f = now + d.edge_mttr
                ec[j] = f
                # The unit's ports die with it.
                es[j] = f
                er[j] = f
            for o in links:
                f = now + d.link_mttr
                if f > es[o]:
                    es[o] = f
                if f > er[o]:
                    er[o] = f
            for k in clouds:
                f = self._cloud_floor_cached(k, now)
                cc[k] = f
                cr[k] = f
                cs[k] = f
            for k in busy:
                f = self._cloud_floor_cached(k, now)
                if f > cc[k]:
                    cc[k] = f
        else:
            self._floor_blocked = blocked
            self._floor_down_clouds = frozenset(clouds)
            win_end: dict[int, float] = {}
            windows = outlook.availability.windows
            for k in clouds if not busy else {*clouds, *busy}:
                for iv in windows.get(k, ()):
                    if iv.contains_time(now):
                        win_end[k] = iv.end
                        break
            self._floor_win_end = win_end
            for j in edges:
                f = outlook.earliest_edge_start(j, now)
                ec[j] = f
                # The unit's ports die with it.
                if f > es[j]:
                    es[j] = f
                    er[j] = f
            for o in links:
                f = outlook.earliest_link_start(o, now)
                if f > es[o]:
                    es[o] = f
                if f > er[o]:
                    er[o] = f
            for k in clouds:
                f = outlook.earliest_cloud_start(k, now)
                cc[k] = f
                cr[k] = f
                cs[k] = f
            for k in busy:
                f = outlook.earliest_cloud_start(k, now)
                if f > cc[k]:
                    cc[k] = f
        self._floor_ec = ec
        self._floor_es = es
        self._floor_er = er
        self._floor_cc = cc
        self._floor_cr = cr
        self._floor_cs = cs

    def reset(self, now: float) -> None:
        """Reset every reservation timeline for a placement starting at ``now``.

        Transparent mode starts every timeline at ``now``; failure-aware
        mode starts each resource at its expected-recovery floor.
        """
        if self.failure_aware:
            self._refresh_floors(now)
            self._cloud_comp[:] = self._floor_cc
            self._cloud_recv[:] = self._floor_cr
            self._cloud_send[:] = self._floor_cs
            self._edge_comp[:] = self._floor_ec
            self._edge_send[:] = self._floor_es
            self._edge_recv[:] = self._floor_er
            return
        self._cloud_comp[:] = [now] * self.n_cloud
        self._cloud_recv[:] = [now] * self.n_cloud
        self._cloud_send[:] = [now] * self.n_cloud
        self._edge_comp[:] = [now] * self.n_edge
        self._edge_send[:] = [now] * self.n_edge
        self._edge_recv[:] = [now] * self.n_edge

    def floor_report(self, now: float) -> list[dict]:
        """The failure-aware push-back report for decision instant ``now``.

        One entry per resource whose reservation timeline was floored
        past ``now``: edge/cloud units held by a fault (``down``), edge
        units whose backhaul link is out (``link_down``), and cloud
        units co-tenanted by availability windows (``co_tenant``).
        Empty in transparent mode.  Served from the floors already
        computed for this instant's placements — no extra outlook
        queries.
        """
        if not self.failure_aware:
            return []
        self._refresh_floors(now)
        edges, clouds, links, busy = self._floor_blocked
        report: list[dict] = []
        for j in edges:
            report.append(
                {"kind": "edge", "index": j, "reason": "down", "floor": self._floor_ec[j]}
            )
        for o in links:
            report.append(
                {"kind": "link", "index": o, "reason": "link_down", "floor": self._floor_es[o]}
            )
        for k in clouds:
            report.append(
                {"kind": "cloud", "index": k, "reason": "down", "floor": self._floor_cc[k]}
            )
        for k in busy:
            report.append(
                {"kind": "cloud", "index": k, "reason": "co_tenant", "floor": self._floor_cc[k]}
            )
        return report

    def place(
        self,
        view: SimulationView,
        live: list[int],
        deadlines: list[float],
        *,
        short_circuit: bool = False,
        explain: bool = False,
        reuse: dict | None = None,
    ) -> PlacementResult:
        """Constructive EDF placement (see :mod:`repro.schedulers.ssf_edf`).

        ``live`` lists the jobs to place, ascending, and ``deadlines``
        their deadlines in the same order (Python floats).  Jobs are
        processed by non-decreasing deadline, in the stable order
        ``sorted(range(m), key=deadlines.__getitem__)``: equal deadlines
        keep their position in ``live``, so ties go to the lower job id
        only because ``live`` is ascending — the order
        ``np.lexsort((live, deadlines))`` gives.  Each job reserves the
        resource chain minimizing its completion given the reservations
        of more urgent jobs.  With ``short_circuit`` the construction
        aborts at the first missed deadline (binary-search probes only
        need the feasibility bit).  With ``explain`` the result carries
        one row per placed job recording the chosen resource, its
        completion vs deadline, and the edge and cheapest-cloud
        completions.  An explain pass scans every cloud instead of
        pruning the scan, so its rows name the true cheapest cloud; its
        placement is bitwise that of an ordinary pass.

        ``reuse`` is a per-decision pass cache (the caller owns its
        scope: one binary search = one dict).  The constructive pass
        reads the deadline vector only through the EDF *order* and the
        per-position miss checks, so two probes whose deadlines sort
        the jobs identically build bitwise the same reservations and
        completions; a cached complete pass with the same order is
        returned directly, with feasibility re-derived against this
        probe's deadlines by the exact per-job comparison.
        An infeasible hit under ``short_circuit`` is truncated at the
        first miss — the same shape (and counters) a fresh
        short-circuited pass would produce.  Ignored when ``explain``
        is set (rows are built only by a real pass).
        """
        now = view.now
        order = sorted(range(len(live)), key=deadlines.__getitem__)
        # Per-position miss tolerance in EDF order: the
        # ``dl + _TOL * (dl if dl > 1.0 else 1.0)`` IEEE expression of
        # the per-job check.
        dl_l = [deadlines[p] for p in order]
        dlt_l = [dl + _TOL * (dl if dl > 1.0 else 1.0) for dl in dl_l]
        key = None
        if reuse is not None and not explain:
            key = tuple(order)
            hit = reuse.get(key)
            if hit is not None:
                self.pass_reuses += 1
                ok = [c <= t for c, t in zip(hit.completions, dlt_l)]
                feas = all(ok)
                if feas or not short_circuit:
                    if feas == hit.feasible:
                        return hit
                    return PlacementResult(
                        jobs=hit.jobs,
                        kinds=hit.kinds,
                        indices=hit.indices,
                        completions=hit.completions,
                        feasible=feas,
                    )
                p = ok.index(False) + 1
                return PlacementResult(
                    jobs=hit.jobs[:p],
                    kinds=hit.kinds[:p],
                    indices=hit.indices[:p],
                    completions=hit.completions[:p],
                    feasible=False,
                    complete=False,
                )
        self.reset(now)

        live_l = [live[p] for p in order]
        # The state's per-job lists: the current allocation and the
        # remaining amounts, read per job in the loop below.  Transfer
        # amounts are divided by the link rate (exact when it is 1.0).
        alloc_kind = view.alloc_kind
        alloc_index = view.alloc_index
        rem_up = view.rem_up
        rem_work = view.rem_work
        rem_dn = view.rem_dn
        link_rate = self._link_rate

        n_cloud = self.n_cloud
        cloud_range = range(n_cloud)
        origin_l = self._origin_l
        up_l = self._up_l
        dn_l = self._dn_l
        edge_dur_l = self._edge_dur_l
        edge_speeds_l = self._edge_speeds_l
        cloud_speeds_l = self._cloud_speeds_l
        woc_l = self._woc_l
        woc_min_l = self._woc_min_l
        edge_comp = self._edge_comp
        edge_send = self._edge_send
        edge_recv = self._edge_recv
        cloud_comp = self._cloud_comp
        cloud_recv = self._cloud_recv
        cloud_send = self._cloud_send

        kinds_l: list[int] = []
        indices_l: list[int] = []
        completions_l: list[float] = []
        kinds_append = kinds_l.append
        indices_append = indices_l.append
        completions_append = completions_l.append
        feasible = True
        explain_rows: list[dict] | None = [] if explain else None
        # Explain passes walk every cloud, so each row's losing cloud
        # alternative is the true cheapest one.
        prune = not explain
        rework = self._rework
        # Compute-availability order of the cloud processors, maintained
        # under reservations.  The scan's prune bound is monotone in
        # ``cc``, so walking candidates by ascending ``cc`` turns the
        # per-candidate skip into a *break*: the first bound above the
        # threshold proves every later candidate is above it too.
        cc_sorted: list[tuple[float, int]] = (
            sorted(zip(self._cloud_comp, cloud_range)) if n_cloud and not rework else []
        )
        if rework:
            rw_edge = self._rw_edge_mtbf
            rw_cloud = self._rw_cloud_mtbf
            rw_link = self._rw_link_mtbf
            rw_time = expected_rework
            rw_compute = self._rw_compute

        for pos, (i, dlt) in enumerate(zip(live_l, dlt_l)):
            o = origin_l[i]
            kind = alloc_kind[i]
            on_edge = kind == ALLOC_EDGE
            k_cur = alloc_index[i] if kind == ALLOC_CLOUD else -1

            # Edge option (progress kept only if currently on the edge).
            # Rework pricing replaces the dedicated duration with its
            # expected duration under failures; the transparent branch
            # below is the historical arithmetic, bitwise.
            if rework:
                if on_edge:
                    dur = rem_work[i] / edge_speeds_l[o]
                else:
                    dur = edge_dur_l[i]
                comp_edge = edge_comp[o] + rw_compute(dur, rw_edge, edge_speeds_l[o])
                edge_score = comp_edge * _STAY if on_edge else comp_edge
            elif on_edge:
                comp_edge = edge_comp[o] + rem_work[i] / edge_speeds_l[o]
                edge_score = comp_edge * _STAY
            else:
                comp_edge = edge_comp[o] + edge_dur_l[i]
                edge_score = comp_edge

            cloud_wins = False
            if n_cloud:
                # Scalar scan over the cloud processors with the *fresh*
                # (from-scratch) amounts; the job's current cloud (where
                # progress survives) is evaluated from the remaining
                # amounts with the stay-bonus applied to its score only
                # (the reservation keeps the raw completion).  A strict
                # `<` keeps the lowest-index winner on exact ties,
                # matching argmin's first-minimum rule.
                best_score = _INF
                best_k = -1
                best_up = best_cp = best_dn = 0.0
                if rework:
                    es_o = edge_send[o]
                    er_o = edge_recv[o]
                    up_i = up_l[i]
                    dn_i = dn_l[i]
                    woc_i = woc_l[i]
                    # Expected transfer durations (link MTBF, full
                    # exposure — mid-transfer progress is never
                    # committed); compute priced per processor below.
                    up_x = rw_time(up_i, rw_link)
                    dn_x = rw_time(dn_i, rw_link)
                    rup_x = rw_time(rem_up[i] / link_rate, rw_link)
                    rdn_x = rw_time(rem_dn[i] / link_rate, rw_link)
                    for k in cloud_range:
                        cr = cloud_recv[k]
                        cc = cloud_comp[k]
                        cs = cloud_send[k]
                        if k == k_cur:
                            w = rw_compute(
                                rem_work[i] / cloud_speeds_l[k],
                                rw_cloud,
                                cloud_speeds_l[k],
                            )
                            ue = (es_o if es_o > cr else cr) + rup_x
                            ce = (ue if ue > cc else cc) + w
                            m = cs if cs > er_o else er_o
                            de = (ce if ce > m else m) + rdn_x
                            score = de * _STAY
                        else:
                            w = rw_compute(woc_i[k], rw_cloud, cloud_speeds_l[k])
                            ue = (es_o if es_o > cr else cr) + up_x
                            ce = (ue if ue > cc else cc) + w
                            m = cs if cs > er_o else er_o
                            de = (ce if ce > m else m) + dn_x
                            score = de
                        if score < best_score:
                            best_score = score
                            best_k = k
                            best_up = ue
                            best_cp = ce
                            best_dn = de
                    cloud_wins = best_score < edge_score
                else:
                    # ``thr`` is the score a candidate must strictly beat
                    # to change the outcome: the edge incumbent, tightened
                    # by every cloud improvement.  A fresh candidate's
                    # full evaluation below is the chain
                    #   ue = max(es, cr) + up,  ce = max(ue, cc) + woc[k],
                    #   de = max(ce, max(cs, er)) + dn
                    # over the origin's send/receive reservations
                    # ``es``/``er`` and the cloud's ``cr``/``cc``/``cs``.
                    # Dropping ``cr`` and ``cs`` from their ``max`` and
                    # putting the job's cheapest ``wmin`` for ``woc[k]``
                    # gives the bound
                    #   max(max(es + up, cc) + wmin, er) + dn,
                    # the same chain with every operand no larger.  IEEE
                    # rounding is monotone per operation, so the bound
                    # never exceeds the candidate's score, and it is
                    # nondecreasing in ``cc``.  A candidate whose bound is
                    # strictly above ``thr`` can neither win the argmin (a
                    # strictly smaller score exists) nor flip
                    # ``cloud_wins`` (its score is above ``edge_score``),
                    # so skipping it keeps the selected index, every
                    # reservation and every tie bitwise those of the full
                    # scan.
                    #
                    # Candidates are walked by ascending ``cc`` (the
                    # ``cc_sorted`` order), so the first failing bound
                    # ends the scan.  The lexicographic ``(score, k)``
                    # update keeps the winner independent of the walk
                    # order: it selects the lowest-index minimum, as an
                    # index-order scan's strict ``<`` does.  The job's
                    # current cloud is evaluated up front, because its
                    # score uses the remaining amounts and the stay
                    # bonus, which the fresh-candidate bound does not
                    # cover; the walk only skips it.
                    es_o = edge_send[o]
                    er_o = edge_recv[o]
                    up_i = up_l[i]
                    dn_i = dn_l[i]
                    wmin_i = woc_min_l[i]
                    woc_i = woc_l[i]
                    ue_lo = es_o + up_i
                    thr = edge_score
                    if k_cur >= 0:
                        cc = cloud_comp[k_cur]
                        cr = cloud_recv[k_cur]
                        cs = cloud_send[k_cur]
                        ue = (es_o if es_o > cr else cr) + rem_up[i] / link_rate
                        ce = (ue if ue > cc else cc) + rem_work[i] / cloud_speeds_l[k_cur]
                        m = cs if cs > er_o else er_o
                        de = (ce if ce > m else m) + rem_dn[i] / link_rate
                        best_score = de * _STAY
                        best_k = k_cur
                        best_up = ue
                        best_cp = ce
                        best_dn = de
                        if best_score < thr:
                            thr = best_score
                    for cc, k in cc_sorted:
                        lo = (cc if cc > ue_lo else ue_lo) + wmin_i
                        if prune and (lo if lo > er_o else er_o) + dn_i > thr:
                            break
                        if k == k_cur:
                            continue
                        cr = cloud_recv[k]
                        cs = cloud_send[k]
                        ue = (es_o if es_o > cr else cr) + up_i
                        ce = (ue if ue > cc else cc) + woc_i[k]
                        m = cs if cs > er_o else er_o
                        de = (ce if ce > m else m) + dn_i
                        if de < best_score or (de == best_score and k < best_k):
                            best_score = de
                            best_k = k
                            best_up = ue
                            best_cp = ce
                            best_dn = de
                            if de < thr:
                                thr = de
                    cloud_wins = best_score < edge_score

            if cloud_wins:
                best_time = best_dn
                # Reserve the communication/computation windows.
                edge_send[o] = best_up
                cloud_recv[best_k] = best_up
                if not rework:
                    # The winner's entry moves later (its completion can
                    # only grow: best_cp >= cloud_comp[best_k]), so the
                    # vacated index lower-bounds the re-insertion.
                    idx = bisect_left(cc_sorted, (cloud_comp[best_k], best_k))
                    del cc_sorted[idx]
                    insort(cc_sorted, (best_cp, best_k), idx)
                cloud_comp[best_k] = best_cp
                cloud_send[best_k] = best_dn
                edge_recv[o] = best_time
                kinds_append(ALLOC_CLOUD)
                indices_append(best_k)
            else:
                best_time = comp_edge
                edge_comp[o] = comp_edge
                kinds_append(ALLOC_EDGE)
                indices_append(o)

            completions_append(best_time)
            missed = best_time > dlt
            if explain_rows is not None:
                explain_rows.append(
                    {
                        "job": i,
                        "kind": "cloud" if cloud_wins else "edge",
                        "index": best_k if cloud_wins else o,
                        "completion": best_time,
                        "deadline": dl_l[pos],
                        "missed": missed,
                        "edge_completion": comp_edge,
                        "cloud_index": best_k if n_cloud else -1,
                        "cloud_completion": best_dn if n_cloud else None,
                    }
                )
            if missed:
                feasible = False
                if short_circuit:
                    return PlacementResult(
                        jobs=live_l[: pos + 1],
                        kinds=kinds_l,
                        indices=indices_l,
                        completions=completions_l,
                        feasible=False,
                        complete=False,
                        explain=explain_rows,
                    )

        result = PlacementResult(
            jobs=live_l,
            kinds=kinds_l,
            indices=indices_l,
            completions=completions_l,
            feasible=feasible,
            explain=explain_rows,
        )
        if key is not None:
            # Complete pass: reusable by any same-order probe of this
            # decision (short-circuited passes are partial, not cached).
            reuse[key] = result
        return result


# -- decision reuse ----------------------------------------------------------


class ReplayCache:
    """Structural shadow of one placement's reservation schedule.

    A constructive EDF placement *is* a schedule: per exclusive resource
    (edge unit, edge send/recv port, cloud unit, cloud recv/send port) a
    FIFO queue of (job, phase) segments in reservation order.  Replaying
    the cached decision at a later event is exact when the engine's
    progress since the cache was built matches that schedule — then
    every surviving segment's *absolute* window is unchanged (in exact
    arithmetic), a rebuild would retrace the same argmin comparisons,
    and the decision columns come out identical.

    Crucially, the placement's reservation chain for a cloud job always
    runs through all six resources, even for phases the attempt has
    already completed: a staying job with ``rem_up == 0`` still reserves
    its origin's send port and the cloud's receive port for a
    *zero-length* window ``ue = max(edge_send, cloud_recv)``, which
    delays its modeled compute start behind pending port traffic — while
    the engine, which has no such coupling, computes it immediately.
    Those zero-length reservations are tracked as *phantom* segments:
    they hold their queue slot (later jobs' windows are computed behind
    them) and complete instantly once they reach the head of all their
    queues.  A job whose real segment sits behind an unresolved phantom
    chain is not expected to progress; if the engine advances it anyway,
    the cache is invalidated — this is exactly the situation where a
    rebuild's windows would drift from the cached ones.

    The cache tracks all of this with integers only (queue heads and
    per-job segment pointers — no floating-point window comparisons,
    which could drift relative to the engine's own event arithmetic) and
    checks the engine against it post-hoc:

    * the set of jobs whose remaining amounts changed over the last
      step must equal the set of segments at the head of all their
      queues (:meth:`check_progress`);
    * every ``UplinkDone``/``ComputeDone`` event must complete exactly
      the segment the schedule says is running (:meth:`advance`).

    Any mismatch — a greedily granted job running ahead of its
    reservation, a stalled resource, an unexpected event — marks the
    cache invalid and the caller rebuilds.  Job completions and
    releases change the live set and are handled by the caller's
    live-set hash; aborts reset remaining amounts and are caught by the
    caller's ``rem_epoch`` check before this class is consulted.
    """

    def __init__(
        self,
        view: SimulationView,
        placed: PlacementResult,
        phantoms: tuple[list[bool], list[bool]],
    ):
        """Shadow ``placed``'s reservation schedule.

        ``phantoms`` carries the per-entry uplink/compute phantom flags
        *as captured at decision time* by :class:`SsfEdfScheduler` (an
        exhausted phase still reserves its resources for a zero-length
        window — a phantom).  The cache is built lazily, when the view's
        remaining amounts have moved on, so the flags cannot be derived
        here.
        """
        instance = view.instance
        n_edge = view.platform.n_edge
        n_cloud = view.platform.n_cloud
        # Queue ids: edge compute, edge send, edge recv, then cloud
        # compute, cloud recv, cloud send.
        q_es = n_edge
        q_er = 2 * n_edge
        q_cc = 3 * n_edge
        q_cr = q_cc + n_cloud
        q_cs = q_cr + n_cloud
        n_queues = 3 * n_edge + 3 * n_cloud
        self._queues: list[list[tuple]] = [[] for _ in range(n_queues)]
        self._heads = [0] * n_queues
        self._job_tokens: dict[int, list[tuple]] = {}
        self._job_ptr: dict[int, int] = {}
        #: Jobs whose current segment is running (real, at every head).
        self._expected: set[int] = set()
        up_ph, work_ph = phantoms

        origin = instance.origin
        queues = self._queues
        for pos, (i, kind, idx) in enumerate(zip(placed.jobs, placed.kinds, placed.indices)):
            if kind == ALLOC_EDGE:
                t = (i, _P_COMP, (idx,), False)
                tokens = [t]
                queues[idx].append(t)
            else:
                o = origin[i]
                # The trailing downlink is always a real segment: if the
                # engine finishes the job straight from ComputeDone
                # (dn == 0), a JobDone event invalidates the cache
                # before it is ever consulted.
                t_up = (i, _P_UP, (q_es + o, q_cr + idx), up_ph[pos])
                t_comp = (i, _P_COMP, (q_cc + idx,), work_ph[pos])
                t_dn = (i, _P_DN, (q_cs + idx, q_er + o), False)
                tokens = [t_up, t_comp, t_dn]
                queues[q_es + o].append(t_up)
                queues[q_cr + idx].append(t_up)
                queues[q_cc + idx].append(t_comp)
                queues[q_cs + idx].append(t_dn)
                queues[q_er + o].append(t_dn)
            self._job_tokens[i] = tokens
            self._job_ptr[i] = 0

        # A job's first segment runs from the start iff it heads every
        # queue it needs (an empty prefix on each of its resources);
        # phantoms that start at the head complete instantly and may
        # cascade further activations.
        self._activate([tokens[0] for tokens in self._job_tokens.values()])

    def _is_active(self, token: tuple) -> bool:
        """Is ``token`` its job's current segment and at the head of its queues?"""
        i = token[0]
        ptr = self._job_ptr[i]
        tokens = self._job_tokens[i]
        if ptr >= len(tokens) or tokens[ptr] is not token:
            return False
        queues = self._queues
        heads = self._heads
        for q in token[2]:
            queue = queues[q]
            h = heads[q]
            if h >= len(queue) or queue[h] is not token:
                return False
        return True

    def _activate(self, candidates: list[tuple]) -> None:
        """Mark newly startable segments; pop phantom chains instantly."""
        queues = self._queues
        heads = self._heads
        stack = candidates
        while stack:
            token = stack.pop()
            if not self._is_active(token):
                continue
            if not token[3]:
                self._expected.add(token[0])
                continue
            # Phantom: a zero-length reservation completes the moment
            # it can start; its successors become candidates.
            job = token[0]
            for q in token[2]:
                heads[q] += 1
            ptr = self._job_ptr[job] + 1
            self._job_ptr[job] = ptr
            for q in token[2]:
                queue = queues[q]
                h = heads[q]
                if h < len(queue):
                    stack.append(queue[h])
            tokens = self._job_tokens[job]
            if ptr < len(tokens):
                stack.append(tokens[ptr])

    def check_progress(self, changed: set[int]) -> bool:
        """Did exactly the scheduled segments progress over the last step?

        ``changed`` holds the live jobs whose remaining amounts changed
        since the cache's last snapshot; the cached placement covers
        the same live set.  Exactness: a changed job progressed on its
        cached phase at its cached rate (phase and resource are fixed by
        the cached assignment), and all active jobs share the engine's
        ``dt`` — so set equality implies amount equality.
        """
        return changed == self._expected

    def advance(self, events) -> bool:
        """Consume the step's completion events; False on any divergence."""
        for ev in events:
            kind = ev.kind
            if kind is EventKind.UPLINK_DONE:
                if not self._pop(ev.job, _P_UP):
                    return False
            elif kind is EventKind.COMPUTE_DONE:
                if not self._pop(ev.job, _P_COMP):
                    return False
            # Fault/availability transitions don't touch the schedule:
            # if they stall or abort progress, the next progress check
            # or the caller's epoch check catches it.
        return True

    def _pop(self, job: int, phase: int) -> bool:
        """Complete the running segment of ``job``; promote successors."""
        tokens = self._job_tokens.get(job)
        if tokens is None:
            return False
        ptr = self._job_ptr[job]
        if ptr >= len(tokens):
            return False
        token = tokens[ptr]
        if token[1] != phase or token[3]:
            # Wrong phase, or a completion event for a segment the
            # schedule modeled as zero-length: divergence.
            return False
        queues = self._queues
        heads = self._heads
        qs = token[2]
        for q in qs:
            queue = queues[q]
            h = heads[q]
            if h >= len(queue) or queue[h] is not token:
                return False
        for q in qs:
            heads[q] += 1
        self._job_ptr[job] = ptr + 1
        self._expected.discard(job)
        candidates = []
        for q in qs:
            h = heads[q]
            queue = queues[q]
            if h < len(queue):
                candidates.append(queue[h])
        if ptr + 1 < len(tokens):
            candidates.append(tokens[ptr + 1])
        self._activate(candidates)
        return True
