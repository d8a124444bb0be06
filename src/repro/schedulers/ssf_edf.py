"""The SSF-EDF heuristic (Section V-D).

Stretch-so-Far Earliest-Deadline-First, adapted from Bender et al. to
the edge-cloud platform:

* at every *release* event, find (by binary search, to relative
  precision ``eps``) the smallest target stretch ``S`` such that the
  constructive EDF placement below meets every deadline
  ``d_i = r_i + S * min_time_i`` (``alpha = 1`` by default, the
  Δ-competitive choice of [3]); the stretch-so-far estimate never
  decreases across releases;
* given deadlines, jobs are placed in EDF order, each on the processor
  where it would complete the earliest given the reservations made for
  earlier (more urgent) jobs — a cloud placement reserves, in order,
  the origin's send port + the cloud's receive port, the cloud compute
  unit, then the cloud's send port + the origin's receive port;
* the placement (in deadline order) is the decision used until the next
  event; at non-release events it is rebuilt with unchanged deadlines.

As the paper notes, EDF is not optimal in this setting (communications
break the single-machine argument), so the binary search yields the
best target the *placement rule* can certify, not the true optimum.

The placement itself runs on the :class:`EdfPlacementKernel` of
:mod:`repro.schedulers.placement`, and this scheduler is *incremental*
without changing any schedule (see docs/ALGORITHMS.md, "Complexity and
hot path"):

* binary-search probes short-circuit at the first missed deadline;
* ``alpha == 1`` releases adopt the final feasible probe's placement —
  the search always returns the stretch of its last feasible probe, so
  the decision's deadlines (and hence its placement) are bitwise those
  of that probe;
* non-release events replay the cached placement when an exact
  invalidation check passes: the live set, the remaining-amount
  epoch of :class:`~repro.sim.view.SimulationView` (faults/aborts bump
  it), and the structural progress check of
  :class:`~repro.schedulers.placement.ReplayCache` — which verifies the
  engine actually executed the cached reservation schedule, the
  condition under which a rebuild would reproduce the cached decision.

Hot-path counters are exported via :meth:`telemetry_counters` (the
``scheduler`` telemetry monitor of :mod:`repro.obs.monitors`).
"""

from __future__ import annotations

from typing import Sequence

from repro.schedulers.base import BaseScheduler, has_release
from repro.schedulers.placement import (
    DecisionProvenance,
    EdfPlacementKernel,
    PlacementResult,
    PlacementStats,
    ProbeRecord,
    ReplayCache,
)
from repro.sim.decision import Decision
from repro.sim.events import Event
from repro.sim.view import SimulationView
from repro.core.resources import Resource, cloud, edge
from repro.sim.state import ALLOC_CLOUD, ALLOC_EDGE
from repro.util.float_cmp import DEFAULT_ABS_TOL
from repro.util.search import binary_search_min

_TOL = 1e-9


class SsfEdfScheduler(BaseScheduler):
    """Stretch-so-far EDF for the edge-cloud platform.

    ``incremental=False`` disables the decision-reuse layer (probe
    adoption and cached replay) and rebuilds the placement at every
    event, as the historical implementation did.  Both modes produce
    bit-identical schedules — the flag exists for A/B verification and
    diagnostics.

    ``failure_aware=True`` registers as ``ssf-edf-fa``: the placement
    kernel is built on the *discounted* capacity outlook — effective
    rates scaled by steady-state availability, and reservation
    timelines floored at the expected recovery of currently-down
    resources (see :mod:`repro.capacity`).  With no fault model on the
    run (no rates attached to the trace) the discounted outlook is
    transparent and the schedule is identical to plain ``ssf-edf``.

    Cross-event replay in failure-aware mode is *fault-epoch scoped*:
    a cache established in one epoch is invalidated outright when a
    fault or availability boundary bumps
    :attr:`~repro.sim.view.SimulationView.fault_epoch` (counted as
    ``scheduler.epoch_invalidations``).  Replay additionally requires
    the kernel's arithmetic to be provably exact — true when the
    discounted outlook degenerates to the transparent one (no fault
    model on the trace), where placements are bitwise those of plain
    mode.  With an actual expectation discount the kernel's modeled
    windows (effective rates) no longer match the engine's execution
    exactly, exactness cannot be proven, and replay stays disabled;
    probe adoption within one decision always remains.

    ``rework_pricing=True`` (requires ``failure_aware``) registers as
    ``ssf-edf-fa-rework``: candidate completion estimates additionally
    price the *expected re-execution time* of each uncheckpointed
    exposure window under the fault trace's exponential failure model,
    including the long-job split rule when the run carries a periodic
    :class:`~repro.sim.checkpoint.CheckpointPolicy` (see
    :meth:`EdfPlacementKernel` and docs/ALGORITHMS.md).  With no fault
    model attached the pricing is the identity and the schedule
    degenerates to ``ssf-edf-fa``.
    """

    name = "ssf-edf"

    def __init__(
        self,
        *,
        eps: float = 1e-3,
        alpha: float = 1.0,
        incremental: bool = True,
        failure_aware: bool = False,
        rework_pricing: bool = False,
    ):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if rework_pricing and not failure_aware:
            raise ValueError("rework_pricing requires failure_aware=True")
        self.eps = eps
        self.alpha = alpha
        self.incremental = incremental
        self.failure_aware = failure_aware
        self.rework_pricing = rework_pricing
        if failure_aware:
            self.name = "ssf-edf-fa-rework" if rework_pricing else "ssf-edf-fa"
        # Cached replay assumes the kernel's modeled windows match the
        # engine's execution exactly; an actual expectation discount
        # breaks that premise, so discounted failure-aware runs keep
        # probe adoption (no time passes within one decision) but never
        # replay across events.  _bind() refines this per run: a
        # degenerate discount (no fault model) leaves the kernel's
        # arithmetic bitwise plain and re-enables replay, scoped to the
        # fault epoch.
        self._replay_enabled = incremental and not failure_aware
        self._stretch_so_far = 1.0
        self._hint: float | None = None
        self._has_deadlines = False
        #: Per-job deadlines of the last release decision, and the
        #: instance's release dates and minimal times they derive from.
        self._deadlines: list[float] = []
        self._release: list[float] = []
        self._min_time: list[float] = []
        self._kernel: EdfPlacementKernel | None = None
        self._stats = PlacementStats()
        self._cache: ReplayCache | None = None
        self._cache_seed: tuple | None = None
        self._cache_placed: PlacementResult | None = None
        self._cache_live: list[int] = []
        self._cache_epoch = -1
        self._cache_fault_epoch = -1
        self._fresh: tuple[list[float], list[float], list[float]] = ([], [], [])
        self._snap_up: list[float] = []
        self._snap_work: list[float] = []
        self._snap_dn: list[float] = []
        # Decision provenance is opt-in (the engine forwards the request
        # of provenance-collecting hooks via set_provenance); off, the
        # hot path does no explanation bookkeeping at all.
        self._provenance = False
        self._pending_prov: DecisionProvenance | None = None

    def start(self, view: SimulationView) -> None:
        """Reset all per-run state (ratchet, kernel, cache, hint, counters)."""
        self._bind(view)

    def set_provenance(self, enabled: bool) -> None:
        """Engine request: attach :class:`DecisionProvenance` to every
        decision (True exactly when a registered hook consumes it)."""
        self._provenance = bool(enabled)
        self._pending_prov = None

    def telemetry_counters(self) -> dict[str, float]:
        """This run's hot-path counters (``scheduler.*`` namespace)."""
        if self._kernel is not None:
            self._stats.outlook_queries = self._kernel.outlook.n_queries
            self._stats.outlook_delta_updates = self._kernel.outlook.n_delta_updates
            self._stats.partial_rebuilds = self._kernel.partial_rebuilds
            self._stats.pass_reuses = self._kernel.pass_reuses
        return self._stats.as_counters()

    def _bind(self, view: SimulationView) -> None:
        """Build the per-run kernel and wipe every piece of cached state."""
        instance = view.instance
        self._stretch_so_far = 1.0
        self._hint = None
        self._has_deadlines = False
        self._deadlines = [0.0] * instance.n_jobs
        self._release = instance.release.tolist()
        self._min_time = instance.min_time.tolist()
        self._kernel = EdfPlacementKernel(
            view,
            failure_aware=self.failure_aware,
            rework_pricing=self.rework_pricing,
        )
        # Checkpoint commits advance the remaining amounts outside the
        # cached reservation schedule (and watermark restores break the
        # from-scratch snapshot of moved jobs), so cross-event replay is
        # off for checkpointed runs; everything else is unchanged.
        policy = view.checkpoint_policy
        if policy is not None and policy.checkpoints_enabled:
            self._replay_enabled = False
        else:
            # Replay is exact when the kernel's arithmetic is bitwise
            # the plain (transparent) placement: always in plain mode,
            # and in failure-aware mode exactly when the discounted
            # outlook degenerated (kernel.failure_aware is False then).
            # A real discount keeps replay off — exactness unprovable.
            self._replay_enabled = self.incremental and not (
                self.failure_aware and self._kernel.failure_aware
            )
        self._stats = PlacementStats()
        self._cache = None
        self._cache_seed = None
        self._cache_placed = None
        self._cache_live = []
        self._cache_epoch = -1
        self._cache_fault_epoch = -1
        self._fresh = (instance.up.tolist(), instance.work.tolist(), instance.dn.tolist())
        self._snap_up, self._snap_work, self._snap_dn = [], [], []

    def decide(self, view: SimulationView, events: Sequence[Event]) -> Decision:
        decision = Decision()
        live = view.live_jobs().tolist()
        if not live:
            self._cache = None
            self._cache_seed = None
            return decision
        if self._kernel is None or self._kernel.instance is not view.instance:
            # Defensive: the engine always calls start(); direct decide()
            # calls (tests, tools) get a fresh binding.
            self._bind(view)

        if has_release(events) or not self._has_deadlines:
            placed = self._release_placement(view, live)
        else:
            placed = self._replay_or_rebuild(view, live, events)

        # The placement covers every live job, so there is no
        # work-conserving leftover tail to append.
        decision.add_bulk(placed.jobs, placed.kinds, placed.indices)
        if self._pending_prov is not None:
            decision.provenance = self._pending_prov
            self._pending_prov = None
        return decision

    # -- release path ----------------------------------------------------------

    def _release_placement(self, view: SimulationView, live: list[int]) -> PlacementResult:
        """Binary-search the stretch target, refresh deadlines, place.

        ``binary_search_min`` returns the stretch of the *last probe
        that came back feasible* (the feasible bracket end only moves on
        feasible probes).  With ``alpha == 1`` the decision's target
        equals that stretch bitwise, its deadlines are the same
        ``r + stretch * m`` expressions the probe evaluated (a product,
        then a sum: the two IEEE operations per job of the historical
        NumPy expression), and the probe's placement can therefore be
        adopted as the decision without re-running the constructive
        pass.
        """
        release = [self._release[j] for j in live]
        min_time = [self._min_time[j] for j in live]
        kernel = self._kernel
        stats = self._stats
        last_feasible: list = [None]
        prov = self._provenance
        probes_rec: list[ProbeRecord] | None = [] if prov else None
        # Per-decision pass cache: probes whose deadline vectors sort
        # the jobs identically share one constructive pass (the pass
        # reads deadlines only through the order; see place()).
        pass_cache: dict | None = {} if self.incremental else None

        def feasible(stretch: float) -> bool:
            stats.probes += 1
            deadlines = [r + stretch * m for r, m in zip(release, min_time)]
            # Probes never need explain rows (the probe record reads
            # jobs/completions only), so the pass cache stays usable —
            # and the counters stay identical — with provenance on.
            res = kernel.place(view, live, deadlines, short_circuit=True, reuse=pass_cache)
            if res.feasible:
                last_feasible[0] = (stretch, res)
            elif not res.complete:
                stats.probe_short_circuits += 1
            if probes_rec is not None:
                if res.feasible:
                    probes_rec.append(ProbeRecord(stretch, True, False))
                else:
                    # Short-circuited or not, the last placed job is the
                    # first (most urgent) deadline miss — the violator.
                    vj = res.jobs[-1]
                    probes_rec.append(
                        ProbeRecord(
                            stretch,
                            False,
                            not res.complete,
                            violator=vj,
                            violator_completion=res.completions[-1],
                            violator_deadline=self._release[vj]
                            + stretch * self._min_time[vj],
                        )
                    )
            return res.feasible

        lo = max(1.0, self._stretch_so_far)
        hi = max(2.0 * lo, 2.0)
        best = binary_search_min(feasible, lo, hi, eps=self.eps, hint=self._hint)
        self._hint = best
        self._stretch_so_far = max(self._stretch_so_far, best)

        target = self.alpha * self._stretch_so_far
        deadlines = [r + target * m for r, m in zip(release, min_time)]
        for j, dl in zip(live, deadlines):
            self._deadlines[j] = dl
        self._has_deadlines = True

        lf = last_feasible[0]
        if self.incremental and lf is not None and lf[0] == best and target == best:
            stats.probe_reuses += 1
            placed = lf[1]
            path = "probe_adoption"
            if prov:
                # Rows for the adopted placement: an observation-only
                # explain pass over the decision deadlines (bitwise the
                # adopted probe's pass — ``target == best`` makes the
                # deadline vectors equal).  Moves no counters, so traced
                # and untraced runs stay stat-identical.
                placed = kernel.place(view, live, deadlines, explain=True)
        else:
            stats.rebuilds += 1
            placed = kernel.place(view, live, deadlines, explain=prov, reuse=pass_cache)
            path = "rebuild"
        self._establish_cache(view, live, placed)
        if prov:
            self._pending_prov = DecisionProvenance(
                path=path,
                target_stretch=float(target),
                probes=probes_rec,
                placements=placed.explain,
                floors=kernel.floor_report(view.now),
            )
        return placed

    # -- non-release path ------------------------------------------------------

    def _replay_or_rebuild(
        self, view: SimulationView, live: list[int], events: Sequence[Event]
    ) -> PlacementResult:
        """Replay the cached placement if provably exact, else rebuild.

        Invalidation (any failure → full rebuild with the unchanged
        deadlines): the remaining-amount epoch moved (a fault aborted an
        attempt, or anything else reset progress), the live set changed
        (a completion), the engine's observed progress diverged from the
        cached reservation schedule, or a completion event doesn't match
        the segment the schedule says is running.  Failure-aware runs
        additionally scope the cache to the fault epoch: any boundary
        since the cache was established invalidates outright, even one
        with no aborts, since the kernel's view of resource health may
        have changed (plain mode needs no such guard — its kernel never
        reads fault state, so a rebuild across a quiet boundary is
        bitwise the cached placement).
        """
        stats = self._stats
        if (
            self.failure_aware
            and self._replay_enabled
            and self._cache_seed is not None
            and view.fault_epoch != self._cache_fault_epoch
        ):
            stats.epoch_invalidations += 1
            self._cache_seed = None
        if (
            self._replay_enabled
            and self._cache_seed is not None
            and view.rem_epoch == self._cache_epoch
            and live == self._cache_live
        ):
            # Cheap guards passed — only now is the structural shadow
            # worth having.  Building it lazily (from the flags captured
            # at decision time) skips construction entirely for caches
            # the next event invalidates outright, the common case under
            # load.
            cache = self._cache
            if cache is None:
                placed_c, up_ph, work_ph = self._cache_seed
                cache = self._cache = ReplayCache(view, placed_c, phantoms=(up_ph, work_ph))
            if cache.check_progress(self._changed_jobs(view, live)) and cache.advance(events):
                self._snapshot(view)
                stats.replays += 1
                if self._provenance:
                    self._set_event_prov("replay", self._cache_placed, view.now)
                return self._cache_placed

        deadlines = self._deadlines
        placed = self._kernel.place(
            view, live, [deadlines[j] for j in live], explain=self._provenance
        )
        stats.rebuilds += 1
        self._establish_cache(view, live, placed)
        if self._provenance:
            self._set_event_prov("rebuild", placed, view.now)
        return placed

    def _set_event_prov(self, path: str, placed: PlacementResult, now: float) -> None:
        """Provenance for a non-release decision (no binary search ran)."""
        self._pending_prov = DecisionProvenance(
            path=path,
            target_stretch=float(self.alpha * self._stretch_so_far),
            probes=[],
            placements=placed.explain,
            floors=self._kernel.floor_report(now),
        )

    def _changed_jobs(self, view: SimulationView, live: list[int]) -> set[int]:
        """The live jobs whose remaining amounts changed since the snapshot."""
        up, work, dn = view.rem_up, view.rem_work, view.rem_dn
        snap_up, snap_work, snap_dn = self._snap_up, self._snap_work, self._snap_dn
        return {
            j
            for j in live
            if up[j] != snap_up[j] or work[j] != snap_work[j] or dn[j] != snap_dn[j]
        }

    def _snapshot(self, view: SimulationView) -> None:
        """Record the remaining amounts the next progress check diffs against."""
        self._snap_up = view.rem_up.copy()
        self._snap_work = view.rem_work.copy()
        self._snap_dn = view.rem_dn.copy()

    def _establish_cache(
        self, view: SimulationView, live: list[int], placed: PlacementResult
    ) -> None:
        """Cache ``placed`` for replay at subsequent non-release events."""
        if not self._replay_enabled:
            return
        # Defer ReplayCache construction to the first non-release event
        # that passes the cheap guards; only the phantom flags must be
        # captured now, while the remaining amounts still describe this
        # decision (see ReplayCache).  An entry *moves* when its
        # resource differs from the current allocation; a cloud entry
        # that does not move keeps its attempt's remaining amounts, and
        # every other entry starts from the fresh ones.
        alloc_kind, alloc_index = view.alloc_kind, view.alloc_index
        rem_up, rem_work = view.rem_up, view.rem_work
        up0, work0, dn0 = self._fresh
        moved: list[int] = []
        up_ph: list[bool] = []
        work_ph: list[bool] = []
        for j, kind, idx in zip(placed.jobs, placed.kinds, placed.indices):
            if alloc_kind[j] != kind or alloc_index[j] != idx:
                moved.append(j)
                stays = False
            else:
                stays = kind == ALLOC_CLOUD
            up_ph.append((rem_up[j] if stays else up0[j]) <= DEFAULT_ABS_TOL)
            work_ph.append((rem_work[j] if stays else work0[j]) <= DEFAULT_ABS_TOL)
        self._cache = None
        self._cache_seed = (placed, up_ph, work_ph)
        self._cache_placed = placed
        self._cache_live = live
        # The engine bumps the remaining-amount epoch once per entry
        # whose resource differs from the current allocation; predict
        # the post-application value so our own assignment doesn't
        # invalidate the cache (a fault abort still will).
        self._cache_epoch = view.rem_epoch + len(moved)
        self._cache_fault_epoch = view.fault_epoch
        # Snapshot the post-application amounts: moved jobs restart
        # from scratch the instant the decision is applied.
        self._snapshot(view)
        for j in moved:
            self._snap_up[j] = up0[j]
            self._snap_work[j] = work0[j]
            self._snap_dn[j] = dn0[j]


def _edf_placement(
    view: SimulationView, live: list[int], deadlines: list[float]
) -> tuple[list[tuple[int, Resource]], list[float], bool]:
    """Constructive EDF placement (compatibility wrapper over the kernel).

    Processes the ascending ``live`` jobs by non-decreasing deadline;
    each reserves time on the resource minimizing its completion given
    earlier reservations.  Returns the ordered placement, the per-job
    completion estimates (in placement order), and whether every
    deadline was met.
    """
    placed = EdfPlacementKernel(view).place(view, live, deadlines)
    placement = [
        (j, edge(idx) if kind == ALLOC_EDGE else cloud(idx))
        for j, kind, idx in zip(placed.jobs, placed.kinds, placed.indices)
    ]
    return placement, placed.completions, placed.feasible
