"""Telemetry monitors: ship-with hooks that populate a metrics registry.

Each monitor is an :class:`~repro.sim.hooks.EngineHooks` subclass that
is also a :class:`~repro.obs.telemetry.TelemetrySource`: it observes one
run through the hook callbacks, accumulates into plain Python floats,
and finalizes a namespaced :class:`~repro.obs.metrics.MetricsRegistry`
in ``on_finish``.  All accumulation is *simulation-time* arithmetic —
no wall clocks, no randomness — so two identical runs produce
byte-identical telemetry regardless of which process executed them.

Ship-with monitors (registered hook names in parentheses):

``UtilizationMonitor`` (``"util"``)
    Busy fractions and normalized busy timelines for the four exclusive
    resource classes of the platform: edge compute units, cloud compute
    slots, uplinks and downlinks.
``QueueDepthMonitor`` (``"queue"``)
    Ready-but-not-running jobs over time: a time-weighted depth
    histogram, mean/max gauges and a normalized depth timeline.
``JobStatsMonitor`` (``"jobstats"``)
    Per-job outcome distributions: stretch and wait-ratio histograms
    and the run's max stretch.
``ReexecutionAccountant`` (``"reexec"``)
    Work thrown away by the no-migration rule: every re-assignment
    aborts the previous attempt, and whatever uplink/compute/downlink
    progress that attempt had made is wasted.
``FaultMonitor`` (``"faults"``)
    Fault accounting when a :class:`repro.faults.FaultTrace` is
    injected: crash/outage counts, attempts aborted by faults, the
    progress those aborts threw away, and time-to-recover per failure.
``SchedulerStatsMonitor`` (``"scheduler"``)
    Scheduler hot-path counters, republished from the scheduler's own
    ``telemetry_counters()`` (SSF-EDF: binary-search probes,
    short-circuited probes, placement rebuilds, probe adoptions, cache
    replays).

:data:`DEFAULT_TELEMETRY_HOOKS` names all six — it is what the CLIs
instrument with when ``--telemetry-out`` is given without explicit
``--instrument`` flags.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetrySource
from repro.sim.events import EventKind
from repro.sim.hooks import EngineHooks, StretchWatermarkMonitor, register_hook
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK
from repro.sim.state import ALLOC_EDGE

#: Bins of every normalized utilization/queue timeline (the run's time
#: horizon ``[0, makespan]`` is split into this many equal bins).
TIMELINE_BINS = 50

#: Histogram bucket upper bounds for per-job stretch (dimensionless, >= 1).
STRETCH_EDGES = (
    1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0,
    13.0, 16.0, 20.0, 25.0, 32.0, 40.0, 50.0, 65.0, 80.0, 100.0, 150.0,
    200.0, 300.0, 500.0, 1000.0,
)

#: Bucket upper bounds for the wait ratio ``stretch - 1`` (time spent
#: waiting/lost, normalized by the job's dedicated-system time).
WAIT_RATIO_EDGES = (
    0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 51.2,
    102.4, 204.8, 409.6, 819.2,
)

#: Bucket upper bounds for the ready-queue depth (jobs).
QUEUE_DEPTH_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: Bucket upper bounds for wasted amount per aborted attempt (model units).
WASTED_EDGES = (
    0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0,
    3000.0, 10000.0,
)

#: Bucket upper bounds for per-failure downtime (model time units).
DOWNTIME_EDGES = (
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0,
)

#: The hook names the CLIs instrument with for full telemetry.
DEFAULT_TELEMETRY_HOOKS = ("util", "queue", "jobstats", "reexec", "faults", "scheduler")


def _bin_time_weighted(
    segments: Iterable[tuple[float, float, float]], horizon: float, n_bins: int
) -> list[float]:
    """Time-weighted average of a piecewise-constant signal per bin.

    ``segments`` are ``(t0, t1, value)`` pieces; the horizon ``[0,
    horizon]`` is split into ``n_bins`` equal bins and each bin reports
    the average of the signal over the bin (pieces are apportioned by
    exact overlap, values outside every piece count as 0).
    """
    bins = [0.0] * n_bins
    if horizon <= 0.0:
        return bins
    width = horizon / n_bins
    for t0, t1, value in segments:
        if value == 0.0 or t1 <= t0:
            continue
        b0 = min(int(t0 / width), n_bins - 1)
        b1 = min(int(t1 / width), n_bins - 1)
        for b in range(b0, b1 + 1):
            overlap = min(t1, (b + 1) * width) - max(t0, b * width)
            if overlap > 0.0:
                bins[b] += value * overlap
    return [v / width for v in bins]


class UtilizationMonitor(EngineHooks, TelemetrySource):
    """Per-resource-class busy fractions and normalized busy timelines.

    The model's exclusive resources fall into four classes — edge
    compute units, cloud compute slots, uplinks (edge send + cloud
    receive port pairs) and downlinks (cloud send + edge receive) — and
    every granted activity occupies exactly one class for the duration
    of a step.  This monitor integrates busy resource-time per class
    and reports, per class:

    * ``util.<class>.busy_frac`` — busy resource-time over capacity ×
      makespan (a gauge in ``[0, 1]``; merging reps averages);
    * ``util.<class>.timeline`` — mean utilization per time bin over
      the normalized horizon (:data:`TIMELINE_BINS` bins).

    Link capacity is ``min(n_edge, n_cloud)`` concurrent transfers per
    direction (each edge unit has one send and one receive port, each
    cloud slot one receive and one send port).  ``util.horizon``
    records the makespan the timelines were normalized by.
    """

    _CLASSES = ("edge", "cloud", "uplink", "downlink")

    def __init__(self) -> None:
        self._registry = MetricsRegistry()
        self._view = None
        #: (t0, t1, busy count per class) per engine step.
        self._segments: list[tuple[float, float, int, int, int, int]] = []
        self._busy = [0.0, 0.0, 0.0, 0.0]

    def on_start(self, view) -> None:
        """Keep the view: allocation arrays locate compute activities."""
        self._view = view

    def on_step(self, t0: float, t1: float, jobs, acts, rates) -> None:
        """Tally how many resources of each class ran during ``[t0, t1)``."""
        dt = t1 - t0
        kind = self._view.alloc_kind
        n_up = acts.count(ACT_UPLINK)
        n_dn = acts.count(ACT_DOWNLINK)
        n_edge = 0
        for job, act in zip(jobs, acts):
            if act == ACT_COMPUTE and kind[job] == ALLOC_EDGE:
                n_edge += 1
        n_cloud = len(acts) - n_up - n_dn - n_edge
        self._segments.append((t0, t1, n_edge, n_cloud, n_up, n_dn))
        busy = self._busy
        busy[0] += n_edge * dt
        busy[1] += n_cloud * dt
        busy[2] += n_up * dt
        busy[3] += n_dn * dt

    def on_finish(self, result) -> None:
        """Normalize the integrals into fractions and timelines."""
        registry = self._registry
        horizon = result.makespan
        platform = self._view.platform
        link_cap = min(platform.n_edge, platform.n_cloud)
        capacity = (platform.n_edge, platform.n_cloud, link_cap, link_cap)
        registry.gauge("util.horizon").set(horizon)
        for c, name in enumerate(self._CLASSES):
            cap = capacity[c]
            frac = (
                self._busy[c] / (cap * horizon) if cap and horizon > 0.0 else 0.0
            )
            registry.gauge(f"util.{name}.busy_frac").set(frac)
            timeline = _bin_time_weighted(
                ((s[0], s[1], float(s[2 + c])) for s in self._segments),
                horizon,
                TIMELINE_BINS,
            )
            if cap:
                timeline = [v / cap for v in timeline]
            registry.series(f"util.{name}.timeline", TIMELINE_BINS).set_values(timeline)

    def telemetry_metrics(self) -> MetricsRegistry:
        """The ``util.*`` metrics of this run."""
        return self._registry


class QueueDepthMonitor(EngineHooks, TelemetrySource):
    """Ready-but-not-running jobs over time.

    At every engine step the *depth* is the number of live (released,
    uncompleted) jobs minus the jobs actually granted an activity (each
    job holds at most one grant) — i.e. jobs that want service but got
    none this step.  Reports:

    * ``queue.depth`` — time-weighted depth histogram
      (:data:`QUEUE_DEPTH_EDGES` buckets);
    * ``queue.depth.mean`` / ``queue.depth.max`` — gauges;
    * ``queue.timeline`` — mean depth per normalized time bin.
    """

    def __init__(self) -> None:
        self._registry = MetricsRegistry()
        self._hist = self._registry.histogram("queue.depth", edges=QUEUE_DEPTH_EDGES)
        self._view = None
        self._segments: list[tuple[float, float, float]] = []
        self._weighted = 0.0
        self._elapsed = 0.0
        self._max = 0

    def on_start(self, view) -> None:
        """Keep the view: live-job sweeps define the ready set."""
        self._view = view

    def on_step(self, t0: float, t1: float, jobs, acts, rates) -> None:
        """Record the depth that held during ``[t0, t1)``, weighted by its span."""
        dt = t1 - t0
        depth = int(self._view.live_jobs().size) - len(jobs)
        if depth < 0:
            depth = 0
        self._hist.observe(depth, weight=dt)
        self._segments.append((t0, t1, float(depth)))
        self._weighted += depth * dt
        self._elapsed += dt
        if depth > self._max:
            self._max = depth

    def on_finish(self, result) -> None:
        """Finalize mean/max gauges and the normalized depth timeline."""
        registry = self._registry
        mean = self._weighted / self._elapsed if self._elapsed > 0.0 else 0.0
        registry.gauge("queue.depth.mean").set(mean)
        registry.gauge("queue.depth.max").set(float(self._max))
        registry.series("queue.timeline", TIMELINE_BINS).set_values(
            _bin_time_weighted(self._segments, result.makespan, TIMELINE_BINS)
        )

    def telemetry_metrics(self) -> MetricsRegistry:
        """The ``queue.*`` metrics of this run."""
        return self._registry


class JobStatsMonitor(EngineHooks, TelemetrySource):
    """Per-job outcome distributions (stretch and normalized wait).

    Reports, under the ``jobs.*`` namespace:

    * ``jobs.stretch`` — histogram of realized per-job stretches
      (:data:`STRETCH_EDGES` buckets; merging reps pools the
      distribution, the paper's Fig. 2 quantity);
    * ``jobs.wait_ratio`` — histogram of ``stretch - 1``, the fraction
      of each job's dedicated-system time lost to waiting, contention
      and re-execution;
    * ``jobs.max_stretch`` — gauge (per-run maximum; merging averages);
    * ``jobs.completed`` — counter (merging totals across reps).
    """

    def __init__(self) -> None:
        self._registry = MetricsRegistry()
        self._stretch = self._registry.histogram("jobs.stretch", edges=STRETCH_EDGES)
        self._wait = self._registry.histogram("jobs.wait_ratio", edges=WAIT_RATIO_EDGES)
        self._completed = self._registry.counter("jobs.completed")
        self._release = None
        self._min_time = None
        self._max_stretch = 0.0

    def on_start(self, view) -> None:
        """Capture the static per-job quantities of the instance."""
        self._release = view.instance.release
        self._min_time = view.instance.min_time

    def on_complete(self, job: int, time: float) -> None:
        """Observe the completed job's stretch and wait ratio."""
        stretch = (time - self._release[job]) / self._min_time[job]
        self._stretch.observe(stretch)
        wait_ratio = stretch - 1.0
        self._wait.observe(wait_ratio if wait_ratio > 0.0 else 0.0)
        self._completed.inc()
        if stretch > self._max_stretch:
            self._max_stretch = float(stretch)

    def on_finish(self, result) -> None:
        """Finalize the per-run maximum stretch gauge."""
        self._registry.gauge("jobs.max_stretch").set(self._max_stretch)

    def telemetry_metrics(self) -> MetricsRegistry:
        """The ``jobs.*`` metrics of this run."""
        return self._registry


class AttemptProgress(EngineHooks):
    """Per-attempt progress, integrated from the step callback.

    The shared base of :class:`ReexecutionAccountant` and
    :class:`FaultMonitor`: every ``on_assign`` opens a fresh
    ``[uplink, work, downlink]`` tally for the job's new attempt, and
    every step adds the transfers' time (rate 1) and the compute work
    (granted rate × time).  Subclasses book a tally when its attempt
    ends.
    """

    def __init__(self) -> None:
        #: job -> [uplink, work, downlink] progress of the current attempt.
        self._progress: dict[int, list[float]] = {}

    def on_assign(self, job: int, resource, now: float) -> None:
        """A new attempt opened: start a fresh progress tally."""
        self._progress[job] = [0.0, 0.0, 0.0]

    def on_step(self, t0: float, t1: float, jobs, acts, rates) -> None:
        """Integrate each active job's progress into its current attempt."""
        dt = t1 - t0
        progress = self._progress
        for job, act, rate in zip(jobs, acts, rates):
            acc = progress[job]
            if act == ACT_COMPUTE:
                acc[1] += rate * dt
            elif act == ACT_UPLINK:
                acc[0] += dt
            else:
                acc[2] += dt


class ReexecutionAccountant(AttemptProgress, TelemetrySource):
    """Work thrown away per aborted attempt.

    The model forbids migration: re-assigning a job to a different
    resource restarts it from scratch, so every ``on_assign`` after a
    job's first one aborts an attempt and discards whatever progress it
    had made.  The accountant integrates per-attempt progress
    (:class:`AttemptProgress`) and, on each abort, moves it to the
    wasted tallies:

    * ``reexec.aborted_attempts`` — counter;
    * ``reexec.wasted_uplink`` / ``reexec.wasted_work`` /
      ``reexec.wasted_downlink`` — counters (model units: time for the
      communications, work units for compute);
    * ``reexec.wasted_per_attempt`` — histogram of the total amount
      discarded by each abort (:data:`WASTED_EDGES` buckets).

    Attempts aborted by *faults* are not booked here — they are the
    :class:`FaultMonitor`'s (``faults.*``) to account, and the split
    keeps ``reexec.*`` a pure measure of scheduler-chosen migration
    waste with or without fault injection.
    """

    def __init__(self) -> None:
        super().__init__()
        self._registry = MetricsRegistry()
        self._aborted = self._registry.counter("reexec.aborted_attempts")
        self._wasted_up = self._registry.counter("reexec.wasted_uplink")
        self._wasted_work = self._registry.counter("reexec.wasted_work")
        self._wasted_dn = self._registry.counter("reexec.wasted_downlink")
        self._per_attempt = self._registry.histogram(
            "reexec.wasted_per_attempt", edges=WASTED_EDGES
        )

    def on_assign(self, job: int, resource, now: float) -> None:
        """A new attempt opened; book the aborted one's progress as waste."""
        acc = self._progress.get(job)
        if acc is not None:
            self._aborted.inc()
            self._wasted_up.inc(acc[0])
            self._wasted_work.inc(acc[1])
            self._wasted_dn.inc(acc[2])
            self._per_attempt.observe(acc[0] + acc[1] + acc[2])
        self._progress[job] = [0.0, 0.0, 0.0]

    def on_abort(self, job: int, time: float) -> None:
        """A fault killed the attempt: drop its progress without booking
        (fault waste belongs to the ``faults.*`` namespace)."""
        self._progress.pop(job, None)

    def telemetry_metrics(self) -> MetricsRegistry:
        """The ``reexec.*`` metrics of this run."""
        return self._registry


class FaultMonitor(AttemptProgress, TelemetrySource):
    """Fault accounting (crashes, outages, aborted work, recovery times).

    Shares the :class:`ReexecutionAccountant`'s progress integration
    (:class:`AttemptProgress`), but books the attempts that *faults*
    abort (the engine's ``on_abort`` callback) rather than
    scheduler-chosen migrations.
    Reports, under the ``faults.*`` namespace:

    * ``faults.crashes`` — counter of edge/cloud ``ResourceDown`` events
      (``faults.edge_crashes`` / ``faults.cloud_crashes`` split it);
    * ``faults.link_outages`` — counter of ``LinkDown`` events;
    * ``faults.aborted_attempts`` — counter of fault-killed attempts;
    * ``faults.wasted_uplink`` / ``faults.wasted_work`` /
      ``faults.wasted_downlink`` — counters of the progress those
      aborts discarded (model units);
    * ``faults.wasted_per_abort`` — histogram (:data:`WASTED_EDGES`);
    * ``faults.time_to_recover`` — histogram of per-failure downtime
      (:data:`DOWNTIME_EDGES`), one observation per down/up pair seen
      during the run (failures the run ends inside are not observed).

    When the run executes under a checkpoint/restart policy
    (:class:`repro.sim.checkpoint.CheckpointPolicy`) two more counters
    appear: ``faults.checkpoint_commits`` (durable commits taken) and
    ``faults.abandoned_jobs`` (jobs dropped after exhausting their
    retry budget).  They are created lazily on the first matching
    event, so runs without checkpointing publish the exact historical
    metric set byte for byte.

    With no fault trace injected every metric stays zero, so the hook
    is safe to instrument unconditionally (it is part of
    :data:`DEFAULT_TELEMETRY_HOOKS`).
    """

    def __init__(self) -> None:
        super().__init__()
        self._registry = MetricsRegistry()
        self._crashes = self._registry.counter("faults.crashes")
        self._edge_crashes = self._registry.counter("faults.edge_crashes")
        self._cloud_crashes = self._registry.counter("faults.cloud_crashes")
        self._outages = self._registry.counter("faults.link_outages")
        self._aborted = self._registry.counter("faults.aborted_attempts")
        self._wasted_up = self._registry.counter("faults.wasted_uplink")
        self._wasted_work = self._registry.counter("faults.wasted_work")
        self._wasted_dn = self._registry.counter("faults.wasted_downlink")
        self._per_abort = self._registry.histogram(
            "faults.wasted_per_abort", edges=WASTED_EDGES
        )
        self._recover = self._registry.histogram(
            "faults.time_to_recover", edges=DOWNTIME_EDGES
        )
        #: (event kind domain, resource) -> time it went down.
        self._down_since: dict[tuple[str, object], float] = {}

    def on_events(self, events: Sequence) -> None:
        """Count fault transitions and pair downs with ups for recovery times."""
        for ev in events:
            kind = ev.kind
            if kind is EventKind.RESOURCE_DOWN:
                self._crashes.inc()
                if ev.resource.is_edge:
                    self._edge_crashes.inc()
                else:
                    self._cloud_crashes.inc()
                self._down_since[("res", ev.resource)] = ev.time
            elif kind is EventKind.LINK_DOWN:
                self._outages.inc()
                self._down_since[("link", ev.resource)] = ev.time
            elif kind is EventKind.RESOURCE_UP:
                t0 = self._down_since.pop(("res", ev.resource), None)
                if t0 is not None:
                    self._recover.observe(ev.time - t0)
            elif kind is EventKind.LINK_UP:
                t0 = self._down_since.pop(("link", ev.resource), None)
                if t0 is not None:
                    self._recover.observe(ev.time - t0)
            elif kind is EventKind.CHECKPOINT_COMMITTED:
                # Lazy: materialize only under a checkpoint policy so
                # non-checkpointed telemetry stays byte-identical.
                self._registry.counter("faults.checkpoint_commits").inc()
            elif kind is EventKind.JOB_ABANDONED:
                # The abort that exhausted the budget already booked the
                # job's last attempt.
                self._registry.counter("faults.abandoned_jobs").inc()

    def on_abort(self, job: int, time: float) -> None:
        """Book the killed attempt's progress as fault waste."""
        acc = self._progress.pop(job)
        self._aborted.inc()
        self._wasted_up.inc(acc[0])
        self._wasted_work.inc(acc[1])
        self._wasted_dn.inc(acc[2])
        self._per_abort.observe(acc[0] + acc[1] + acc[2])

    def telemetry_metrics(self) -> MetricsRegistry:
        """The ``faults.*`` metrics of this run."""
        return self._registry


class SchedulerStatsMonitor(EngineHooks, TelemetrySource):
    """Scheduler hot-path counters, under the ``scheduler.*`` namespace.

    Schedulers may expose per-run counters through a
    ``telemetry_counters()`` method; the engine snapshots them into
    ``SimulationResult.scheduler_stats`` at the end of the run.  This
    monitor republishes that snapshot as counters (merging reps adds),
    keeping the export inside the telemetry pipeline's schema.

    SSF-EDF reports its placement-kernel work: ``scheduler.probes``
    (binary-search feasibility probes), ``scheduler.probe_short_circuits``
    (probes aborted at the first missed deadline),
    ``scheduler.rebuilds`` (full placement constructions used as
    decisions), ``scheduler.probe_reuses`` (release decisions adopting
    the final feasible probe's placement) and ``scheduler.replays``
    (non-release decisions served from the reuse cache).  Schedulers
    without counters contribute no metrics (report cells render '-').
    """

    def __init__(self) -> None:
        self._registry = MetricsRegistry()

    def on_finish(self, result) -> None:
        """Republish the result's scheduler counter snapshot, if any."""
        stats = getattr(result, "scheduler_stats", None)
        if not stats:
            return
        for name, value in stats.items():
            self._registry.counter(name).inc(value)

    def telemetry_metrics(self) -> MetricsRegistry:
        """The ``scheduler.*`` metrics of this run."""
        return self._registry


class StretchArgmaxMonitor(StretchWatermarkMonitor, TelemetrySource):
    """The watermark monitor as a telemetry source (hook name ``"stretch"``).

    Publishes the run's final max-stretch watermark and, crucially, the
    *argmax job id* — which job attained it — so the report (and
    ``repro-trace critical``) can name the max-stretch job without a
    trace file:

    * ``stretch.watermark`` — gauge (merging reps averages);
    * ``stretch.argmax_job`` — gauge holding the job id (-1 when no
      job completed; only meaningful for single runs — merged reps
      average to a non-id).

    Opt-in (not part of :data:`DEFAULT_TELEMETRY_HOOKS`): adding a
    metric to the defaults would change the byte-identical telemetry
    files existing runs pin.
    """

    def __init__(self) -> None:
        super().__init__()
        self._registry = MetricsRegistry()

    def on_finish(self, result) -> None:
        """Finalize the watermark/argmax gauges."""
        self._registry.gauge("stretch.watermark").set(self.watermark)
        self._registry.gauge("stretch.argmax_job").set(float(self.argmax_job))

    def telemetry_metrics(self) -> MetricsRegistry:
        """The ``stretch.*`` metrics of this run."""
        return self._registry


register_hook("util", UtilizationMonitor)
register_hook("queue", QueueDepthMonitor)
register_hook("jobstats", JobStatsMonitor)
register_hook("reexec", ReexecutionAccountant)
register_hook("faults", FaultMonitor)
register_hook("scheduler", SchedulerStatsMonitor)
register_hook("stretch", StretchArgmaxMonitor)
