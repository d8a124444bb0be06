"""Layer spans for the benchmark's traced run, recorded from outside the program.

:class:`SpanRecorder` times every call into a layer's public entry points
and keeps the spans in memory until the run ends.  :func:`instrumented`
swaps the entry points listed by :func:`layer_targets` for timing wrappers
for the duration of a ``with`` block and restores the originals on exit,
so nothing under ``src/`` changes and the wrappers only observe.
:func:`layer_metrics` and :func:`harness_metrics` fold a recorder into the
per-layer numbers that ``perfbench/run.py --trace 1`` prints.

A span's *self* time is its duration minus the part its child spans
cover.  Calls of one thread nest strictly, so that part is the sum of the
direct children's durations.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

#: Layers whose calls are kept as per-name totals only (see SpanRecorder).
LEAF_LAYERS = ("ledger", "outlook", "hooks")


class SpanRecorder:
    """Spans of one traced run, kept in memory until the run ends.

    Every call updates the per-name totals ``totals[name] = [calls,
    inclusive s, self s]``.  Calls into the hot leaf layers (ledger,
    outlook and hook callbacks, up to a few hundred thousand per pass) are
    kept only as those totals; every other call is also kept as a span
    ``(name, parent, start, end)``, where ``parent`` is the index of the
    enclosing kept span, -1 at top level.  Leaf calls never enclose kept
    spans, so the self times stay exact either way.  ``results`` collects
    what :meth:`Engine.run` returned (the counters the layer metrics read).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, int, float, float]] = []
        self.totals: dict[str, list] = {}
        self.results: list = []
        self._stack: list[list] = []

    def wrap(self, name: str, fn, *, keep_span: bool = True, keep_result: bool = False):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, results = self.spans, self._stack, self.results
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep_span:
                index = len(spans)
                spans.append((name, parent, 0.0, 0.0))
            else:
                index = parent
            frame = [0.0, index]  # [time covered by child spans, span index]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if keep_span:
                    spans[index] = (name, parent, start, end)
            if keep_result:
                results.append(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def _matching(self, key: str):
        """Totals of span ``key``, or of every span of layer ``key``."""
        return (t for n, t in self.totals.items() if key in (n, n.split(".")[0]))

    def calls(self, key: str) -> int:
        return sum(t[0] for t in self._matching(key))

    def self_s(self, key: str) -> float:
        return sum(t[2] for t in self._matching(key))

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def counts(self) -> dict[str, int]:
        """Calls per span name: the counters a repeated traced run must reproduce."""
        return {n: t[0] for n, t in sorted(self.totals.items())}

    def write_jsonl(self, path: str) -> None:
        """Append the kept spans and the per-name totals as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "span": index, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            for name, (calls, inclusive, own) in sorted(self.totals.items()):
                fh.write(json.dumps({
                    "run": self.run_id, "total": name, "calls": calls,
                    "inclusive_s": inclusive, "self_s": own,
                }) + "\n")


# -- which entry points are wrapped ------------------------------------------


def _methods(cls, names, prefix):
    return [(cls, n, f"{prefix}.{n}") for n in names]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def layer_targets(layers) -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every entry point of ``layers``.

    * engine — :meth:`Engine.run` (one span per ``simulate()`` call);
    * ledger — the public :class:`ResourceLedger` methods;
    * scheduler — ``decide`` of every scheduler class;
    * placement — :class:`EdfPlacementKernel` ``place``/``reset``/``floor_report``;
    * outlook — the public :class:`CapacityOutlook` queries;
    * hooks — the callbacks the ship-with hook classes override (the
      engine's own :class:`EventCounter` is engine bookkeeping, not a hook
      a user attached, so it is left out);
    * harness — the pooled sweep entry point, :class:`CheckpointStore`
      ``append``/``commit`` and the driver's ``wire.unpack_rows``;
    * setup — instance and fault-trace generation.
    """
    from repro.capacity.outlook import CapacityOutlook
    from repro.experiments import checkpoint, parallel
    from repro.faults import model as fault_model
    from repro.obs import monitors
    from repro.schedulers.base import BaseScheduler
    from repro.schedulers.placement import EdfPlacementKernel
    from repro.sim import hooks as sim_hooks
    from repro.sim.engine import Engine
    from repro.sim.ledger import ResourceLedger
    from repro.workloads import random_uniform

    table = {
        "engine": [(Engine, "run", "engine.run")],
        "ledger": _methods(ResourceLedger, (
            "begin_round", "exhausted", "block_edge", "block_cloud",
            "block_cloud_compute", "block_from_outlook", "block_link",
            "grant_edge_compute", "grant_cloud_compute", "grant_uplink",
            "grant_downlink", "release"), "ledger"),
        "scheduler": [(cls, "decide", "scheduler.decide")
                      for cls in _subclasses(BaseScheduler) if "decide" in vars(cls)],
        "placement": _methods(EdfPlacementKernel, ("place", "reset", "floor_report"),
                              "placement"),
        "outlook": _methods(CapacityOutlook, (
            "edge_rates", "cloud_rates", "link_rate", "blocked_key", "blocked_at",
            "next_boundary", "earliest_edge_start", "earliest_cloud_start",
            "earliest_link_start", "deliverable_cloud_work", "deliverable_edge_work",
            "earliest_cloud_completion", "earliest_edge_completion"), "outlook"),
        "hooks": [
            (cls, attr, f"hooks.{attr}")
            for module in (sim_hooks, monitors)
            for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, sim_hooks.EngineHooks)
            and cls is not sim_hooks.EngineHooks and cls is not sim_hooks.EventCounter
            and cls.__module__ == module.__name__
            for attr in vars(cls)
            if attr.startswith("on_") or attr == "reset"
        ],
        "harness": [
            (parallel, "run_named_experiment_resilient", "harness.sweep"),
            (checkpoint.CheckpointStore, "append", "checkpoint.append"),
            (checkpoint.CheckpointStore, "commit", "checkpoint.commit"),
            (parallel, "unpack_rows", "wire.unpack_rows"),
        ],
        "setup": [
            (random_uniform, "generate_random_instance", "setup.instance"),
            (fault_model, "exponential_fault_trace", "setup.faults"),
        ],
    }
    return [target for layer in layers for target in table[layer]]


@contextmanager
def instrumented(recorder: SpanRecorder, layers):
    """Wrap the entry points of ``layers`` while the block runs."""
    saved = []
    try:
        for owner, attr, name in layer_targets(layers):
            original = vars(owner)[attr]
            keep_span = name.split(".")[0] not in LEAF_LAYERS
            if isinstance(original, property):
                wrapped = property(recorder.wrap(name, original.fget, keep_span=keep_span))
            else:
                wrapped = recorder.wrap(name, original, keep_span=keep_span,
                                        keep_result=name == "engine.run")
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- spans → per-layer numbers -----------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Engine/ledger/scheduler/placement/outlook/hooks numbers of one traced run.

    Times named after a call (``decide_s``, ``place_s``, ``reset_s``) are
    inclusive; ``busy_s`` and ``self_s`` are self times, so they add up
    to the engine span without double counting.  Program counters come
    from the :class:`SimulationResult` objects the engine span returned.
    """
    results = recorder.results
    stats = [r.scheduler_stats for r in results if r.scheduler_stats]
    decisions_with_stats = sum(r.n_decisions for r in results if r.scheduler_stats)

    def counter(key: str) -> float:
        return float(sum(s.get(f"scheduler.{key}", 0.0) for s in stats))

    reuses = counter("probe_reuses") + counter("pass_reuses") + counter("replays")
    events = float(sum(r.n_events for r in results))
    engine_self = recorder.self_s("engine")
    decide_ms = [d * 1e3 for d in recorder.durations("scheduler.decide")]
    return {
        "scheduler.decide_s": recorder.inclusive_s("scheduler.decide"),
        "scheduler.decisions": float(recorder.calls("scheduler")),
        "scheduler.decide_ms.p50": nearest_rank(decide_ms, 0.50),
        "scheduler.decide_ms.p99": nearest_rank(decide_ms, 0.99),
        "placement.place_s": recorder.inclusive_s("placement.place"),
        "placement.place_calls": float(recorder.calls("placement.place")),
        "placement.reset_s": recorder.inclusive_s("placement.reset"),
        "placement.probes": counter("probes"),
        "placement.probe_short_circuits": counter("probe_short_circuits"),
        "placement.rebuilds": counter("rebuilds"),
        "placement.partial_rebuilds": counter("partial_rebuilds"),
        "placement.replays": counter("replays"),
        "placement.reuse_ratio": reuses / decisions_with_stats if decisions_with_stats else 0.0,
        "outlook.busy_s": recorder.self_s("outlook"),
        "outlook.queries": counter("outlook_queries"),
        "outlook.delta_updates": counter("outlook_delta_updates"),
        "engine.self_s": engine_self,
        "engine.events": events,
        "engine.reexecutions": float(sum(r.n_reexecutions for r in results)),
        "engine.us_per_event": engine_self / events * 1e6 if events else 0.0,
        "ledger.busy_s": recorder.self_s("ledger"),
        "ledger.calls": float(recorder.calls("ledger")),
        "hooks.busy_s": recorder.self_s("hooks"),
        "hooks.calls": float(recorder.calls("hooks")),
    }


def harness_metrics(recorder: SpanRecorder, stats) -> dict[str, float]:
    """Driver-side numbers of one traced pooled sweep (``HarnessStats`` + spans)."""
    gauges = stats.to_telemetry().metrics

    def gauge(name: str) -> float:
        metric = gauges.get(name)
        return float(metric.value) if metric is not None else 0.0

    return {
        "harness.busy_frac": gauge("harness.busy_frac"),
        "harness.straggler_ratio": gauge("harness.straggler_ratio"),
        "harness.rank_corr": gauge("harness.dispatch.rank_corr"),
        "harness.pickle_bytes": float(stats.pickle_bytes),
        "harness.pool_rebuilds": float(stats.pool_rebuilds),
        "harness.instance_builds": float(stats.instance_builds),
        "harness.spec_builds": float(stats.spec_builds),
        "harness.idle_s": stats.elapsed_s * stats.n_workers - sum(stats.cell_walls),
        "checkpoint.append_s": recorder.self_s("checkpoint.append"),
        "checkpoint.commit_s": recorder.inclusive_s("checkpoint.commit"),
        "wire.unpack_s": recorder.inclusive_s("wire.unpack_rows"),
    }
