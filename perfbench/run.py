"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload anchor-ssf-edf --seed 7 --seconds 30 --trace 0

``--trace 0`` times untraced passes for ``--seconds`` seconds and prints
the end-to-end metrics; ``--trace 1`` times untraced passes for half as
long, then makes two traced passes and prints the per-layer metrics.
The last line of standard output is always
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
progress and raw figures go to standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("anchor-ssf-edf", "anchor-fa-faults", "sweep-mtbf")

#: Timed passes made even when ``--seconds`` runs out first.
MIN_PASSES = 3
#: Fresh set-up processes per run; ``setup_s`` is their median wall.
SETUP_REPEATS = 7
#: Iterations of the calibration loop (about 25 ms on the reference host).
CALIBRATION_ITERATIONS = 300_000
#: Seconds the calibration loop takes at the reference speed.  Every time
#: the benchmark reports is scaled to that speed (see ``calibration_s``).
CALIBRATION_REF_S = 0.025
#: While a call runs in other processes (a pooled sweep, a set-up process),
#: a probe thread runs a tenth of the calibration loop every this many
#: seconds (see ``SpeedProbe``).
PROBE_PERIOD_S = 0.1


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_benchmark():
    """Import the program from the checkout's ``src/`` (never from elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}; run from a checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import tracing, workloads

    return tracing, workloads


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def calibration_s(iterations: int = CALIBRATION_ITERATIONS, clock=time.perf_counter) -> float:
    """Seconds of a fixed piece of pure-Python work, scaled to the full loop.

    The shared host's speed drifts by tens of percent over tens of
    seconds, and the program speeds up and slows down with it.  Each timed
    call is therefore bracketed by this loop, and its wall and CPU seconds
    are multiplied by ``CALIBRATION_REF_S`` over the loop's mean time
    around it: the figures read as if the host ran at the reference speed,
    which cancels most of the drift.  The raw walls go to standard error.
    """
    t0 = clock()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return (clock() - t0) * CALIBRATION_ITERATIONS / iterations


class SpeedProbe(threading.Thread):
    """Samples the host's speed while a call runs in other processes.

    A pooled sweep takes seconds, over which the host's speed moves more
    than the loop before and after it can see.  The benchmark process
    itself only waits meanwhile, so this thread runs a tenth of the
    calibration loop every ``PROBE_PERIOD_S`` and records the thread's
    CPU seconds for it, which the workers' CPU competition does not
    inflate.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.stopped = threading.Event()

    def run(self):
        while not self.stopped.wait(PROBE_PERIOD_S):
            self.samples.append(
                calibration_s(CALIBRATION_ITERATIONS // 10, time.thread_time))


class Calibrated:
    """Times calls, each bracketed by the calibration loop."""

    def __init__(self):
        self.before = calibration_s()

    def time(self, fn, *args, probe: bool = False):
        """``(output, raw wall, scaled wall, scaled CPU seconds)`` of one call.

        With ``probe``, a :class:`SpeedProbe` samples the speed during the
        call as well; use it only for calls that run in other processes.
        """
        sampler = SpeedProbe()
        if probe:
            sampler.start()
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
            if probe:
                sampler.stopped.set()
                sampler.join()
        after = calibration_s()
        scale = CALIBRATION_REF_S / statistics.mean([self.before, after, *sampler.samples])
        self.before = after
        return out, wall, wall * scale, cpu * scale


def setup_seconds(argv: list[str]) -> float:
    """Median scaled wall of fresh processes that import the program, build
    the inputs and exit: the time from process start to the first timed call."""
    clock = Calibrated()
    command = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    walls = [clock.time(subprocess.check_call, command, probe=True)[2]
             for _ in range(SETUP_REPEATS)]
    return statistics.median(walls)


def run_pass(calls) -> list:
    """Make each call once; returns the outputs."""
    return [call() for call in calls]


def timed_passes(workload, seconds: float):
    """Untraced passes until another one would overrun ``seconds``.

    Returns the outputs of every pass, the per-call scaled wall and CPU
    seconds (each call's median over the passes, summed over the pass, so
    one noisy pass moves the figure less than a median of pass sums) and
    the raw wall of every pass.
    """
    clock = Calibrated()
    deadline = time.perf_counter() + seconds
    outputs, raw, walls, cpus = [], [], [], []
    while True:
        t0 = time.perf_counter()
        out, raw_wall, wall, cpu = zip(*(clock.time(call, probe=workload.pooled)
                                          for call in workload.calls()))
        outputs.append(list(out))
        raw.append(sum(raw_wall))
        walls.append(wall)
        cpus.append(cpu)
        now = time.perf_counter()
        if len(walls) >= MIN_PASSES and now + (now - t0) > deadline:
            break
    pass_wall = sum(statistics.median(per_call) for per_call in zip(*walls))
    pass_cpu = sum(statistics.median(per_call) for per_call in zip(*cpus))
    return outputs, pass_wall, pass_cpu, raw


def make_workload(workloads, name: str, seed: int | None, n_jobs: int | None,
                  reps: int | None):
    if name == "sweep-mtbf":
        sizes = {k: v for k, v in (("n_jobs", n_jobs), ("reps", reps)) if v is not None}
        return workloads.SweepWorkload(
            name, workloads.SWEEP_SEED if seed is None else seed, str(OUT_DIR), **sizes)
    sizes = {} if n_jobs is None else {"n_jobs": n_jobs}
    policy, faulted = {
        "anchor-ssf-edf": ("ssf-edf", False),
        "anchor-fa-faults": ("ssf-edf-fa", True),
    }[name]
    return workloads.AnchorWorkload(
        name, policy, faulted, workloads.ANCHOR_SEED if seed is None else seed, **sizes)


def traced_anchor(tracing, workload, reference_pass):
    """Two traced passes of an anchor: layer numbers and hygiene checks."""
    recorders, outputs, walls = [], [], []
    clock = Calibrated()
    for run in (1, 2):
        recorder = tracing.SpanRecorder(f"{workload.name}-{workload.seed}-traced-{run}")
        with tracing.instrumented(recorder, workload.layers):
            out, _, wall, _ = clock.time(run_pass, workload.calls())
        recorders.append(recorder)
        outputs.append(out)
        walls.append(wall)
    first, second = (tracing.layer_metrics(r) for r in recorders)
    checks = {
        "traced outputs equal untraced": all(out == reference_pass for out in outputs),
        "span counts repeat": recorders[0].counts() == recorders[1].counts(),
        "counters repeat": _counts(first) == _counts(second),
    }
    return first, recorders, outputs, walls, checks


def traced_sweep(tracing, workload, untraced_whole):
    """Traced pooled sweeps (driver side) and traced serial passes (cell split)."""
    from repro.obs.harness import HarnessStats

    recorders, pooled, harness = [], [], []
    for run in (1, 2):
        recorder = tracing.SpanRecorder(f"{workload.name}-{workload.seed}-pooled-{run}")
        stats = HarnessStats()
        with tracing.instrumented(recorder, ("harness",)):
            out = workload.run_pooled(stats)
        recorders.append(recorder)
        pooled.append([out])
        harness.append((tracing.harness_metrics(recorder, stats), stats))
    # The first serial pass warms the driver process up (the pooled passes
    # ran in workers) and is kept as the untraced oracle; after it,
    # untraced and traced serial passes alternate.
    _, serial_whole = workload.reference()
    serial, untraced_walls, traced_walls, layer = [], [], [], []
    clock = Calibrated()
    for run in (1, 2):
        out, _, wall, _ = clock.time(workload.run_serial)
        serial.append(out)
        untraced_walls.append(wall)
        recorder = tracing.SpanRecorder(f"{workload.name}-{workload.seed}-serial-{run}")
        with tracing.instrumented(recorder, workload.layers):
            out, _, wall, _ = clock.time(workload.run_serial)
        recorders.append(recorder)
        serial.append(out)
        traced_walls.append(wall)
        layer.append(tracing.layer_metrics(recorder))
    (h1, s1), (h2, s2) = harness
    checks = {
        "traced pooled outputs equal untraced": all(w == untraced_whole for [(_, w)] in pooled),
        "serial outputs equal the first untraced serial": all(
            w == serial_whole for _, w in serial),
        "untraced serial equals untraced pooled": serial_whole == untraced_whole,
        "span counts repeat": all(
            recorders[i].counts() == recorders[i + 1].counts()
            for i in (0, 2)),
        "counters repeat": _counts(layer[0]) == _counts(layer[1])
        and (s1.instance_builds, s1.pool_rebuilds, s1.cells)
        == (s2.instance_builds, s2.pool_rebuilds, s2.cells),
    }
    metrics = {**layer[0], **h1}
    metrics["setup.instance_s"] = recorders[2].inclusive_s("setup.instance")
    metrics["setup.faults_s"] = recorders[2].inclusive_s("setup.faults")
    metrics["tracing.overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0)
    return metrics, recorders, pooled + [[out] for out in serial], checks


def _counts(layer: dict[str, float]) -> dict[str, float]:
    """The deterministic counters among a traced run's layer numbers."""
    units = declared_units("per_layer")
    return {k: v for k, v in layer.items() if units[k] == "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the untraced passes are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-jobs", type=int, default=None, help="size override")
    parser.add_argument("--reps", type=int, default=None,
                        help="replications per sweep point (size override)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (how setup_s is timed)")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    tracing, workloads = _import_benchmark()
    OUT_DIR.mkdir(exist_ok=True)
    workload = make_workload(workloads, args.workload, args.seed, args.n_jobs, args.reps)
    if args.setup_only:
        workload.setup()
        return 0
    setup_s = None if args.trace else setup_seconds(argv)
    setup_layer = workload.setup()

    seconds = args.seconds / 2 if args.trace else args.seconds
    outputs, wall, cpu, pass_walls = timed_passes(workload, seconds)
    peak_rss_mb = _peak_rss_mb()
    checks: dict[str, bool] = {}
    if args.trace:
        if isinstance(workload, workloads.SweepWorkload):
            metrics, recorders, traced_outputs, checks = traced_sweep(
                tracing, workload, outputs[0][0][1])
        else:
            metrics, recorders, traced_outputs, traced_walls, checks = traced_anchor(
                tracing, workload, outputs[0])
            metrics.update(setup_layer)
            metrics["tracing.overhead"] = statistics.median(traced_walls) / wall - 1.0
        outputs += traced_outputs
        spans_path = OUT_DIR / f"{args.workload}-{workload.seed}-spans.jsonl"
        spans_path.unlink(missing_ok=True)
        for recorder in recorders:
            recorder.write_jsonl(str(spans_path))
    expected = workload.expected()
    failed = workload.count_failed(outputs, expected)
    attempted = len(outputs) * workload.ops_per_pass

    if args.trace:
        units = declared_units("per_layer")
        unknown = set(metrics) - set(units)
        if unknown:
            raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer that does not run on this workload reports 0.
        metrics = {**dict.fromkeys(units, 0.0), **metrics}
    else:
        units = declared_units("end_to_end")
        n_calls = len(outputs[0])
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall / n_calls,
            "cpu_s": cpu / n_calls,
            "jobs_per_s": workload.jobs_per_pass / wall,
            "peak_rss_mb": peak_rss_mb,
        }
    for name, ok in checks.items():
        if not ok:
            print(f"perfbench: check failed: {name}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={workload.seed} passes={len(pass_walls)} "
          f"raw pass walls (s)={[round(w, 4) for w in pass_walls]} "
          f"scaled pass wall (s)={wall:.4f} "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
