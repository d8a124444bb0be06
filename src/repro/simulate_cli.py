"""``repro-simulate``: run one policy on one instance and inspect it.

Examples::

    # Archive a generated instance, then simulate and render it.
    python -c "from repro.workloads import *; from repro.io import save_instance; \\
               save_instance(generate_random_instance(RandomInstanceConfig(n_jobs=8), seed=1), 'inst.json')"
    repro-simulate inst.json --policy ssf-edf --gantt
    repro-simulate inst.json --policy srpt --save-schedule sched.json

    # Or generate on the fly:
    repro-simulate --generate random --n-jobs 12 --policy greedy --gantt
    repro-simulate --generate kang --n-jobs 12 --policy ssf-edf --breakdown
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.gantt import MIN_WIDTH, render_gantt
from repro.analysis.timeline import all_breakdowns
from repro.core.errors import ModelError
from repro.core.metrics import utilization
from repro.core.validation import validate_schedule
from repro.io.json_format import load_instance, save_schedule
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.obs.sinks import telemetry_record, write_telemetry_jsonl
from repro.obs.telemetry import RunTelemetry, collect_telemetry
from repro.run_options import RunOptions, add_run_options, output_paths_ok
from repro.schedulers.registry import (
    FAILURE_AWARE_VARIANT,
    available_schedulers,
    make_scheduler,
)
from repro.sim.engine import simulate
from repro.sim.hooks import StepTimingProfiler, StretchWatermarkMonitor, make_hooks
from repro.workloads.kang import KangConfig, generate_kang_instance
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


def build_parser() -> argparse.ArgumentParser:
    """The repro-simulate argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate one scheduling policy on one edge-cloud instance.",
    )
    parser.add_argument("instance", nargs="?", help="instance JSON file (omit with --generate)")
    parser.add_argument(
        "--generate",
        choices=["random", "kang"],
        help="generate an instance instead of loading one",
    )
    parser.add_argument("--n-jobs", type=int, default=10, help="jobs when generating")
    parser.add_argument("--ccr", type=float, default=1.0, help="CCR for --generate random")
    parser.add_argument("--load", type=float, default=0.05, help="load when generating")
    parser.add_argument("--seed", type=int, default=0, help="generation seed")
    parser.add_argument(
        "--policy",
        default="ssf-edf",
        choices=sorted(available_schedulers()),
        help="scheduling policy",
    )
    parser.add_argument(
        "--list-schedulers",
        action="store_true",
        help="list the registered schedulers (paper policies marked) and exit",
    )
    parser.add_argument("--gantt", action="store_true", help="render an ASCII Gantt chart")
    parser.add_argument("--width", type=int, default=100, help="gantt width in cells")
    parser.add_argument("--breakdown", action="store_true", help="per-job time breakdown")
    parser.add_argument("--fairness", action="store_true", help="stretch-distribution report")
    parser.add_argument(
        "--profile", action="store_true", help="per-step wall-time profile of the engine"
    )
    parser.add_argument(
        "--watermark",
        action="store_true",
        help="show how the max-stretch watermark built up over the run",
    )
    parser.add_argument("--save-schedule", metavar="PATH", help="write the schedule JSON here")
    parser.add_argument("--svg-gantt", metavar="PATH", help="write an SVG Gantt chart here")
    parser.add_argument(
        "--instrument",
        action="append",
        default=None,
        metavar="HOOK",
        help="attach a registered engine hook to the run (repeatable); "
        "telemetry monitors: util, queue, jobstats, reexec, faults, scheduler",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write the run's telemetry as one JSONL record (instruments "
        "with the default telemetry hooks when no --instrument is given)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record a causal run trace (job spans + decision provenance) "
        "and write it as versioned JSONL; inspect with repro-trace",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="PATH",
        help="also write the trace as Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing; implies tracing)",
    )
    parser.add_argument(
        "--fault-mtbf",
        type=float,
        metavar="T",
        help="inject crashes/outages: mean time between failures per "
        "resource (exponential renewal model, see repro.faults)",
    )
    parser.add_argument(
        "--fault-mttr",
        type=float,
        metavar="T",
        help="mean time to repair (default: 0.1 * MTBF)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault renewal process (independent of --seed)",
    )
    parser.add_argument(
        "--checkpoint-phases",
        action="store_true",
        help="also commit at the uplink/compute phase boundary (a completed "
        "upload survives later aborts)",
    )
    add_run_options(
        parser,
        "--fault-correlation, --fault-groups and --checkpoint-interval auto "
        "need --fault-mtbf",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_schedulers:
        from repro.schedulers.registry import PAPER_SCHEDULERS

        print("registered schedulers ([paper] = evaluated in the paper's Section VI):")
        for name in available_schedulers():
            marker = "  [paper]" if name in PAPER_SCHEDULERS else ""
            print(f"  {name}{marker}")
        return 0

    options = RunOptions.from_args(parser, args)
    if args.gantt and args.width < MIN_WIDTH:
        parser.error(f"--width must be at least {MIN_WIDTH}, got {args.width}")
    if args.fault_mtbf is None:
        if args.fault_mttr is not None:
            parser.error("--fault-mttr requires --fault-mtbf")
        if options.correlation != 1:
            parser.error("--fault-correlation requires --fault-mtbf")
        if options.fault_groups is not None:
            parser.error("--fault-groups requires --fault-mtbf")
        if options.checkpoint_interval == "auto":
            parser.error("--checkpoint-interval auto requires --fault-mtbf")

    if not output_paths_ok(
        args.save_schedule, args.svg_gantt, args.telemetry_out, args.trace_out, args.trace_chrome
    ):
        return 1

    policy = args.policy
    if options.failure_aware:
        if policy not in FAILURE_AWARE_VARIANT:
            parser.error(f"--failure-aware has no variant for policy {policy!r}")
        policy = FAILURE_AWARE_VARIANT[policy]

    try:
        if args.generate == "random":
            instance = generate_random_instance(
                RandomInstanceConfig(n_jobs=args.n_jobs, ccr=args.ccr, load=args.load),
                seed=args.seed,
            )
        elif args.generate == "kang":
            instance = generate_kang_instance(
                KangConfig(n_jobs=args.n_jobs, load=args.load), seed=args.seed
            )
        elif args.instance:
            instance = load_instance(args.instance)
        else:
            parser.error("give an instance file or --generate")
            return 2  # pragma: no cover - parser.error raises
    except (OSError, ValueError, ModelError) as exc:
        # Unreadable or malformed file, or out-of-range generator values.
        parser.error(f"cannot build the instance: {exc}")

    faults = None
    if args.fault_mtbf is not None:
        from repro.faults.model import instance_fault_trace

        group_size, groups = options.fault_layout()
        try:
            faults = instance_fault_trace(
                instance,
                mtbf=args.fault_mtbf,
                mttr=args.fault_mttr,
                seed=args.fault_seed,
                group_size=group_size,
                groups=groups,
            )
        except ModelError as exc:
            parser.error(str(exc))
    checkpoint = options.checkpoint_policy(phase_boundaries=args.checkpoint_phases)

    scheduler = (
        make_scheduler(policy, seed=args.seed)
        if policy == "random"
        else make_scheduler(policy)
    )
    profiler = StepTimingProfiler() if args.profile else None
    watermark = StretchWatermarkMonitor() if args.watermark else None
    hooks = [h for h in (profiler, watermark) if h is not None]
    instrument = list(args.instrument or [])
    if args.telemetry_out and not instrument:
        instrument = list(DEFAULT_TELEMETRY_HOOKS)
    if faults is not None and "faults" not in instrument:
        instrument.append("faults")
    if (args.trace_out or args.trace_chrome) and "tracing" not in instrument:
        instrument.append("tracing")
    hooks.extend(make_hooks(instrument))
    result = simulate(instance, scheduler, faults=faults, checkpoint=checkpoint, hooks=hooks)
    telemetry = collect_telemetry(hooks)

    errors = validate_schedule(
        result.schedule,
        require_complete=checkpoint is None or checkpoint.retry_budget is None,
        checkpointing=checkpoint is not None and checkpoint.checkpoints_enabled,
    )
    rep = utilization(result.schedule)
    print(f"policy:       {policy}")
    print(f"jobs:         {instance.n_jobs}  (edge {instance.platform.n_edge}, "
          f"cloud {instance.platform.n_cloud})")
    print(f"max-stretch:  {result.max_stretch:.4f}")
    print(f"avg-stretch:  {result.average_stretch:.4f}")
    print(f"makespan:     {result.makespan:.4f}")
    print(f"cloud share:  {rep.cloud_fraction:.0%}   re-executions: {result.n_reexecutions}")
    print(f"validated:    {'OK' if not errors else 'INVALID'}")
    if faults is not None and telemetry is not None:
        crashes = telemetry.metrics.counter("faults.crashes").value
        outages = telemetry.metrics.counter("faults.link_outages").value
        aborted = telemetry.metrics.counter("faults.aborted_attempts").value
        wasted = (
            telemetry.metrics.counter("faults.wasted_work").value
            + telemetry.metrics.counter("faults.wasted_uplink").value
            + telemetry.metrics.counter("faults.wasted_downlink").value
        )
        print(
            f"faults:       {crashes:g} crashes, {outages:g} link outages, "
            f"{aborted:g} attempts aborted, {wasted:.4g} units wasted"
        )
    if checkpoint is not None and telemetry is not None:
        metrics = telemetry.metrics
        commits = (
            metrics.counter("faults.checkpoint_commits").value
            if "faults.checkpoint_commits" in metrics
            else 0.0
        )
        abandoned = (
            metrics.counter("faults.abandoned_jobs").value
            if "faults.abandoned_jobs" in metrics
            else 0.0
        )
        print(
            f"checkpoint:   {commits:g} commits, "
            f"{abandoned:g} abandoned job(s) (of {result.n_abandoned} total)"
        )
    for e in errors[:10]:
        print(f"  violation: {e}", file=sys.stderr)

    if args.gantt:
        print()
        print(render_gantt(result.schedule, width=args.width))

    if args.breakdown:
        print()
        print(f"{'job':>4} {'response':>9} {'comm':>8} {'exec':>8} {'lost':>8} "
              f"{'wait':>8} {'wait%':>6}")
        for b in all_breakdowns(result.schedule):
            print(
                f"{b.job:>4} {b.response:>9.2f} {b.communication:>8.2f} "
                f"{b.execution:>8.2f} {b.lost:>8.2f} {b.waiting:>8.2f} "
                f"{b.waiting_fraction:>6.0%}"
            )

    if args.fairness:
        from repro.analysis.fairness import fairness_report

        report = fairness_report(result.stretches())
        print()
        print(report)
        print(f"tail ratio (p99/median): {report.tail_ratio:.2f}")

    if profiler is not None:
        print()
        print(f"step timing:  {profiler.report()}")

    if watermark is not None:
        print()
        print("max-stretch watermark history:")
        for sample in watermark.history:
            print(
                f"  t={sample.time:>10.4f}  job {sample.job:>4}  "
                f"stretch -> {sample.stretch:.4f}"
            )
        print(
            f"  argmax: job {watermark.argmax_job} "
            f"(stretch {watermark.watermark:.4f})"
        )

    if args.save_schedule:
        save_schedule(result.schedule, args.save_schedule)
        print(f"\nschedule written to {args.save_schedule}")

    if args.svg_gantt:
        from repro.analysis.svg_gantt import save_gantt_svg

        save_gantt_svg(result.schedule, args.svg_gantt)
        print(f"\nSVG Gantt written to {args.svg_gantt}")

    if telemetry is not None and "util.edge.busy_frac" in telemetry.metrics:
        print()
        print(
            "utilization:  "
            + "  ".join(
                f"{name} {telemetry.metrics.gauge(f'util.{name}.busy_frac').value:.0%}"
                for name in ("edge", "cloud", "uplink", "downlink")
            )
        )

    if args.telemetry_out:
        write_telemetry_jsonl(
            args.telemetry_out,
            [
                telemetry_record(
                    experiment="simulate",
                    scheduler=policy,
                    telemetry=telemetry if telemetry is not None else RunTelemetry(),
                    x=None,
                    n=1,
                )
            ],
        )
        print(f"\ntelemetry written to {args.telemetry_out}")

    if args.trace_out or args.trace_chrome:
        from repro.obs.tracing import collect_trace, write_chrome_trace, write_trace_jsonl

        trace = collect_trace(hooks)
        if args.trace_out:
            n_lines = write_trace_jsonl(args.trace_out, trace)
            print(f"\ntrace written to {args.trace_out} ({n_lines} lines)")
        if args.trace_chrome:
            n_events = write_chrome_trace(args.trace_chrome, trace)
            print(f"\nChrome trace written to {args.trace_chrome} ({n_events} events)")

    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
