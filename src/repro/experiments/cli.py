"""Command-line entry point: regenerate any paper figure or ablation.

Examples::

    repro-experiments fig2a                      # scaled-down defaults
    repro-experiments fig2b --n-jobs 800 --reps 30
    repro-experiments fig2c --csv out.csv
    repro-experiments exec_time_vs_n
    repro-experiments ablation_alpha
    repro-experiments all --reps 3 --n-jobs 100  # quick full pass
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.core.errors import CheckpointError
from repro.experiments import ablations, exec_time, faults_study, figures
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import aggregate, run_experiment
from repro.experiments.tables import format_series_table, format_timing_table, rows_to_csv
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.obs.sinks import telemetry_record, write_telemetry_jsonl
from repro.run_options import RunOptions, add_run_options, output_paths_ok

_BUILDERS: dict[str, Callable[..., ExperimentSpec]] = {
    "fig2a": figures.fig2a,
    "fig2b": figures.fig2b,
    "fig2c": figures.fig2c,
    "fig2d": figures.fig2d,
    "exec_time_vs_n": exec_time.exec_time_vs_n,
    "exec_time_vs_load": exec_time.exec_time_vs_load,
    "exec_time_vs_ccr": exec_time.exec_time_vs_ccr,
    "ablation_alpha": ablations.ablation_alpha,
    "ablation_eps": ablations.ablation_eps,
    "ablation_greedy_guard": ablations.ablation_greedy_guard,
    "ablation_reexec": ablations.ablation_reexec,
    "ablation_hetero_cloud": ablations.ablation_hetero_cloud,
    "ablation_availability": ablations.ablation_availability,
    "degradation_mtbf": faults_study.degradation_mtbf,
}

#: Builders that accept an n_jobs override.
_TAKES_N_JOBS = {
    "fig2a",
    "fig2b",
    "exec_time_vs_load",
    "exec_time_vs_ccr",
    "ablation_alpha",
    "ablation_eps",
    "ablation_greedy_guard",
    "ablation_reexec",
    "ablation_hetero_cloud",
    "ablation_availability",
    "degradation_mtbf",
}


#: Builders that take the run options (:class:`~repro.run_options.RunOptions`).
_TAKES_FAULT_OPTS = {"degradation_mtbf"}

_FAULT_OPTS_ONLY = (
    "--failure-aware/--fault-correlation/--fault-groups/--checkpoint-interval/"
    "--checkpoint-cost/--retry-budget apply only to: " + ", ".join(sorted(_TAKES_FAULT_OPTS))
)


def build_spec(
    name: str,
    *,
    n_reps: int | None,
    n_jobs: int | None,
    seed: int | None,
    options: RunOptions = RunOptions(),
) -> ExperimentSpec:
    """Instantiate a named experiment with optional overrides."""
    kwargs = {}
    if n_reps is not None:
        kwargs["n_reps"] = n_reps
    if seed is not None:
        kwargs["seed"] = seed
    if n_jobs is not None and name in _TAKES_N_JOBS:
        kwargs["n_jobs"] = n_jobs
    if n_jobs is not None and name in ("fig2c", "fig2d", "exec_time_vs_n"):
        key = "n_jobs_values" if name.startswith("fig") else "n_values"
        kwargs[key] = (n_jobs,)
    if name in _TAKES_FAULT_OPTS:
        kwargs["options"] = options
    elif options != RunOptions():
        raise ValueError(f"experiment {name!r}: {_FAULT_OPTS_ONLY}")
    return _BUILDERS[name](**kwargs)


def _write_traces(out_dir: str, rows) -> int:
    """Write one trace JSONL per traced row into ``out_dir``.

    Filenames are deterministic functions of the row's coordinates
    (experiment, x, rep, scheduler), so serial and parallel sweeps — and
    a resumed sweep restoring cells from its checkpoint — produce
    byte-identical files under identical names.
    """
    import os
    import re

    from repro.obs.tracing import write_trace_jsonl

    os.makedirs(out_dir, exist_ok=True)
    n_written = 0
    for row in rows:
        if row.trace is None:
            continue
        sched = re.sub(r"[^A-Za-z0-9._-]+", "-", row.scheduler)
        fname = f"{row.experiment}_x{row.x:g}_rep{row.rep}_{sched}.trace.jsonl"
        write_trace_jsonl(os.path.join(out_dir, fname), row.trace)
        n_written += 1
    return n_written


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of 'Max-Stretch Minimization on an "
        "Edge-Cloud Platform' (IPDPS 2021).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_BUILDERS) + ["all"],
        help="which figure/ablation to run ('all' runs every one)",
    )
    parser.add_argument("--reps", type=int, default=None, help="replications per point")
    parser.add_argument("--n-jobs", type=int, default=None, help="jobs per instance")
    parser.add_argument("--seed", type=int, default=None, help="root seed")
    parser.add_argument("--csv", type=str, default=None, help="also write raw rows to this CSV file")
    parser.add_argument(
        "--svg-dir",
        type=str,
        default=None,
        help="also write one SVG line chart per experiment into this directory",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 fans (point, rep) cells out over a "
        "process pool with bit-identical results",
    )
    parser.add_argument(
        "--instrument",
        action="append",
        default=None,
        metavar="HOOK",
        help="attach a registered engine hook to every run (repeatable); "
        "side-effectful hooks registered via repro.sim.hooks.register_hook",
    )
    parser.add_argument(
        "--telemetry-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write per-(experiment, x, scheduler) merged telemetry as JSONL "
        "(instruments with the default telemetry hooks when no --instrument "
        "is given; summarize with `python -m repro.obs.report PATH`)",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="DIR",
        help="write one causal trace JSONL per (point, rep, scheduler) run "
        "into this directory (adds the 'tracing' hook; explore with "
        "`repro-trace summary/critical/diff`)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock timeout; a cell over budget counts as a "
        "failed cell under --on-cell-error",
    )
    parser.add_argument(
        "--on-cell-error",
        choices=("fail", "skip", "retry"),
        default="fail",
        help="what a failing cell does to the sweep: abort it (fail, the "
        "default), quarantine the cell (skip), or re-run it up to "
        "--max-retries times before quarantining (retry)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="extra attempts per cell under --on-cell-error retry",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="deterministic exponential pause before each cell re-run under "
        "--on-cell-error retry: SECONDS * 2**(attempt-1), capped at 30s "
        "(default 0 = retry immediately)",
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help="append each completed cell to this JSONL file as it completes "
        "so a killed sweep can pick up with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in --checkpoint (requires it)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live 'cells/sec + ETA' line on stderr as cells "
        "complete (fed by the harness.* counters; no effect on results)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    add_run_options(
        parser,
        "degradation_mtbf only: --failure-aware adds ssf-edf-fa, srpt-fa and "
        "fcfs-fa to the roster; --checkpoint-interval or --retry-budget adds "
        "ssf-edf-fa+ckpt and ssf-edf-fa-rework+ckpt",
    )
    args = parser.parse_args(argv)
    options = RunOptions.from_args(parser, args)
    instrument = tuple(args.instrument) if args.instrument else None
    if args.telemetry_out and instrument is None:
        instrument = DEFAULT_TELEMETRY_HOOKS
    if args.trace_out and (instrument is None or "tracing" not in instrument):
        instrument = (instrument or ()) + ("tracing",)
    resilient = (
        args.timeout is not None
        or args.on_cell_error != "fail"
        or args.checkpoint is not None
        or args.resume
    )
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if resilient and args.experiment == "all":
        parser.error(
            "--timeout/--on-cell-error/--checkpoint/--resume need a single "
            "experiment, not 'all'"
        )
    if options != RunOptions() and args.experiment not in _TAKES_FAULT_OPTS:
        parser.error(_FAULT_OPTS_ONLY)
    if args.workers < 1:
        parser.error("--workers must be positive")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be positive")
    if args.n_jobs is not None and args.n_jobs < 0:
        parser.error("--n-jobs must be non-negative")
    if args.timeout is not None and not args.timeout > 0:
        parser.error("--timeout must be positive")
    if not output_paths_ok(args.csv, args.telemetry_out, args.checkpoint):
        return 1

    names = sorted(_BUILDERS) if args.experiment == "all" else [args.experiment]
    any_quarantined = False
    all_csv: list[str] = []
    telemetry_records: list[dict] = []
    pooled = resilient or args.workers > 1 or args.progress
    for name in names:
        spec = build_spec(
            name, n_reps=args.reps, n_jobs=args.n_jobs, seed=args.seed, options=options
        )
        harness_stats = None
        if args.telemetry_out and pooled:
            from repro.obs.harness import HarnessStats

            harness_stats = HarnessStats()
        if pooled:
            from repro.experiments.parallel import run_named_experiment_resilient

            try:
                outcome = run_named_experiment_resilient(
                    name,
                    n_workers=args.workers,
                    n_reps=args.reps,
                    n_jobs=args.n_jobs,
                    seed=args.seed,
                    options=options,
                    instrument=instrument,
                    timeout_s=args.timeout,
                    on_error=args.on_cell_error,
                    max_retries=args.max_retries,
                    retry_backoff=args.retry_backoff,
                    checkpoint_path=args.checkpoint,
                    resume=args.resume,
                    stats=harness_stats,
                    progress=args.progress,
                )
            except CheckpointError as exc:
                # A refused checkpoint is bad input, not a bug: no traceback.
                print(f"error: {exc}", file=sys.stderr)
                return 1
            rows = outcome.rows
            if not args.quiet:
                print(
                    f"[{name}] {outcome.n_executed} cells executed, "
                    f"{outcome.n_from_checkpoint} restored from checkpoint, "
                    f"{len(outcome.quarantined)} quarantined",
                    file=sys.stderr,
                )
            if outcome.quarantined:
                any_quarantined = True
                print(f"[{name}] quarantined cells:", file=sys.stderr)
                for q in outcome.quarantined:
                    print(
                        f"  point={q.point} rep={q.rep} "
                        f"attempts={q.attempts}: {q.error}",
                        file=sys.stderr,
                    )
        else:
            rows = run_experiment(spec, progress=not args.quiet, instrument=instrument)
        agg = aggregate(rows)
        if args.trace_out:
            n_traces = _write_traces(args.trace_out, rows)
            print(
                f"[{name}] {n_traces} trace file(s) written to {args.trace_out}",
                file=sys.stderr,
            )
        if args.telemetry_out:
            telemetry_records.extend(
                telemetry_record(
                    experiment=a.experiment,
                    x=a.x,
                    scheduler=a.scheduler,
                    n=a.n,
                    telemetry=a.telemetry,
                )
                for a in agg
                if a.telemetry is not None
            )
            if harness_stats is not None and harness_stats.cells:
                # The harness observes itself under a reserved
                # scheduler name; same JSONL schema, same report path.
                telemetry_records.append(
                    telemetry_record(
                        experiment=name,
                        x=None,
                        scheduler="harness",
                        n=1,
                        telemetry=harness_stats.to_telemetry().to_dict(),
                    )
                )
        print(f"\n== {spec.name}: {spec.description} ==")
        print(format_series_table(agg, x_label=spec.x_label))
        print("\nscheduling time:")
        print(format_timing_table(agg, x_label=spec.x_label))
        if args.csv:
            all_csv.append(rows_to_csv(rows))
        if args.svg_dir:
            import os

            from repro.experiments.svgplot import save_series_svg

            os.makedirs(args.svg_dir, exist_ok=True)
            target = os.path.join(args.svg_dir, f"{spec.name}.svg")
            save_series_svg(
                agg,
                target,
                title=f"{spec.name}: {spec.description}",
                x_label=spec.x_label,
                log_x=spec.x_label.upper() == "CCR",
            )
            print(f"figure written to {target}", file=sys.stderr)

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            # Keep a single header when concatenating experiments.
            for i, blob in enumerate(all_csv):
                lines = blob.splitlines(keepends=True)
                fh.writelines(lines if i == 0 else lines[1:])
        print(f"\nraw rows written to {args.csv}", file=sys.stderr)
    if args.telemetry_out:
        n_records = write_telemetry_jsonl(args.telemetry_out, telemetry_records)
        print(
            f"telemetry written to {args.telemetry_out} ({n_records} records)",
            file=sys.stderr,
        )
    # Quarantined cells mean an incomplete (but valid) sweep: distinct
    # exit code so CI and drivers can tell "done" from "done with holes".
    return 3 if any_quarantined else 0


if __name__ == "__main__":
    raise SystemExit(main())
