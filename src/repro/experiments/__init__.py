"""Experiment harness: figure sweeps, replication, aggregation, CLI."""

from repro.experiments.ablations import (
    ablation_alpha,
    ablation_reexec,
    ablation_availability,
    ablation_eps,
    ablation_greedy_guard,
    ablation_hetero_cloud,
)
from repro.experiments.config import (
    ExperimentSpec,
    SchedulerSpec,
    SweepPoint,
)
from repro.experiments.exec_time import (
    exec_time_vs_ccr,
    exec_time_vs_load,
    exec_time_vs_n,
)
from repro.experiments.figures import fig2a, fig2b, fig2c, fig2d
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import (
    AggregateRow,
    ResultRow,
    aggregate,
    run_experiment,
)
from repro.experiments.tables import (
    format_series_table,
    format_timing_table,
    rows_to_csv,
)

__all__ = [
    "ExperimentSpec",
    "SchedulerSpec",
    "SweepPoint",
    "run_experiment",
    "run_named_experiment_resilient",
    "aggregate",
    "ResultRow",
    "AggregateRow",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "exec_time_vs_n",
    "exec_time_vs_load",
    "exec_time_vs_ccr",
    "ablation_alpha",
    "ablation_eps",
    "ablation_greedy_guard",
    "ablation_reexec",
    "ablation_hetero_cloud",
    "ablation_availability",
    "format_series_table",
    "format_timing_table",
    "rows_to_csv",
]
