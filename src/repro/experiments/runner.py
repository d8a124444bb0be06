"""Executes experiment specs and aggregates the result rows.

For every (sweep point, replication) the runner draws one instance from
a spawned seed and runs *all* schedulers on that same instance — paired
comparisons, as in the paper, where each plotted point averages the
heuristics over a common pool of generated instances.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

import repro.obs.monitors  # noqa: F401 — registers the telemetry hook names
import repro.obs.tracing  # noqa: F401 — registers the "tracing" hook name
from repro.core.errors import CellTimeoutError, ModelError
from repro.experiments.config import ExperimentSpec
from repro.obs.telemetry import collect_telemetry, merge_telemetry
from repro.obs.tracing import collect_trace
from repro.sim.engine import simulate
from repro.sim.hooks import make_hooks
from repro.util.rng import spawn_generator


@dataclass(frozen=True)
class ResultRow:
    """One (point, replication, scheduler) measurement.

    ``telemetry`` is the run's
    :meth:`~repro.obs.telemetry.RunTelemetry.to_dict` snapshot when the
    cell was instrumented with telemetry-source hooks, else None.  It
    is a plain dict so rows pickle across process pools losslessly.
    ``trace`` is likewise the run's trace payload
    (:meth:`~repro.obs.tracing.RunTracer.payload`) when the cell was
    instrumented with ``tracing``, else None; both ride the same
    pickle/checkpoint paths, so serial and parallel sweeps produce
    byte-identical traces.
    """

    experiment: str
    x: float
    scheduler: str
    rep: int
    max_stretch: float
    avg_stretch: float
    makespan: float
    wall_time: float
    n_events: int
    n_reexecutions: int
    n_abandoned: int = 0
    telemetry: dict | None = None
    trace: dict | None = None

    def as_dict(self) -> dict:
        """Plain-dict view of the scalar fields (CSV/JSON export).

        Telemetry and trace are deliberately excluded — they are
        structured, not columnar; the JSONL sinks
        (:mod:`repro.obs.sinks`, :mod:`repro.obs.tracing`) are their
        export paths.  They are never copied either: the dict is built
        from the scalar fields alone.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("telemetry", "trace")
        }


@dataclass(frozen=True)
class AggregateRow:
    """Mean/std over the replications of one (point, scheduler).

    ``telemetry`` merges the replications' snapshots (counters add,
    gauges/series average, histograms pool); None when uninstrumented.
    """

    experiment: str
    x: float
    scheduler: str
    n: int
    max_stretch_mean: float
    max_stretch_std: float
    avg_stretch_mean: float
    wall_time_mean: float
    reexec_mean: float
    telemetry: dict | None = None


def run_cell(
    spec: ExperimentSpec,
    point_index: int,
    rep: int,
    *,
    instrument: Sequence[str] | None = None,
) -> list[ResultRow]:
    """Run one (sweep point, replication) cell: all schedulers on the
    cell's instance.  The cell's RNG stream is re-derived from the
    spec's root seed (only this cell's child is spawned, in O(1)), so
    cells can be executed in any order (or in different processes) and
    still reproduce the serial results.  ``instrument`` names
    registered engine hooks (see :func:`repro.sim.hooks.register_hook`)
    instantiated fresh for every scheduler run."""
    rng = spawn_generator(spec.seed, point_index * spec.n_reps + rep)
    point = spec.points[point_index]

    rows: list[ResultRow] = []
    instance = point.make_instance(rng)
    availability = (
        point.make_availability(instance, rng)
        if point.make_availability is not None
        else None
    )
    # Faults draw after availability, always in this order, so adding a
    # fault model to an experiment never perturbs its instance stream.
    faults = (
        point.make_faults(instance, rng)
        if point.make_faults is not None
        else None
    )
    for sched_spec in spec.schedulers:
        scheduler = sched_spec.factory(rng)
        hooks = make_hooks(instrument)
        t0 = time.perf_counter()
        try:
            result = simulate(
                instance,
                scheduler,
                availability=availability,
                faults=faults,
                checkpoint=sched_spec.checkpoint,
                record_trace=False,
                hooks=hooks,
            )
        except CellTimeoutError:
            raise
        except Exception as exc:
            raise ModelError(
                f"scheduler {sched_spec.label!r} failed on cell "
                f"(x={point.x:g}, rep={rep}, root_seed={spec.seed}): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        wall = time.perf_counter() - t0
        telemetry = collect_telemetry(hooks)
        trace = collect_trace(hooks)
        rows.append(
            ResultRow(
                experiment=spec.name,
                x=float(point.x),
                scheduler=sched_spec.label,
                rep=rep,
                max_stretch=result.max_stretch,
                avg_stretch=result.average_stretch,
                makespan=result.makespan,
                wall_time=wall,
                n_events=result.n_events,
                n_reexecutions=result.n_reexecutions,
                n_abandoned=result.n_abandoned,
                telemetry=None if telemetry is None else telemetry.to_dict(),
                trace=trace,
            )
        )
    return rows


def run_experiment(
    spec: ExperimentSpec,
    *,
    progress: bool = False,
    instrument: Sequence[str] | None = None,
) -> list[ResultRow]:
    """Run every (point, rep, scheduler) combination of ``spec``.

    ``instrument`` forwards registered hook names to every cell (rows
    never need the interval trace, so tracing stays off either way).
    """
    rows: list[ResultRow] = []
    for point_index, point in enumerate(spec.points):
        for rep in range(spec.n_reps):
            rows.extend(run_cell(spec, point_index, rep, instrument=instrument))
            if progress:
                print(
                    f"[{spec.name}] x={point.x:g} rep={rep + 1}/{spec.n_reps} done",
                    file=sys.stderr,
                )
    return rows


def aggregate(rows: list[ResultRow]) -> list[AggregateRow]:
    """Collapse replications; rows grouped by (experiment, x, scheduler)."""
    groups: dict[tuple[str, float, str], list[ResultRow]] = {}
    order: list[tuple[str, float, str]] = []
    for row in rows:
        key = (row.experiment, row.x, row.scheduler)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    out = []
    for key in order:
        group = groups[key]
        ms = np.array([r.max_stretch for r in group])
        telemetry = merge_telemetry(r.telemetry for r in group)
        out.append(
            AggregateRow(
                experiment=key[0],
                x=key[1],
                scheduler=key[2],
                n=len(group),
                max_stretch_mean=float(ms.mean()),
                max_stretch_std=float(ms.std(ddof=1)) if len(group) > 1 else 0.0,
                avg_stretch_mean=float(np.mean([r.avg_stretch for r in group])),
                wall_time_mean=float(np.mean([r.wall_time for r in group])),
                reexec_mean=float(np.mean([r.n_reexecutions for r in group])),
                telemetry=None if telemetry is None else telemetry.to_dict(),
            )
        )
    return out
