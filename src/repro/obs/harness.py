"""Sweep-harness telemetry: what the dispatcher itself did.

Every other ``repro.obs`` surface observes *simulations*; this one
observes the machinery that runs them — the cost-aware dispatcher,
the worker pool, and the result I/O of
:mod:`repro.experiments.parallel`.  A :class:`HarnessStats` is filled
by the driver process as cells complete and snapshots into the same
:class:`~repro.obs.telemetry.RunTelemetry` shape as simulation
telemetry, so harness records ride the existing JSONL sink
(``scheduler="harness"``) and render in ``repro.obs.report`` tables.

Metric namespace (all driver-side, no effect on rows):

==============================  ==============================================
``harness.cells``               completed cells (counter)
``harness.cells_per_sec``       completed cells / sweep elapsed wall (gauge)
``harness.busy_frac``           Σ worker cell walls / (elapsed × pool size)
``harness.straggler_ratio``     max cell wall / median cell wall (gauge)
``harness.dispatch.window``     bounded in-flight window used (gauge)
``harness.dispatch.rank_corr``  Spearman corr of predicted-cost rank vs
                                observed cell-wall rank (gauge; how well the
                                cost model ordered the work)
``harness.pickle.bytes``        deflated pickled rows through the pool (counter)
``harness.pickle.bytes_per_cell``  the same per completed cell (gauge)
``harness.pool.rebuilds``       pools rebuilt after worker deaths (counter)
``harness.spec.builds``         spec constructions (counter; == executed cells)
``harness.instance.builds``     instance generations (counter; == executed cells)
``harness.workers``             pool size actually spawned (gauge)
==============================  ==============================================
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.obs.telemetry import RunTelemetry


def _rank(values: list[float]) -> list[float]:
    """Fractional ranks (average ties), 1-based."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _spearman(a: list[float], b: list[float]) -> float | None:
    """Spearman rank correlation; None when degenerate (<2 points or a
    constant side)."""
    if len(a) < 2 or len(a) != len(b):
        return None
    ra, rb = _rank(a), _rank(b)
    ma = sum(ra) / len(ra)
    mb = sum(rb) / len(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    if va == 0.0 or vb == 0.0:
        return None
    return cov / (va * vb) ** 0.5


@dataclass
class HarnessStats:
    """Mutable driver-side accumulator for one sweep's harness metrics."""

    n_workers: int = 1
    window: int = 1
    pool_rebuilds: int = 0
    pickle_bytes: int = 0
    elapsed_s: float = 0.0
    #: Per completed cell: (predicted cost, worker-measured wall seconds).
    cell_costs: list[float] = field(default_factory=list)
    cell_walls: list[float] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return len(self.cell_walls)

    @property
    def spec_builds(self) -> int:
        """Spec constructions: every executed cell rebuilds its spec."""
        return self.cells

    @property
    def instance_builds(self) -> int:
        """Instance generations: every executed cell draws one instance."""
        return self.cells

    def record_cell(self, *, cost: float, wall_s: float, payload_bytes: int = 0) -> None:
        """Fold one completed cell's driver-visible measurements in."""
        self.cell_costs.append(float(cost))
        self.cell_walls.append(float(wall_s))
        self.pickle_bytes += int(payload_bytes)

    def straggler_ratio(self) -> float | None:
        """Max over median cell wall (None before any cell)."""
        if not self.cell_walls:
            return None
        ordered = sorted(self.cell_walls)
        median = ordered[len(ordered) // 2]
        return ordered[-1] / median if median > 0 else None

    def to_telemetry(self) -> RunTelemetry:
        """Snapshot into the standard telemetry shape (see module doc)."""
        telemetry = RunTelemetry()
        m = telemetry.metrics
        m.counter("harness.cells").inc(self.cells)
        m.gauge("harness.workers").set(float(self.n_workers))
        m.gauge("harness.dispatch.window").set(float(self.window))
        m.counter("harness.pool.rebuilds").inc(self.pool_rebuilds)
        m.counter("harness.spec.builds").inc(self.spec_builds)
        m.counter("harness.instance.builds").inc(self.instance_builds)
        m.counter("harness.pickle.bytes").inc(self.pickle_bytes)
        if self.cells:
            m.gauge("harness.pickle.bytes_per_cell").set(self.pickle_bytes / self.cells)
        if self.elapsed_s > 0:
            m.gauge("harness.cells_per_sec").set(self.cells / self.elapsed_s)
            m.gauge("harness.busy_frac").set(
                sum(self.cell_walls) / (self.elapsed_s * self.n_workers)
            )
        ratio = self.straggler_ratio()
        if ratio is not None:
            m.gauge("harness.straggler_ratio").set(ratio)
        corr = _spearman(self.cell_costs, self.cell_walls)
        if corr is not None:
            m.gauge("harness.dispatch.rank_corr").set(corr)
        return telemetry


class ProgressReporter:
    """Throttled live ``cells/sec + ETA`` line on stderr.

    Purely observational: fed by the same completions
    :class:`HarnessStats` sees, printed at most once per
    ``min_interval_s`` (plus a final line), and never touches stdout or
    any result row.  ``restored`` cells (read back from a checkpoint)
    count towards ``done/total`` but not towards the rate and ETA,
    which only the cells executed since construction inform.
    """

    def __init__(self, name: str, total: int, *, restored: int = 0,
                 enabled: bool = False, min_interval_s: float = 0.5,
                 stream=None) -> None:
        self.name = name
        self.total = total
        self.enabled = enabled
        self.min_interval_s = min_interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._t0 = time.monotonic()
        self._last_print = 0.0
        self._restored = restored
        self._executed = 0

    def cell_done(self) -> None:
        """One more cell executed."""
        self._executed += 1
        if not self.enabled:
            return
        done = self._restored + self._executed
        now = time.monotonic()
        if done < self.total and now - self._last_print < self.min_interval_s:
            return
        self._last_print = now
        elapsed = now - self._t0
        rate = self._executed / elapsed if elapsed > 0 else 0.0
        eta = (self.total - done) / rate if rate > 0 else float("inf")
        print(
            f"[{self.name}] {done}/{self.total} cells "
            f"({rate:.1f} cells/s, ETA {eta:.0f}s)",
            file=self.stream,
        )
