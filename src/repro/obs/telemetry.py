"""The run-telemetry snapshot and its collection/merge operations.

A :class:`RunTelemetry` is the serializable record of everything the
instrumented hooks observed during one (or, after merging, several)
simulation run(s).  It is deliberately a *snapshot*: plain floats and
lists behind :meth:`to_dict`, so it survives ``ProcessPoolExecutor``
pickling bit-for-bit and the serial and parallel experiment runners
return identical telemetry for the same seed.

Flow::

    hooks (TelemetrySource) ──collect_telemetry──▶ RunTelemetry
        ──ResultRow.telemetry (dict)──▶ parent process
        ──merge_telemetry──▶ AggregateRow.telemetry
        ──repro.obs.sinks──▶ JSONL ──repro.obs.report──▶ tables
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.errors import ModelError
from repro.obs.metrics import MetricsRegistry
from repro.util.jsonl import dumps

#: Bump when the serialized shape changes; ``from_dict`` rejects
#: versions it does not know how to read.
TELEMETRY_VERSION = 1


class TelemetrySource:
    """Mixin marking a hook whose metrics belong in :class:`RunTelemetry`.

    A telemetry hook owns a :class:`~repro.obs.metrics.MetricsRegistry`
    and finalizes it in ``on_finish``; :func:`collect_telemetry` unions
    the registries of every source after the run.  Hooks namespace
    their metric names (``util.*``, ``queue.*``, ``reexec.*``, …) so
    the union is disjoint.
    """

    def telemetry_metrics(self) -> MetricsRegistry:
        """The metrics this source contributes (called after the run)."""
        raise NotImplementedError


@dataclass
class RunTelemetry:
    """Serializable telemetry of one run (or a merge of several).

    ``n_runs`` counts how many runs were folded in — 1 for a fresh
    snapshot, the replication count after :func:`merge_telemetry`.
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    n_runs: int = 1
    version: int = TELEMETRY_VERSION

    def to_dict(self) -> dict:
        """Plain-dict snapshot (pickles and JSON-serializes losslessly)."""
        return {
            "version": self.version,
            "n_runs": self.n_runs,
            "metrics": self.metrics.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunTelemetry":
        """Inverse of :meth:`to_dict`; rejects unknown versions."""
        if not isinstance(d, dict):
            raise ModelError(f"telemetry must be a dict, got {type(d).__name__}")
        version = d.get("version")
        if version != TELEMETRY_VERSION:
            raise ModelError(
                f"unsupported telemetry version {version!r} "
                f"(this build reads version {TELEMETRY_VERSION})"
            )
        n_runs = d.get("n_runs", 1)
        if not isinstance(n_runs, int) or n_runs < 1:
            raise ModelError(f"telemetry n_runs must be a positive int, got {n_runs!r}")
        metrics = d.get("metrics")
        if not isinstance(metrics, dict):
            raise ModelError("telemetry is missing its 'metrics' mapping")
        return cls(
            metrics=MetricsRegistry.from_dict(metrics),
            n_runs=n_runs,
            version=TELEMETRY_VERSION,
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) — the byte-stable
        form the determinism tests and the JSONL sink rely on."""
        return dumps(self.to_dict())

    def merge(self, other: "RunTelemetry") -> None:
        """Fold another run's telemetry into this one in place."""
        self.metrics.merge(other.metrics)
        self.n_runs += other.n_runs


def collect_telemetry(hooks: Sequence[object]) -> RunTelemetry | None:
    """Union the registries of every :class:`TelemetrySource` in ``hooks``.

    Returns None when no hook is a telemetry source (the uninstrumented
    fast path: one isinstance sweep, no per-step cost anywhere).
    """
    sources = [h for h in hooks if isinstance(h, TelemetrySource)]
    if not sources:
        return None
    telemetry = RunTelemetry()
    for source in sources:
        telemetry.metrics.union(source.telemetry_metrics())
    return telemetry


def merge_telemetry(items: Iterable[RunTelemetry | dict | None]) -> RunTelemetry | None:
    """Merge telemetry snapshots across replications.

    Accepts :class:`RunTelemetry` objects or their ``to_dict`` forms
    (None entries are skipped); returns None when nothing contributes.
    Counters add, gauges and series average, histograms add counts —
    so e.g. merged utilization gauges are per-rep means and merged
    stretch histograms are the pooled distribution over all reps.
    """
    merged: RunTelemetry | None = None
    for item in items:
        if item is None:
            continue
        telemetry = item if isinstance(item, RunTelemetry) else RunTelemetry.from_dict(item)
        if merged is None:
            # Copy through the dict form so merging never mutates inputs.
            merged = RunTelemetry.from_dict(telemetry.to_dict())
        else:
            merged.merge(telemetry)
    return merged
