"""Telemetry sinks: the JSONL record format and its reader/writer.

One telemetry *record* describes the (merged) telemetry of one
``(experiment, x, scheduler)`` group.  Records are plain dicts with a
fixed vocabulary, one canonical-JSON record per line:

.. code-block:: json

    {"schema": "repro.telemetry/1", "experiment": "fig2a", "x": 200.0,
     "scheduler": "SSF-EDF", "n": 10, "telemetry": {"version": 1,
     "n_runs": 10, "metrics": {"util.edge.busy_frac": {"type": "gauge",
     "sum": 4.2, "n": 10}, "...": {}}}}

``schema`` tags the record layout (:data:`TELEMETRY_SCHEMA`); the
nested ``telemetry`` object is a versioned
:meth:`~repro.obs.telemetry.RunTelemetry.to_dict` snapshot.  ``x`` is
the experiment's sweep coordinate (``null`` for single runs, e.g. the
simulate CLI).  Canonical JSON (sorted keys, no whitespace) makes the
sink byte-stable: writing, reading and re-writing a file reproduces it
exactly.

:func:`read_telemetry_jsonl` validates every line against the schema
and raises :class:`~repro.core.errors.ModelError` naming the offending
line — the CI smoke test and :mod:`repro.obs.report` both go through
it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.errors import ModelError
from repro.obs.telemetry import RunTelemetry
from repro.util.jsonl import dumps, read_jsonl, write_jsonl

#: Record-layout tag; bump together with the record vocabulary.
TELEMETRY_SCHEMA = "repro.telemetry/1"


def telemetry_record(
    *,
    experiment: str,
    scheduler: str,
    telemetry: RunTelemetry | dict,
    x: float | None = None,
    n: int = 1,
) -> dict:
    """Build one schema-tagged record from a telemetry snapshot."""
    if isinstance(telemetry, RunTelemetry):
        telemetry = telemetry.to_dict()
    record = {
        "schema": TELEMETRY_SCHEMA,
        "experiment": experiment,
        "x": None if x is None else float(x),
        "scheduler": scheduler,
        "n": int(n),
        "telemetry": telemetry,
    }
    validate_record(record)
    return record


def validate_record(record: object) -> dict:
    """Check one record against the schema; return it (else ``ModelError``).

    Validation is structural and total: the schema tag, every field's
    type, and the nested telemetry snapshot (which re-parses through
    :meth:`RunTelemetry.from_dict`, so every metric entry is checked
    too).
    """
    if not isinstance(record, dict):
        raise ModelError(f"telemetry record must be an object, got {type(record).__name__}")
    schema = record.get("schema")
    if schema != TELEMETRY_SCHEMA:
        raise ModelError(
            f"unknown telemetry schema {schema!r} (this build reads {TELEMETRY_SCHEMA!r})"
        )
    for field in ("experiment", "scheduler"):
        if not isinstance(record.get(field), str) or not record[field]:
            raise ModelError(f"telemetry record field {field!r} must be a non-empty string")
    x = record.get("x")
    if x is not None and not isinstance(x, (int, float)):
        raise ModelError(f"telemetry record field 'x' must be a number or null, got {x!r}")
    n = record.get("n")
    if not isinstance(n, int) or n < 1:
        raise ModelError(f"telemetry record field 'n' must be a positive int, got {n!r}")
    RunTelemetry.from_dict(record.get("telemetry"))
    return record


#: One record as canonical JSON (sorted keys, no whitespace).
record_to_json = dumps


def write_telemetry_jsonl(path: str, records: Iterable[dict]) -> int:
    """Write ``records`` to ``path`` as JSONL; returns the record count.

    Every record is validated before anything is written, so a bad
    record never leaves a half-written file behind.
    """
    return write_jsonl(path, [validate_record(r) for r in records])


def read_telemetry_jsonl(path: str) -> list[dict]:
    """Read and validate every record of a telemetry JSONL file.

    Raises :class:`ModelError` naming the first malformed line (1-based)
    — non-UTF-8 bytes, JSON syntax errors and schema violations.  A
    *torn tail* — bytes after the last newline, the signature of a
    killed run — is never parsed and is dropped (see
    :mod:`repro.util.jsonl`); use :func:`read_telemetry_jsonl_report`
    to learn whether one was.
    """
    records, _dropped = read_telemetry_jsonl_report(path)
    return records


def read_telemetry_jsonl_report(path: str) -> tuple[list[dict], int]:
    """Like :func:`read_telemetry_jsonl`, also reporting dropped torn lines.

    Returns ``(records, n_dropped)`` where ``n_dropped`` is 1 when the
    file ended in a torn line and 0 otherwise.  Only bytes after the
    last newline are ever dropped — a malformed line anywhere else
    still raises, since that is corruption a crash cannot explain.
    """
    lines, torn_at = read_jsonl(path)
    records: list[dict] = []
    for lineno, record in lines:
        try:
            records.append(validate_record(record))
        except ModelError as exc:
            raise ModelError(f"{path}:{lineno}: {exc}") from exc
    return records, int(torn_at is not None)


def merge_records(records: Sequence[dict]) -> list[dict]:
    """Merge records that share ``(experiment, scheduler)``, dropping ``x``.

    The per-scheduler roll-up the report renders: telemetry of every
    sweep point is folded together (counters add, gauges/series
    average, histograms pool) in first-seen order.
    """
    order: list[tuple[str, str]] = []
    merged: dict[tuple[str, str], RunTelemetry] = {}
    counts: dict[tuple[str, str], int] = {}
    for record in records:
        key = (record["experiment"], record["scheduler"])
        telemetry = RunTelemetry.from_dict(record["telemetry"])
        if key not in merged:
            order.append(key)
            merged[key] = telemetry
            counts[key] = record["n"]
        else:
            merged[key].merge(telemetry)
            counts[key] += record["n"]
    return [
        telemetry_record(
            experiment=key[0],
            scheduler=key[1],
            telemetry=merged[key],
            x=None,
            n=counts[key],
        )
        for key in order
    ]
