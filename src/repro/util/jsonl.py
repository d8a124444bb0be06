"""Canonical JSON and the one JSONL record reader/writer.

Telemetry files (:mod:`repro.obs.sinks`), trace files
(:mod:`repro.obs.tracing`) and cell checkpoints
(:mod:`repro.experiments.checkpoint`) are all JSONL: one canonical JSON
object per line, every line ended by ``\\n``.  They share this module's
encoder, writer and reader, and one torn-tail rule: bytes after the
last newline can only come from a writer killed mid-line, so
:func:`read_jsonl` never parses them.  It reports where they start and
each format decides what a torn file means (the checkpoint truncates
it, telemetry drops it with a note, a trace is refused).
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.core.errors import ModelError


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace (byte-stable records)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str, records: Iterable) -> int:
    """Write ``records`` to ``path``, one canonical line each; returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps(record) + "\n")
            n += 1
    return n


def read_jsonl(path: str) -> tuple[list[tuple[int, dict]], int | None]:
    """Parse every newline-terminated line of ``path`` as a JSON object.

    Returns ``(records, torn_at)``: ``records`` holds ``(lineno,
    object)`` pairs (1-based line numbers, blank lines skipped) and
    ``torn_at`` is the length of the valid prefix when bytes follow the
    last newline (a torn tail, never parsed), else None.  A line that
    is not UTF-8, not JSON or not an object raises :class:`ModelError`
    naming ``path:line``; a missing file raises ``OSError``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    *lines, tail = blob.split(b"\n")
    records: list[tuple[int, dict]] = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise ModelError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ModelError(
                f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}"
            )
        records.append((lineno, record))
    return records, (len(blob) - len(tail) if tail else None)
