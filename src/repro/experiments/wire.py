"""Wire format for rows crossing the worker process boundary.

An instrumented cell's :class:`~repro.experiments.runner.ResultRow` list
pickles to ~22 KB, almost all of it telemetry — histogram edge/count
lists and float-valued metric maps repeated per roster entry.  Workers
return :func:`pack_rows`: the rows pickled and deflated (zlib level 3,
~7x smaller on instrumented cells, ~0.5 ms per cell — noise next to a
simulation).

Only the IPC payload uses this format; it never hits disk (the
checkpoint JSONL and telemetry sinks see plain :class:`ResultRow`
objects), and ``unpack_rows(pack_rows(rows)) == rows`` holds exactly.
"""

from __future__ import annotations

import pickle
import zlib

from repro.experiments.runner import ResultRow

#: Deflate level of :func:`pack_rows` — 3 is within a few percent of
#: level 9 on telemetry payloads at a fraction of the CPU.
_PACK_LEVEL = 3


def pack_rows(rows: list[ResultRow]) -> bytes:
    """The deflated wire blob a worker returns for one cell's rows."""
    return zlib.compress(
        pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL),
        _PACK_LEVEL,
    )


def unpack_rows(blob: bytes) -> list[ResultRow]:
    """Inverse of :func:`pack_rows`; exact row equality."""
    return pickle.loads(zlib.decompress(blob))
