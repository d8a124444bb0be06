"""Incremental JSONL checkpointing of completed sweep cells.

A sweep that dies halfway — machine reboot, OOM kill, a SIGKILL'd
driver — should not throw away the cells it finished.  The harness
appends one JSONL record per completed (point, replication) cell and
flushes it at once, so the file survives a kill of the process at any
instant modulo a torn final line, which is detected and dropped on
load.  ``--resume`` then re-runs only the missing cells; because every
cell's RNG stream is derived from the root seed alone
(:func:`repro.util.rng.spawn_generator`), the re-run cells are
byte-identical to what an uninterrupted run would have produced, and so
is the merged result.

File layout (one JSON object per line)::

    {"schema": "repro.cells/1", "kind": "header", "experiment": ..., "overrides": {...}}
    {"kind": "cell", "point": 0, "rep": 0, "rows": [{...}, ...]}
    ...

The header pins the sweep parameters; resuming with a different
experiment or different overrides is a
:class:`~repro.core.errors.CheckpointError` (a :class:`ModelError`)
rather than a silently inconsistent merge.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import Mapping

from repro.core.errors import CheckpointError, ModelError
from repro.experiments.runner import ResultRow
from repro.util.jsonl import dumps, read_jsonl

#: Schema tag of cell-checkpoint files.
CELLS_SCHEMA = "repro.cells/1"


def row_to_dict(row: ResultRow) -> dict:
    """Full dict view of a row, telemetry included (checkpoint payload).

    Built from the fields without copying: the dict shares the row's
    ``telemetry`` and ``trace`` dicts, which nothing may mutate.
    """
    return {f.name: getattr(row, f.name) for f in fields(row)}


def row_from_dict(data: Mapping) -> ResultRow:
    """Rebuild a :class:`ResultRow` from :func:`row_to_dict` output.

    JSON round-trips Python floats exactly (``repr`` semantics), so a
    restored row compares equal to the original, telemetry included.
    """
    try:
        return ResultRow(**data)
    except TypeError as exc:
        raise ModelError(f"malformed checkpoint row: {exc}") from exc


class CheckpointStore:
    """Append-only JSONL store of completed cells for one sweep.

    Lifecycle: construct, optionally :meth:`load_completed` (the resume
    path), then :meth:`start` before the first :meth:`append`.  The
    store tolerates a torn final line (a record the writing process was
    killed inside): the tail is dropped on load and truncated away
    before appending resumes.

    Every :meth:`append` is committed before it returns.  ``fsync=True``
    additionally forces each commit to stable storage (survives power
    loss, not just process death).
    """

    def __init__(
        self,
        path: str,
        *,
        experiment: str,
        overrides: Mapping,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.experiment = experiment
        self.overrides = dict(overrides)
        self.fsync = bool(fsync)
        self._fh = None
        #: Valid-prefix length of a torn file found by load_completed.
        self._torn_at: int | None = None

    # -- loading (resume) ------------------------------------------------------

    def load_completed(self) -> dict[tuple[int, int], list[ResultRow]]:
        """Completed cells recorded by a previous run of the same sweep.

        Returns ``{(point, rep): rows}``.  Missing or empty files are an
        empty dict (a resume of a sweep that never started is just a
        start).  A header that names a different experiment or different
        overrides is a :class:`~repro.core.errors.CheckpointError`, and so
        is a malformed record (the error names ``path:line``); a torn
        final line is dropped.
        """
        try:
            lines, self._torn_at = read_jsonl(self.path)
        except FileNotFoundError:
            return {}
        except ModelError as exc:
            raise CheckpointError(f"corrupt checkpoint {exc}") from exc
        completed: dict[tuple[int, int], list[ResultRow]] = {}
        for lineno, record in lines:
            where = f"corrupt checkpoint {self.path}:{lineno}"
            if lineno == 1:
                self._check_header(record)
                continue
            if record.get("kind") != "cell":
                raise CheckpointError(
                    f"{where}: expected a cell record, got kind={record.get('kind')!r}"
                )
            try:
                cell = (int(record["point"]), int(record["rep"]))
                completed[cell] = [row_from_dict(d) for d in record["rows"]]
            except (KeyError, TypeError, ValueError, ModelError) as exc:
                raise CheckpointError(
                    f"{where}: malformed cell record: {type(exc).__name__}: {exc}"
                ) from exc
        return completed

    def _check_header(self, record: Mapping) -> None:
        if record.get("schema") != CELLS_SCHEMA or record.get("kind") != "header":
            raise CheckpointError(
                f"{self.path!r} is not a cell checkpoint (schema "
                f"{record.get('schema')!r}, expected {CELLS_SCHEMA!r})"
            )
        if record.get("experiment") != self.experiment:
            raise CheckpointError(
                f"checkpoint {self.path!r} belongs to experiment "
                f"{record.get('experiment')!r}, not {self.experiment!r}; refusing to mix"
            )
        if record.get("overrides") != self.overrides:
            raise CheckpointError(
                f"checkpoint {self.path!r} was written with overrides "
                f"{record.get('overrides')!r} but this run uses {self.overrides!r}; "
                "resume with the same --reps/--n-jobs/--seed or start fresh"
            )

    # -- writing ---------------------------------------------------------------

    def start(self, *, fresh: bool) -> None:
        """Open the store for appending.

        ``fresh=True`` truncates any existing file and writes a new
        header; ``fresh=False`` (resume) keeps the valid prefix found by
        :meth:`load_completed`, truncating a torn tail first.
        """
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if fresh or not exists or self._torn_at == 0:
            self._fh = open(self.path, "w", encoding="utf-8")
            header = {
                "schema": CELLS_SCHEMA,
                "kind": "header",
                "experiment": self.experiment,
                "overrides": self.overrides,
            }
            self._fh.write(dumps(header) + "\n")
            self._fh.flush()
            return
        if self._torn_at is not None:
            with open(self.path, "r+b") as fh:
                fh.truncate(self._torn_at)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, point: int, rep: int, rows: list[ResultRow]) -> None:
        """Record one completed cell and commit it, so a kill at any
        later instant cannot lose it."""
        if self._fh is None:
            raise ModelError("CheckpointStore.append before start()")
        record = {
            "kind": "cell",
            "point": point,
            "rep": rep,
            "rows": [row_to_dict(r) for r in rows],
        }
        self._fh.write(dumps(record) + "\n")
        self.commit()

    def commit(self) -> None:
        """Force the written records to the OS (and to disk if
        ``fsync``); a no-op when the store is not open."""
        if self._fh is None:
            return
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
