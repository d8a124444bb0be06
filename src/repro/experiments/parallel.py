"""Parallel experiment execution over worker processes.

Specs carry closures (instance factories), which do not pickle; so the
parallel path ships only *names*: each worker rebuilds the named spec
from :mod:`repro.experiments.cli`'s builder registry and runs one
(point, replication) cell.  Cell RNG streams are re-derived from the
root seed inside :func:`repro.experiments.runner.run_cell`, so results
are bit-identical to the serial runner regardless of scheduling order
— parallelism changes wall-clock only.

This is how the paper-scale sweeps (1000 reps of n = 4000) become
tractable: cells are embarrassingly parallel (see ``docs/HARNESS.md``).
Cells are submitted individually in descending predicted-cost order
(longest cell first, the classic LPT rule) over a bounded in-flight
window sized to the machine's usable cores
(:mod:`repro.experiments.dispatch`), instead of the historical
static-chunked ``pool.map`` whose tail chunks straggled.  Each cell's
rows cross the process boundary pickled and deflated
(:mod:`repro.experiments.wire`).

Telemetry crosses the process boundary the same way rows do:
instrumented hooks are instantiated inside the worker (from the shipped
names), collected into a :class:`~repro.obs.telemetry.RunTelemetry`
snapshot by :func:`~repro.experiments.runner.run_cell`, and attached to
each :class:`ResultRow` as a plain dict — so the serial and parallel
runners return byte-identical telemetry for the same seed, not just
identical scalar rows.  The harness additionally observes *itself*
(cells/sec, busy fraction, straggler ratio, pickle bytes, pool
rebuilds) into an optional :class:`~repro.obs.harness.HarnessStats`.

One entry point, :func:`run_named_experiment_resilient`, runs every
pooled or inline sweep.  Its ``on_error`` policy decides what a failing
cell does to the sweep: ``"fail"`` (the default) aborts on the first
bad cell, ``"skip"`` quarantines it, and ``"retry"`` re-runs it a
bounded number of times first.  On top of that it offers per-cell
wall-clock timeouts (SIGALRM inside the worker), incremental JSONL
checkpointing of completed cells (:mod:`repro.experiments.checkpoint`)
with resume, survival of worker-process deaths (the pool is rebuilt and
unfinished cells resubmitted), and a quarantine report of cells that
never succeeded.  Completed cells are identical to the serial runner's
(:func:`repro.experiments.runner.run_experiment`).
"""

from __future__ import annotations

import heapq
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.errors import CellTimeoutError, ModelError
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.dispatch import dispatch_order, effective_window, predict_cell_cost
from repro.experiments.runner import ResultRow, run_cell
from repro.experiments.wire import pack_rows, unpack_rows
from repro.obs.harness import HarnessStats, ProgressReporter
from repro.run_options import RunOptions

#: Pool rebuilds tolerated after worker-process deaths before the
#: remaining cells are quarantined (only under skip/retry policies).
MAX_POOL_REBUILDS = 3

#: Hard cap on one retry-backoff pause, seconds.
MAX_BACKOFF_S = 30.0


def _backoff_delay(base: float, attempt: int, cap: float = MAX_BACKOFF_S) -> float:
    """Deterministic exponential backoff: ``base * 2**(attempt-1)``, capped.

    Attempt 1 waits ``base``, attempt 2 ``2*base``, … — no jitter, so a
    sweep's pause schedule is a pure function of its failure history.
    ``base <= 0`` (the default policy) disables backoff entirely.
    """
    if base <= 0.0 or attempt <= 0:
        return 0.0
    return min(cap, base * (2.0 ** (attempt - 1)))


def _spec_for(name: str, overrides: dict):
    """Build the named spec from a sweep's flat overrides dict."""
    from repro.experiments.cli import build_spec

    return build_spec(
        name,
        n_reps=overrides["n_reps"],
        n_jobs=overrides["n_jobs"],
        seed=overrides["seed"],
        options=RunOptions.from_overrides(overrides),
    )


def _cell_error(name: str, point_index: int, rep: int, exc: BaseException, where=""):
    """A :class:`ModelError` naming the failed cell (chain ``exc`` to it)."""
    return ModelError(
        f"experiment {name!r} cell (point={point_index}, rep={rep}) "
        f"failed: {type(exc).__name__}: {exc}{where}"
    )


@contextmanager
def _cell_deadline(timeout_s: float | None):
    """Raise :class:`CellTimeoutError` in the calling (main) thread after
    ``timeout_s`` seconds of wall clock.

    Uses ``SIGALRM``/``setitimer``, so it guards only the main thread of
    the process and is a no-op on platforms without it (Windows); pool
    workers execute cells on their main thread, which is exactly where
    the guard is armed.
    """
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeoutError(
            f"cell exceeded its wall-clock timeout of {timeout_s:g}s"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_named_cell(args: tuple) -> tuple:
    """Rebuild the spec by name and run one cell under its deadline.

    Returns ``(rows, wall_s)``.  Any exception is re-raised as a
    :class:`ModelError` naming the cell — and, once the spec is known,
    its x-value and root seed — with the original exception chained, so
    the parent sees *which* (experiment, point, rep) failed and why
    instead of a bare traceback pickled out of an anonymous worker.
    :class:`CellTimeoutError` passes through untouched so the driver
    can classify timeouts.
    """
    name, overrides, point_index, rep, instrument, timeout_s = args
    t0 = time.perf_counter()
    with _cell_deadline(timeout_s):
        try:
            spec = _spec_for(name, overrides)
        except Exception as exc:
            raise _cell_error(name, point_index, rep, exc) from exc
        try:
            rows = run_cell(spec, point_index, rep, instrument=instrument)
        except CellTimeoutError:
            raise
        except Exception as exc:
            x = (
                f"{spec.points[point_index].x:g}"
                if 0 <= point_index < len(spec.points)
                else "?"
            )
            where = f" [x={x}, root_seed={spec.seed}]"
            raise _cell_error(name, point_index, rep, exc, where) from exc
    return rows, time.perf_counter() - t0


def _run_cell_payload(args: tuple) -> tuple:
    """Pool worker entry: :func:`_run_named_cell` with its rows packed
    (:func:`~repro.experiments.wire.pack_rows`)."""
    rows, wall_s = _run_named_cell(args)
    return pack_rows(rows), wall_s


def _validated_workers(n_workers: int | None) -> int:
    if n_workers is None:
        n_workers = max(1, (os.cpu_count() or 2) - 1)
    if n_workers < 1:
        raise ModelError(f"n_workers must be positive, got {n_workers}")
    return n_workers


def _known_experiment(name: str) -> None:
    from repro.experiments.cli import _BUILDERS

    if name not in _BUILDERS:
        raise ModelError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(_BUILDERS))}"
        )


@dataclass(frozen=True)
class QuarantinedCell:
    """A cell that never succeeded within the retry budget."""

    point: int
    rep: int
    attempts: int
    error: str


@dataclass
class SweepOutcome:
    """What a sweep produced.

    ``rows`` holds the completed cells' rows in serial order (missing
    cells simply contribute nothing); ``quarantined`` the cells that
    never succeeded; ``n_from_checkpoint`` / ``n_executed`` how many
    cells were restored vs actually run.
    """

    rows: list[ResultRow] = field(default_factory=list)
    quarantined: list[QuarantinedCell] = field(default_factory=list)
    n_from_checkpoint: int = 0
    n_executed: int = 0


def run_named_experiment_resilient(
    name: str,
    *,
    n_workers: int | None = None,
    n_reps: int | None = None,
    n_jobs: int | None = None,
    seed: int | None = None,
    options: RunOptions = RunOptions(),
    instrument: "tuple[str, ...] | None" = None,
    timeout_s: float | None = None,
    on_error: str = "fail",
    max_retries: int = 2,
    retry_backoff: float = 0.0,
    checkpoint_path: str | None = None,
    resume: bool = False,
    stats: HarnessStats | None = None,
    progress: bool = False,
) -> SweepOutcome:
    """Run the named experiment's cells inline or over a process pool.

    ``n_workers`` worker processes run the (point, rep) cells; 1 runs
    them inline in serial order.  ``options`` are the run options the
    experiment takes (:class:`~repro.run_options.RunOptions`).
    ``instrument`` names registered engine hooks; names (not hook
    objects) cross the process boundary.  ``stats`` (optional) collects
    the ``harness.*`` metrics; ``progress`` prints a live cells/sec +
    ETA line on stderr.

    ``timeout_s`` (positive seconds) bounds each cell's wall clock.
    ``on_error`` decides what a failing (or timed-out) cell does to the
    sweep: ``"fail"`` aborts on the first failure, ``"skip"``
    quarantines it immediately, ``"retry"`` re-runs it up to
    ``max_retries`` more times before quarantining.
    ``retry_backoff`` inserts a deterministic exponential pause before
    each re-run (``base * 2**(attempt-1)`` seconds, capped at
    :data:`MAX_BACKOFF_S`) — useful when cells fail on transient
    machine pressure rather than on their own inputs; the default 0
    retries immediately, the historical behavior.  On the pooled path a
    backing-off cell defers only *itself* (its ready time moves into
    the future); other cells keep the workers busy meanwhile.
    ``checkpoint_path`` appends every completed cell to a JSONL file,
    flushed as it completes; with ``resume=True`` cells already in that
    file are not re-run.  A worker process dying (OOM killer, SIGKILL)
    does not lose the sweep: the pool is rebuilt and unfinished cells
    are resubmitted (under ``"fail"`` it aborts, but committed cells
    are already on disk for ``--resume``).

    Rows come back in serial order (points outer, replications inner,
    schedulers innermost) and are byte-identical to the serial
    runner's — every cell derives its RNG stream from the root seed
    alone, so neither execution order, retries, nor a resume change any
    result.
    """
    _known_experiment(name)
    n_workers = _validated_workers(n_workers)
    if on_error not in ("fail", "skip", "retry"):
        raise ModelError(
            f"on_error must be one of fail/skip/retry, got {on_error!r}"
        )
    if max_retries < 0:
        raise ModelError(f"max_retries must be non-negative, got {max_retries}")
    if retry_backoff < 0:
        raise ModelError(f"retry_backoff must be non-negative, got {retry_backoff}")
    if timeout_s is not None and not timeout_s > 0:
        raise ModelError(f"timeout_s must be positive, got {timeout_s}")
    if resume and checkpoint_path is None:
        raise ModelError("resume=True requires a checkpoint_path")

    overrides = options.to_overrides(n_reps=n_reps, n_jobs=n_jobs, seed=seed)
    spec = _spec_for(name, overrides)
    all_cells = [
        (point_index, rep)
        for point_index in range(len(spec.points))
        for rep in range(spec.n_reps)
    ]

    completed: dict[tuple[int, int], list[ResultRow]] = {}
    store: CheckpointStore | None = None
    if checkpoint_path is not None:
        store = CheckpointStore(
            checkpoint_path,
            experiment=name,
            overrides=overrides,
        )
        if resume:
            completed = store.load_completed()
        store.start(fresh=not resume)

    outcome = SweepOutcome(n_from_checkpoint=len(completed))
    attempts: dict[tuple[int, int], int] = {}
    quarantined: dict[tuple[int, int], str] = {}
    reporter = ProgressReporter(
        name, len(all_cells), restored=len(completed), enabled=progress
    )
    t_start = time.monotonic()

    def cell_args(cell: tuple[int, int]) -> tuple:
        return (name, overrides, cell[0], cell[1], instrument, timeout_s)

    def record(cell, rows, wall_s, payload_bytes=0):
        """Keep a completed cell's rows and account for it."""
        completed[cell] = rows
        outcome.n_executed += 1
        if store is not None:
            store.append(cell[0], cell[1], rows)
        if stats is not None:
            stats.record_cell(
                cost=predict_cell_cost(spec, cell[0]),
                wall_s=wall_s,
                payload_bytes=payload_bytes,
            )
        reporter.cell_done()

    def on_failure(cell: tuple[int, int], exc: BaseException) -> float | None:
        """Apply the policy: the pause before a retry, or None for none."""
        attempts[cell] = attempts.get(cell, 0) + 1
        if on_error == "fail":
            if isinstance(exc, ModelError):
                raise exc
            raise _cell_error(name, cell[0], cell[1], exc) from exc
        if on_error == "retry" and attempts[cell] <= max_retries:
            return _backoff_delay(retry_backoff, attempts[cell])
        quarantined[cell] = f"{type(exc).__name__}: {exc}"
        return None

    try:
        if n_workers == 1:
            if stats is not None:
                stats.n_workers = 1
                stats.window = 1
            # Serial cell order inline (dispatch order buys nothing on
            # one worker and serial order aids debugging).
            _run_inline(
                [c for c in all_cells if c not in completed], cell_args, record, on_failure
            )
        else:
            _run_pooled(
                [c for c in dispatch_order(spec) if c not in completed], cell_args,
                record, on_failure, quarantined, attempts, n_workers,
                strict=on_error == "fail", stats=stats,
            )
        if stats is not None:
            stats.elapsed_s = time.monotonic() - t_start
    finally:
        if store is not None:
            store.close()

    for cell in all_cells:
        if cell in completed:
            outcome.rows.extend(completed[cell])
    outcome.quarantined = [
        QuarantinedCell(
            point=cell[0],
            rep=cell[1],
            attempts=attempts.get(cell, 0),
            error=error,
        )
        for cell, error in sorted(quarantined.items())
    ]
    return outcome


def _run_inline(pending: list[tuple[int, int]], cell_args, record, on_failure) -> None:
    """Cell loop in the driver process; a retried cell goes to the back."""
    queue = deque(pending)
    while queue:
        cell = queue.popleft()
        try:
            result = _run_named_cell(cell_args(cell))
        except Exception as exc:
            delay = on_failure(cell, exc)
            if delay is not None:
                if delay:
                    time.sleep(delay)
                queue.append(cell)
            continue
        record(cell, *result)


def _run_pooled(
    pending: list[tuple[int, int]],
    cell_args,
    record,
    on_failure,
    quarantined: dict,
    attempts: dict,
    n_workers: int,
    *,
    strict: bool,
    stats: HarnessStats | None,
) -> None:
    """Dynamic-dispatch pool loop that survives worker-process deaths.

    One long-lived pool serves the whole sweep (retries included):
    ``pending`` arrives in dispatch order and cells are submitted
    individually over a bounded in-flight window, so a completed
    worker immediately receives the next most expensive cell.  A
    retrying cell under backoff defers only itself — its ready time
    moves into the future while other cells keep the workers busy.

    A ``BrokenProcessPool`` (a worker was killed) fails every in-flight
    future, so the pool is discarded and rebuilt and the cells that had
    not completed are resubmitted — except under the strict (fail)
    policy, where the death aborts the sweep with the committed cells
    already checkpointed.  Pool rebuilds are bounded by
    :data:`MAX_POOL_REBUILDS`; past that the remaining cells are
    quarantined (the machine, not the cells, is the likely problem).
    """
    window = effective_window(n_workers)
    pool_size = min(n_workers, window)
    if stats is not None:
        stats.n_workers = pool_size
        stats.window = window
    ready: deque = deque(pending)
    delayed: list = []  # heap of (ready_time, tiebreak, cell)
    tiebreak = 0
    rebuilds = 0
    pool = ProcessPoolExecutor(max_workers=pool_size)
    inflight: dict = {}
    try:
        while ready or delayed or inflight:
            try:
                now = time.monotonic()
                # An expired retry jumps the queue: its remaining
                # backoff chain bounds the sweep's tail, so the sooner
                # it runs (or fails into its next pause), the more of
                # that chain overlaps the remaining work.
                while delayed and delayed[0][0] <= now:
                    ready.appendleft(heapq.heappop(delayed)[2])
                while ready and len(inflight) < window:
                    cell = ready.popleft()
                    fut = pool.submit(_run_cell_payload, cell_args(cell))
                    inflight[fut] = cell
                if not inflight:
                    # Everything left is backing off; sleep to the
                    # earliest ready time.
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                timeout = delayed[0][0] - now if delayed else None
                done, _ = wait(
                    set(inflight),
                    timeout=max(0.0, timeout) if timeout is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                broken: BrokenProcessPool | None = None
                for fut in done:
                    cell = inflight.pop(fut)
                    try:
                        payload = fut.result()
                    except BrokenProcessPool as exc:
                        # The cell never completed; keep it with the
                        # survivors the rebuild handler resubmits.
                        broken = exc
                        ready.appendleft(cell)
                        continue
                    except Exception as exc:
                        delay = on_failure(cell, exc)
                        if delay:
                            tiebreak += 1
                            heapq.heappush(
                                delayed, (time.monotonic() + delay, tiebreak, cell)
                            )
                        elif delay is not None:
                            ready.append(cell)
                        continue
                    blob, wall_s = payload
                    record(cell, unpack_rows(blob), wall_s, payload_bytes=len(blob))
                if broken is not None:
                    raise broken
            except BrokenProcessPool as exc:
                if strict:
                    raise ModelError(
                        "a worker process died mid-sweep (killed or crashed hard); "
                        "completed cells are checkpointed — rerun with --on-cell-error "
                        "skip/retry to rebuild the pool and continue instead"
                    ) from exc
                rebuilds += 1
                if stats is not None:
                    stats.pool_rebuilds += 1
                survivors = list(inflight.values())
                inflight.clear()
                pool.shutdown(wait=False)
                if rebuilds > MAX_POOL_REBUILDS:
                    survivors += list(ready) + [item[2] for item in delayed]
                    for cell in survivors:
                        attempts.setdefault(cell, 0)
                        quarantined[cell] = (
                            f"worker pool died {rebuilds} times; last: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    return
                ready.extendleft(reversed(survivors))
                pool = ProcessPoolExecutor(max_workers=pool_size)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
