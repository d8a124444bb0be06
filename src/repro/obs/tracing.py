"""Causal run tracing: job-lifecycle spans + decision provenance.

:class:`RunTracer` is a :class:`repro.sim.trace.TraceRecorder` — the
run's attempt record, an :class:`~repro.sim.hooks.EngineHooks`
implementation with zero hot-loop cost when not registered — that
adds what it takes to turn one simulation into an explainable
artifact:

* **job-lifecycle spans** — the recorder's attempts written out per
  job: release, every attempt (resource, start/end, outcome
  ``completed`` / ``aborted`` / ``superseded``) with its coalesced
  uplink/compute/downlink segments, the resource whose fault aborted
  it, closed with the job's realized stretch;
* **decision provenance** — one record per scheduler decision with the
  *changed* placements (delta vs the pre-decision allocations) and,
  for schedulers that support it (SSF-EDF's ``set_provenance``), the
  structured :class:`~repro.schedulers.placement.DecisionProvenance`:
  binary-search probes with their rejection reasons, per-job placement
  explanations, and the failure-aware capacity push-back report;
* **fault events** — every down/up transition and fault abort, so
  waits can be attributed post hoc.

Everything recorded is *simulation-time* arithmetic — no wall clocks,
no randomness — so two identical runs produce byte-identical traces
regardless of which process executed them (the same guarantee the
telemetry monitors give).

Exporters: :func:`write_trace_jsonl` (versioned canonical-JSON lines
through :mod:`repro.util.jsonl`, like the telemetry sink) and
:func:`write_chrome_trace` (Chrome trace-event JSON, loadable in
Perfetto / ``chrome://tracing``: jobs as one process, resources as
another).  ``python -m repro.obs.trace_cli`` (installed as
``repro-trace``) summarizes, explains and diffs trace files.

The tracer registers as hook name ``"tracing"`` (``--instrument
tracing`` or the CLIs' ``--trace-out``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.errors import ModelError
from repro.sim.events import EventKind
from repro.sim.hooks import EngineHooks, register_hook
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK
from repro.sim.state import ALLOC_EDGE
from repro.sim.trace import TraceRecorder
from repro.util.jsonl import read_jsonl, write_jsonl

#: Trace-record layout tag; bump together with the record vocabulary.
TRACE_SCHEMA = "repro.trace/1"

#: The keys :meth:`RunTracer.payload` writes on each kind of body line
#: (the ones ``repro-trace`` reads); :func:`read_trace_jsonl` checks them.
_LINE_KEYS = {
    "job": ("job", "release", "min_time", "origin", "completion", "stretch", "attempts"),
    "decision": ("seq", "time", "n_assignments", "changed", "provenance"),
    "event": ("event", "time", "resource"),
}

#: Activity code → segment phase string.
_SEGMENT_PHASE = {ACT_UPLINK: "uplink", ACT_COMPUTE: "compute", ACT_DOWNLINK: "downlink"}

#: Fault/availability event kinds recorded in the trace's event stream.
#: The checkpoint kinds only ever fire under a
#: :class:`repro.sim.checkpoint.CheckpointPolicy`, so historical
#: (non-checkpointed) traces are unchanged byte for byte.
_FAULT_EVENTS = {
    EventKind.RESOURCE_DOWN: "resource_down",
    EventKind.RESOURCE_UP: "resource_up",
    EventKind.LINK_DOWN: "link_down",
    EventKind.LINK_UP: "link_up",
    EventKind.ATTEMPT_ABORTED: "attempt_aborted",
    EventKind.CHECKPOINT_COMMITTED: "checkpoint_committed",
    EventKind.JOB_ABANDONED: "job_abandoned",
}


def _res_str(resource) -> str:
    """A resource as the trace's stable string form (``edge:3`` / ``cloud:1``)."""
    return f"edge:{resource.index}" if resource.is_edge else f"cloud:{resource.index}"


class RunTracer(TraceRecorder):
    """Record one run's job spans, decisions and fault events.

    Registered as hook name ``"tracing"``.  The attempts and completions
    are the inherited :class:`~repro.sim.trace.TraceRecorder` record;
    the tracer adds the decisions, the fault events, each aborted
    attempt's ``aborted_by`` resource and the decision provenance.  It
    sets :attr:`~repro.sim.hooks.EngineHooks.wants_decision_provenance`,
    so the engine asks provenance-capable schedulers to attach a
    structured explanation to every decision; schedulers without the
    capability still trace fine (the provenance field is just null).

    After ``on_finish``, :meth:`payload` returns the full trace as one
    JSON-ready dict (the form that rides ``ResultRow.trace`` across
    process pools); the module-level exporters serialize it.
    """

    wants_decision_provenance = True

    def __init__(self) -> None:
        super().__init__()
        self._decisions: list[dict] = []
        self._events: list[dict] = []
        self._abandoned: set[int] = set()
        self._result = None

    # -- engine callbacks --------------------------------------------------

    def on_decision(self, now: float, decision) -> None:
        """Record the decision: changed placements + provenance, if any.

        The decision is not applied yet, so the view still holds the
        allocations it is compared against.
        """
        alloc_kind = self._view.alloc_kind
        alloc_index = self._view.alloc_index
        n_jobs = len(alloc_kind)
        changed = [
            {"job": j, "kind": "edge" if k == ALLOC_EDGE else "cloud", "index": i}
            for j, k, i in zip(*decision.as_lists())
            # An unknown job counts as changed; the engine rejects it next.
            if not 0 <= j < n_jobs or alloc_kind[j] != k or alloc_index[j] != i
        ]
        prov = getattr(decision, "provenance", None)
        self._decisions.append(
            {
                "seq": len(self._decisions),
                "time": now,
                "n_assignments": len(decision),
                "changed": changed,
                "provenance": None if prov is None else prov.to_dict(),
            }
        )

    def on_events(self, events: Sequence) -> None:
        """Record fault/availability transitions; blame fault aborts."""
        for ev in events:
            name = _FAULT_EVENTS.get(ev.kind)
            if name is None:
                continue
            res = None if ev.resource is None else _res_str(ev.resource)
            record: dict = {"event": name, "time": ev.time, "resource": res}
            if ev.kind is EventKind.ATTEMPT_ABORTED:
                record["job"] = ev.job
                attempts = self._attempts[ev.job]
                if attempts and attempts[-1]["outcome"] == "aborted":
                    attempts[-1]["aborted_by"] = res
            elif ev.kind is EventKind.CHECKPOINT_COMMITTED:
                record["job"] = ev.job
            elif ev.kind is EventKind.JOB_ABANDONED:
                record["job"] = ev.job
                self._abandoned.add(ev.job)
            self._events.append(record)

    def on_finish(self, result) -> None:
        """Keep the result for the header/stretch fields of the payload."""
        self._result = result

    # -- payload -----------------------------------------------------------

    def payload(self) -> dict:
        """The full trace as one JSON-ready dict (see :data:`TRACE_SCHEMA`).

        Per-job ``stretch`` is the same ``(completion - release) /
        min_time`` arithmetic as ``SimulationResult.stretches()``, so
        the reconstructed values equal the result's exactly.
        """
        if self._result is None:
            raise ModelError("RunTracer.payload() called before the run finished")
        result = self._result
        instance = result.instance
        jobs = []
        for j in range(instance.n_jobs):
            completion = self._completion[j]
            release = float(instance.release[j])
            min_time = float(instance.min_time[j])
            stretch = None if completion is None else (completion - release) / min_time
            record = {
                "job": j,
                "release": release,
                "min_time": min_time,
                "origin": int(instance.origin[j]),
                "completion": completion,
                "stretch": stretch,
                "attempts": [_attempt_span(a) for a in self._attempts[j]],
            }
            # Conditional key: only abandoned jobs carry it, so traces of
            # runs without a retry budget keep their historical bytes.
            if j in self._abandoned:
                record["abandoned"] = True
            jobs.append(record)
        return {
            "schema": TRACE_SCHEMA,
            "scheduler": result.scheduler_name,
            "n_jobs": instance.n_jobs,
            "max_stretch": result.max_stretch,
            "makespan": result.makespan,
            "n_decisions": result.n_decisions,
            "n_events": result.n_events,
            "jobs": jobs,
            "decisions": self._decisions,
            "events": self._events,
        }


def _attempt_span(attempt: dict) -> dict:
    """One recorded attempt in the trace's vocabulary."""
    return {
        "resource": _res_str(attempt["resource"]),
        "start": attempt["start"],
        "end": attempt["end"],
        "outcome": attempt["outcome"],
        "aborted_by": attempt.get("aborted_by"),
        "segments": [[_SEGMENT_PHASE[act], t0, t1] for act, t0, t1 in attempt["segments"]],
    }


def collect_trace(hooks: Iterable[EngineHooks]) -> dict | None:
    """The payload of the first :class:`RunTracer` among ``hooks`` (or None)."""
    for hook in hooks:
        if isinstance(hook, RunTracer):
            return hook.payload()
    return None


# -- JSONL export ------------------------------------------------------------


def validate_trace_payload(payload: object) -> dict:
    """Structural check of a trace payload; returns it (else ``ModelError``)."""
    if not isinstance(payload, dict):
        raise ModelError(f"trace payload must be an object, got {type(payload).__name__}")
    if payload.get("schema") != TRACE_SCHEMA:
        raise ModelError(
            f"unknown trace schema {payload.get('schema')!r} "
            f"(this build reads {TRACE_SCHEMA!r})"
        )
    for field, cls in (
        ("scheduler", str),
        ("n_jobs", int),
        ("jobs", list),
        ("decisions", list),
        ("events", list),
    ):
        if not isinstance(payload.get(field), cls):
            raise ModelError(f"trace payload field {field!r} must be a {cls.__name__}")
    if len(payload["jobs"]) != payload["n_jobs"]:
        raise ModelError(
            f"trace payload lists {len(payload['jobs'])} jobs but n_jobs="
            f"{payload['n_jobs']}"
        )
    return payload


def write_trace_jsonl(path: str, payload: dict) -> int:
    """Write one trace payload as versioned JSONL; returns the line count.

    Line order is deterministic (header, jobs ascending, decisions by
    sequence, events in emission order) and every line is canonical
    JSON, so serial and parallel runs of the same cell produce
    byte-identical files.
    """
    validate_trace_payload(payload)
    header = {k: v for k, v in payload.items() if k not in ("jobs", "decisions", "events")}
    header["kind"] = "header"
    lines = [header]
    lines += [{"kind": "job", **job} for job in payload["jobs"]]
    lines += [{"kind": "decision", **d} for d in payload["decisions"]]
    lines += [{"kind": "event", **e} for e in payload["events"]]
    return write_jsonl(path, lines)


def read_trace_jsonl(path: str) -> dict:
    """Read a trace JSONL file back into one payload dict.

    Raises :class:`ModelError` naming the first malformed line, or the
    first line that lacks a key :meth:`RunTracer.payload` writes.  A
    trace is written whole, so a file with a torn tail (bytes after its
    last newline) is refused rather than explained in part.
    """
    lines, torn_at = read_jsonl(path)
    if torn_at is not None:
        raise ModelError(
            f"{path}: torn trace file: bytes after offset {torn_at} are not "
            "newline-terminated (the writer was interrupted)"
        )
    header: dict | None = None
    body: list[tuple[int, str, dict]] = []
    for lineno, record in lines:
        kind = record.pop("kind", None)
        if kind == "header":
            if record.get("schema") != TRACE_SCHEMA:
                raise ModelError(
                    f"{path}:{lineno}: unknown trace schema "
                    f"{record.get('schema')!r} (this build reads {TRACE_SCHEMA!r})"
                )
            header = record
        elif kind in _LINE_KEYS:
            body.append((lineno, kind, record))
        else:
            raise ModelError(f"{path}:{lineno}: unknown trace record kind {kind!r}")
    if header is None:
        raise ModelError(f"{path}: no trace header line")
    # Keys are checked once the header is known, so a file without one
    # is reported as such rather than by its first short line.
    parts: dict[str, list[dict]] = {kind: [] for kind in _LINE_KEYS}
    for lineno, kind, record in body:
        for key in _LINE_KEYS[kind]:
            if key not in record:
                raise ModelError(f"{path}:{lineno}: trace {kind} line lacks key {key!r}")
        parts[kind].append(record)
    payload = dict(header)
    payload["jobs"] = sorted(parts["job"], key=lambda j: j["job"])
    payload["decisions"] = sorted(parts["decision"], key=lambda d: d["seq"])
    payload["events"] = parts["event"]
    return validate_trace_payload(payload)


# -- Chrome trace-event export -----------------------------------------------

#: Simulation time unit → trace microseconds (Perfetto renders us/ms).
_TS_SCALE = 1e6


def chrome_trace_events(payload: dict) -> list[dict]:
    """The payload as Chrome trace-event records (Perfetto-loadable).

    Process 1 holds one thread per job (duration events per segment,
    instants for release/abort/completion); process 2 one thread per
    compute resource (who occupied it when) with fault transitions as
    instants.
    """
    validate_trace_payload(payload)
    events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "jobs"}},
        {
            "ph": "M",
            "pid": 2,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "resources"},
        },
    ]
    res_tids: dict[str, int] = {}

    def res_tid(res: str) -> int:
        tid = res_tids.get(res)
        if tid is None:
            tid = res_tids[res] = len(res_tids)
            events.append(
                {
                    "ph": "M",
                    "pid": 2,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": res},
                }
            )
        return tid

    for job in payload["jobs"]:
        j = job["job"]
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": j,
                "name": "thread_name",
                "args": {"name": f"job {j}"},
            }
        )
        events.append(
            {
                "ph": "i",
                "pid": 1,
                "tid": j,
                "name": "release",
                "ts": job["release"] * _TS_SCALE,
                "s": "t",
            }
        )
        for a_idx, attempt in enumerate(job["attempts"]):
            for phase, t0, t1 in attempt["segments"]:
                events.append(
                    {
                        "ph": "X",
                        "pid": 1,
                        "tid": j,
                        "name": phase,
                        "cat": "attempt",
                        "ts": t0 * _TS_SCALE,
                        "dur": (t1 - t0) * _TS_SCALE,
                        "args": {"resource": attempt["resource"], "attempt": a_idx},
                    }
                )
                if phase == "compute":
                    events.append(
                        {
                            "ph": "X",
                            "pid": 2,
                            "tid": res_tid(attempt["resource"]),
                            "name": f"job {j}",
                            "cat": "compute",
                            "ts": t0 * _TS_SCALE,
                            "dur": (t1 - t0) * _TS_SCALE,
                            "args": {"job": j},
                        }
                    )
            if attempt["outcome"] == "aborted" and attempt["end"] is not None:
                events.append(
                    {
                        "ph": "i",
                        "pid": 1,
                        "tid": j,
                        "name": "abort",
                        "ts": attempt["end"] * _TS_SCALE,
                        "s": "t",
                    }
                )
        if job["completion"] is not None:
            events.append(
                {
                    "ph": "i",
                    "pid": 1,
                    "tid": j,
                    "name": "complete",
                    "ts": job["completion"] * _TS_SCALE,
                    "s": "t",
                }
            )
    for ev in payload["events"]:
        if ev["event"] == "attempt_aborted" or ev["resource"] is None:
            continue
        events.append(
            {
                "ph": "i",
                "pid": 2,
                "tid": res_tid(ev["resource"]),
                "name": ev["event"],
                "ts": ev["time"] * _TS_SCALE,
                "s": "t",
            }
        )
    return events


def write_chrome_trace(path: str, payload: dict) -> int:
    """Write the payload as Chrome trace-event JSON; returns the event count."""
    events = chrome_trace_events(payload)
    # One canonical JSON document on one line: a one-record JSONL file.
    write_jsonl(path, [{"traceEvents": events, "displayTimeUnit": "ms"}])
    return len(events)


register_hook("tracing", RunTracer)
