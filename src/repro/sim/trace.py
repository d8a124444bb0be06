"""The attempt record of one run, and the :class:`Schedule` built from it.

:class:`TraceRecorder` is an :class:`~repro.sim.hooks.EngineHooks`
implementation — the engine has no trace-specific code; it fires
``on_assign`` / ``on_step`` / ``on_abort`` / ``on_complete`` and the
recorder keeps, per job, every attempt: its resource, start, end,
outcome and the coalesced ``[activity, t0, t1]`` segments it ran.
:meth:`TraceRecorder.build` turns the record into the interval-based
schedule of :mod:`repro.core.schedule` once, at the end, which the
independent validator can then re-check.  The causal run tracer
(:class:`repro.obs.tracing.RunTracer`) is a subclass that writes the
same record out as the trace's job spans.
"""

from __future__ import annotations

from repro.core.intervals import Interval
from repro.core.schedule import Schedule
from repro.sim.hooks import EngineHooks
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK


class TraceRecorder(EngineHooks):
    """Every attempt of one simulation run, with its outcome and segments.

    Per job, ``_attempts[j]`` lists the attempts in opening order, each a
    dict ``{"resource", "start", "end", "outcome", "segments"}``:
    ``end`` is None and ``outcome`` is ``"open"`` until the attempt is
    ``"superseded"`` (re-assigned), ``"aborted"`` (a fault killed it) or
    ``"completed"``; ``segments`` holds ``[act, t0, t1]`` lists with the
    ledger's ``ACT_*`` activity code, consecutive steps of one activity
    coalesced into one segment.  ``_completion[j]`` is the job's
    completion time, None while it has none.
    """

    def __init__(self) -> None:
        self._view = None
        self._attempts: list[list[dict]] = []
        self._completion: list[float | None] = []
        #: job -> segment list of its latest attempt (where steps land).
        self._open: list[list | None] = []

    # -- hook callbacks (how the engine drives the recorder) -------------------

    def on_start(self, view) -> None:
        """Size the per-job record for the run's instance."""
        n = view.instance.n_jobs
        self._view = view
        self._attempts = [[] for _ in range(n)]
        self._completion = [None] * n
        self._open = [None] * n

    def on_assign(self, job: int, resource, now: float) -> None:
        """Open a fresh attempt; the one it replaces (if open) is superseded."""
        self._close(job, now, "superseded")
        segments: list = []
        self._attempts[job].append(
            {
                "resource": resource,
                "start": now,
                "end": None,
                "outcome": "open",
                "segments": segments,
            }
        )
        self._open[job] = segments

    def on_step(self, t0: float, t1: float, jobs, acts, rates) -> None:
        """Extend or open one segment per activity that ran during ``[t0, t1)``."""
        if t1 <= t0:
            return
        open_segments = self._open
        for job, act in zip(jobs, acts):
            spans = open_segments[job]
            if spans:
                last = spans[-1]
                if last[2] == t0 and last[0] == act:
                    last[2] = t1
                    continue
            spans.append([act, t0, t1])

    def on_abort(self, job: int, time: float) -> None:
        """Close the job's attempt as fault-aborted."""
        self._close(job, time, "aborted")

    def on_complete(self, job: int, time: float) -> None:
        """Close the job's attempt as completed and keep the completion."""
        self._close(job, time, "completed")
        self._completion[job] = time

    def _close(self, job: int, time: float, outcome: str) -> None:
        attempts = self._attempts[job]
        if attempts and attempts[-1]["end"] is None:
            attempts[-1]["end"] = time
            attempts[-1]["outcome"] = outcome

    # -- the schedule ----------------------------------------------------------

    def build(self) -> Schedule:
        """The recorded run as a :class:`Schedule` (one attempt per record)."""
        schedule = Schedule(self._view.instance)
        for job, attempts in enumerate(self._attempts):
            for record in attempts:
                attempt = schedule.new_attempt(job, record["resource"])
                intervals = {
                    ACT_UPLINK: attempt.uplink,
                    ACT_COMPUTE: attempt.execution,
                    ACT_DOWNLINK: attempt.downlink,
                }
                for act, t0, t1 in record["segments"]:
                    intervals[act].add(Interval(t0, t1))
            if self._completion[job] is not None:
                schedule.set_completion(job, self._completion[job])
        return schedule
