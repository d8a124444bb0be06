"""Tests for the causal run tracer and its exporters."""

import hashlib
import json

import pytest

from repro.core.errors import ModelError
from repro.faults import FaultClassParams, exponential_fault_trace
from repro.io.json_format import schedule_to_dict
from repro.obs.tracing import (
    TRACE_SCHEMA,
    RunTracer,
    chrome_trace_events,
    collect_trace,
    read_trace_jsonl,
    validate_trace_payload,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import Engine, simulate
from repro.sim.hooks import make_hooks
from repro.sim.trace import TraceRecorder
from repro.util.jsonl import dumps
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance

#: The keys each trace body line must carry (what ``repro-trace`` reads).
_TRACE_LINE_KEYS = {
    "job": ("job", "release", "min_time", "origin", "completion", "stretch", "attempts"),
    "decision": ("seq", "time", "n_assignments", "changed", "provenance"),
    "event": ("event", "time", "resource"),
}


def small_instance(n=20, seed=7, load=0.8):
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=n, ccr=1.0, load=load), seed=seed
    )


def renewal_faults(inst, seed=5, mtbf=40.0, mttr=5.0):
    params = FaultClassParams(mtbf=mtbf, mttr=mttr)
    return exponential_fault_trace(
        n_edge=inst.platform.n_edge,
        n_cloud=inst.platform.n_cloud,
        horizon=float(inst.release.max() + inst.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
    )


def traced_run(inst, scheduler="ssf-edf", faults=None):
    tracer = RunTracer()
    result = simulate(inst, make_scheduler(scheduler), faults=faults, hooks=[tracer])
    return result, tracer.payload()


class TestJobSpans:
    def test_every_job_has_a_completed_span(self):
        result, payload = traced_run(small_instance())
        assert payload["schema"] == TRACE_SCHEMA
        assert len(payload["jobs"]) == payload["n_jobs"] == result.instance.n_jobs
        for job in payload["jobs"]:
            assert job["completion"] is not None
            assert job["attempts"], f"job {job['job']} has no attempts"
            last = job["attempts"][-1]
            assert last["outcome"] == "completed"
            assert last["end"] == job["completion"]

    def test_stretch_equals_result_exactly(self):
        # Float equality, not approx: the tracer reconstructs stretch
        # with the same (C - r) / min_time arithmetic as the result.
        result, payload = traced_run(small_instance())
        stretches = result.stretches()
        for job in payload["jobs"]:
            assert job["stretch"] == float(stretches[job["job"]])
        assert payload["max_stretch"] == result.max_stretch
        assert payload["makespan"] == result.makespan

    def test_segments_lie_inside_their_attempt(self):
        _, payload = traced_run(small_instance())
        for job in payload["jobs"]:
            for attempt in job["attempts"]:
                for name, t0, t1 in attempt["segments"]:
                    assert name in ("uplink", "compute", "downlink")
                    assert attempt["start"] <= t0 < t1
                    assert attempt["end"] is None or t1 <= attempt["end"] + 1e-9

    def test_fault_aborts_are_blamed(self):
        inst = small_instance(n=25, seed=13)
        result, payload = traced_run(
            inst, scheduler="ssf-edf-fa", faults=renewal_faults(inst)
        )
        aborted = [
            a
            for job in payload["jobs"]
            for a in job["attempts"]
            if a["outcome"] == "aborted"
        ]
        assert aborted, "fault trace produced no aborts; pick a harsher seed"
        assert result.n_reexecutions > 0
        for attempt in aborted:
            assert attempt["aborted_by"] is not None
        # Every abort also appears in the event stream with its job.
        abort_events = [e for e in payload["events"] if e["event"] == "attempt_aborted"]
        assert len(abort_events) == len(aborted)

    def test_faulted_stretch_still_exact(self):
        inst = small_instance(n=25, seed=13)
        result, payload = traced_run(
            inst, scheduler="ssf-edf-fa", faults=renewal_faults(inst)
        )
        stretches = result.stretches()
        for job in payload["jobs"]:
            assert job["stretch"] == float(stretches[job["job"]])


class TestDecisionProvenance:
    def test_ssf_edf_attaches_provenance(self):
        _, payload = traced_run(small_instance())
        assert payload["decisions"]
        provs = [d["provenance"] for d in payload["decisions"]]
        assert all(p is not None for p in provs)
        paths = {p["path"] for p in provs}
        assert paths <= {"rebuild", "probe_adoption", "replay"}
        with_probes = [p for p in provs if p["probes"]]
        assert with_probes, "no decision recorded binary-search probes"
        rejected = [
            probe
            for p in with_probes
            for probe in p["probes"]
            if not probe["feasible"]
        ]
        assert rejected, "no probe was ever rejected"
        for probe in rejected:
            v = probe["violator"]
            assert v["completion"] > v["deadline"]

    def test_placement_explanations_cover_live_jobs(self):
        _, payload = traced_run(small_instance())
        for d in payload["decisions"]:
            prov = d["provenance"]
            if prov["path"] == "replay" or prov["placements"] is None:
                continue
            for row in prov["placements"]:
                assert row["kind"] in ("edge", "cloud")
                assert row["completion"] > 0.0

    @pytest.mark.parametrize("scheduler", ["ssf-edf", "ssf-edf-fa"])
    def test_every_placement_row_names_a_cloud(self, scheduler):
        # Explain passes scan every cloud, so each row's losing
        # alternative is a real cloud completing after the decision,
        # never a skipped scan's -1 at t=0.
        inst = small_instance(n=25, seed=13)
        _, payload = traced_run(inst, scheduler=scheduler, faults=renewal_faults(inst))
        rows = [
            (d["time"], row)
            for d in payload["decisions"]
            for row in d["provenance"]["placements"] or []
        ]
        assert rows
        for time, row in rows:
            assert 0 <= row["cloud_index"] < inst.platform.n_cloud, row
            assert row["cloud_completion"] > time, row

    def test_floor_reports_only_in_failure_aware_mode(self):
        inst = small_instance(n=25, seed=13)
        _, plain = traced_run(inst, scheduler="ssf-edf")
        assert all(d["provenance"]["floors"] == [] for d in plain["decisions"])
        _, fa = traced_run(
            inst, scheduler="ssf-edf-fa", faults=renewal_faults(inst)
        )
        floored = [
            f for d in fa["decisions"] for f in d["provenance"]["floors"]
        ]
        assert floored, "faulted fa run never reported a capacity floor"
        for f in floored:
            assert f["kind"] in ("edge", "cloud", "link")
            assert f["reason"] in ("down", "link_down", "co_tenant")
            assert f["floor"] > 0.0

    def test_schedulers_without_capability_trace_fine(self):
        _, payload = traced_run(small_instance(), scheduler="srpt")
        assert payload["decisions"]
        assert all(d["provenance"] is None for d in payload["decisions"])


class TestZeroCostWhenDisabled:
    def test_untraced_run_is_bit_identical(self):
        inst = small_instance(n=30, seed=3)
        plain = simulate(inst, make_scheduler("ssf-edf"))
        traced = simulate(inst, make_scheduler("ssf-edf"), hooks=[RunTracer()])
        assert (
            hashlib.sha256(plain.completion.tobytes()).hexdigest()
            == hashlib.sha256(traced.completion.tobytes()).hexdigest()
        )
        assert plain.scheduler_stats == traced.scheduler_stats

    def test_provenance_off_without_tracer(self):
        inst = small_instance()
        sched = make_scheduler("ssf-edf")
        simulate(inst, sched)
        assert sched._provenance is False
        assert sched._pending_prov is None

    def test_provenance_resets_on_scheduler_reuse(self):
        # The same scheduler object run traced then untraced must not
        # keep paying for provenance on the second run.
        inst = small_instance()
        sched = make_scheduler("ssf-edf")
        simulate(inst, sched, hooks=[RunTracer()])
        assert sched._provenance is True
        simulate(inst, sched)
        assert sched._provenance is False


class TestOneAttemptRecord:
    """A run with a tracer keeps one attempt record, the tracer's."""

    def test_tracer_is_the_only_recorder(self):
        inst = small_instance(n=30, seed=3)
        faults = renewal_faults(inst)
        tracer = RunTracer()
        engine = Engine(inst, make_scheduler("ssf-edf"), faults=faults, hooks=[tracer])
        assert engine.recorder is tracer
        for callbacks in (
            engine.hooks.assign, engine.hooks.step, engine.hooks.abort, engine.hooks.complete
        ):
            recorders = [cb.__self__ for cb in callbacks if isinstance(cb.__self__, TraceRecorder)]
            assert recorders == [tracer]
        traced = engine.run()
        plain = simulate(inst, make_scheduler("ssf-edf"), faults=faults)
        assert dumps(schedule_to_dict(traced.schedule)) == dumps(schedule_to_dict(plain.schedule))

    def test_first_recorder_among_hooks_is_adopted(self):
        first, second = TraceRecorder(), RunTracer()
        engine = Engine(small_instance(), make_scheduler("fcfs"), hooks=[first, second])
        assert engine.recorder is first
        assert [h for h in engine.hooks.hooks if isinstance(h, TraceRecorder)] == [first, second]

    def test_tracer_without_record_trace_returns_no_schedule(self):
        inst = small_instance()
        tracer = RunTracer()
        result = simulate(inst, make_scheduler("ssf-edf"), record_trace=False, hooks=[tracer])
        assert result.schedule is None
        # The tracer still records the run it was attached to.
        assert len(tracer.payload()["jobs"]) == inst.n_jobs


class TestJsonlRoundtrip:
    def test_write_read_json_equal(self, tmp_path):
        _, payload = traced_run(small_instance())
        path = tmp_path / "run.trace.jsonl"
        n_lines = write_trace_jsonl(str(path), payload)
        assert n_lines == 1 + len(payload["jobs"]) + len(payload["decisions"]) + len(
            payload["events"]
        )
        back = read_trace_jsonl(str(path))
        assert json.loads(json.dumps(back)) == json.loads(json.dumps(payload))

    def test_rewrite_byte_stable(self, tmp_path):
        _, payload = traced_run(small_instance())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(str(a), payload)
        write_trace_jsonl(str(b), read_trace_jsonl(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_identical_runs_identical_bytes(self, tmp_path):
        inst = small_instance(n=25, seed=13)
        faults = renewal_faults(inst)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _, p1 = traced_run(inst, scheduler="ssf-edf-fa", faults=faults)
        _, p2 = traced_run(inst, scheduler="ssf-edf-fa", faults=faults)
        write_trace_jsonl(str(a), p1)
        write_trace_jsonl(str(b), p2)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_lines_raise_with_position(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(ModelError, match=r"t\.jsonl:1: not valid JSON"):
            read_trace_jsonl(str(path))
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ModelError, match="unknown trace record kind"):
            read_trace_jsonl(str(path))
        path.write_text('{"kind": "job", "job": 0}\n')
        with pytest.raises(ModelError, match="no trace header"):
            read_trace_jsonl(str(path))
        path.write_text('{"kind": "header", "schema": "repro.trace/99"}\n')
        with pytest.raises(ModelError, match="unknown trace schema"):
            read_trace_jsonl(str(path))

    @pytest.mark.parametrize("cut", ["newline", "mid-record"])
    def test_torn_file_refused(self, tmp_path, cut):
        # A trace is written whole: any bytes after the last newline —
        # even a complete record that only lacks its newline — mean the
        # writer was interrupted, and the file is refused.
        _, payload = traced_run(small_instance(n=5))
        path = tmp_path / "t.jsonl"
        write_trace_jsonl(str(path), payload)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] if cut == "newline" else blob[:-5])
        with pytest.raises(ModelError, match=r"t\.jsonl: torn trace file"):
            read_trace_jsonl(str(path))

    def test_non_utf8_line_names_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"kind": "header", "schema": "repro.trace/1"}\n\xff\n')
        with pytest.raises(ModelError, match=r"t\.jsonl:2: not valid JSON"):
            read_trace_jsonl(str(path))

    @pytest.mark.parametrize(
        "kind, key",
        [("job", k) for k in _TRACE_LINE_KEYS["job"]]
        + [("decision", k) for k in _TRACE_LINE_KEYS["decision"]]
        + [("event", k) for k in _TRACE_LINE_KEYS["event"]],
    )
    def test_line_missing_a_key_names_line_and_key(self, tmp_path, kind, key):
        inst = small_instance(n=8, seed=13)
        _, payload = traced_run(inst, scheduler="ssf-edf-fa", faults=renewal_faults(inst))
        path = tmp_path / "t.jsonl"
        write_trace_jsonl(str(path), payload)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lineno = next(n for n, line in enumerate(lines, 1) if line["kind"] == kind)
        del lines[lineno - 1][key]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ModelError, match=rf"t\.jsonl:{lineno}: .*{kind}.*'{key}'"):
            read_trace_jsonl(str(path))

    def test_validate_rejects_bad_payloads(self):
        with pytest.raises(ModelError, match="must be an object"):
            validate_trace_payload([])
        with pytest.raises(ModelError, match="unknown trace schema"):
            validate_trace_payload({"schema": "other"})
        _, payload = traced_run(small_instance(n=5))
        broken = dict(payload)
        broken["jobs"] = payload["jobs"][:-1]
        with pytest.raises(ModelError, match="lists 4 jobs but n_jobs=5"):
            validate_trace_payload(broken)


class TestChromeExport:
    def test_shape_and_counts(self, tmp_path):
        _, payload = traced_run(small_instance())
        path = tmp_path / "chrome.json"
        n_events = write_chrome_trace(str(path), payload)
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert len(doc["traceEvents"]) == n_events
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}
        # Every X event lives in the jobs or resources process and has
        # non-negative duration.
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                assert e["pid"] in (1, 2)
                assert e["dur"] >= 0.0

    def test_durations_match_segments(self):
        _, payload = traced_run(small_instance(n=6, seed=1))
        events = chrome_trace_events(payload)
        job0 = payload["jobs"][0]
        segs = [s for a in job0["attempts"] for s in a["segments"]]
        xs = [e for e in events if e["ph"] == "X" and e["pid"] == 1 and e["tid"] == 0]
        assert len(xs) == len(segs)
        for (name, t0, t1), e in zip(segs, xs):
            assert e["name"] == name
            assert e["ts"] == pytest.approx(t0 * 1e6)
            assert e["dur"] == pytest.approx((t1 - t0) * 1e6)

    def test_fault_transitions_become_instants(self):
        inst = small_instance(n=25, seed=13)
        _, payload = traced_run(
            inst, scheduler="ssf-edf-fa", faults=renewal_faults(inst)
        )
        events = chrome_trace_events(payload)
        names = {e["name"] for e in events if e["ph"] == "i" and e["pid"] == 2}
        assert names & {"resource_down", "link_down"}


class TestCollectAndRegistry:
    def test_collect_trace_finds_tracer(self):
        inst = small_instance(n=5)
        hooks = make_hooks(["tracing"])
        assert isinstance(hooks[0], RunTracer)
        simulate(inst, make_scheduler("srpt"), hooks=hooks)
        payload = collect_trace(hooks)
        assert payload is not None and payload["n_jobs"] == 5

    def test_collect_trace_none_without_tracer(self):
        assert collect_trace([]) is None
        assert collect_trace(make_hooks(["counter"])) is None

    def test_payload_before_finish_raises(self):
        with pytest.raises(ModelError, match="before the run finished"):
            RunTracer().payload()
