"""Tests for the ``repro-trace`` explain/diff CLI."""

import re

import pytest

from repro.obs.trace_cli import main
from repro.obs.tracing import write_trace_jsonl
from tests.obs.test_tracing import renewal_faults, small_instance, traced_run


@pytest.fixture(scope="module")
def faulted_trace(tmp_path_factory):
    """One faulted ssf-edf-fa run written as trace JSONL."""
    inst = small_instance(n=25, seed=13)
    result, payload = traced_run(
        inst, scheduler="ssf-edf-fa", faults=renewal_faults(inst)
    )
    path = tmp_path_factory.mktemp("trace") / "fa.trace.jsonl"
    write_trace_jsonl(str(path), payload)
    return result, payload, str(path)


class TestSummary:
    def test_header_and_tallies(self, faulted_trace, capsys):
        result, payload, path = faulted_trace
        assert main(["summary", path]) == 0
        out = capsys.readouterr().out
        assert "scheduler:   ssf-edf-fa" in out
        assert f"jobs:        {payload['n_jobs']}" in out
        assert "probes)" in out  # provenance path tallies rendered
        assert re.search(r"faults:\s+\d+ outages, \d+ aborted attempts", out)
        assert "top stretch:" in out


class TestJob:
    def test_timeline_renders(self, faulted_trace, capsys):
        _, payload, path = faulted_trace
        assert main(["job", path, "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("job 0: release ")
        assert "attempt 0 on " in out
        assert "completion " in out and "stretch " in out

    def test_aborted_attempt_shows_blame(self, faulted_trace, capsys):
        _, payload, path = faulted_trace
        aborted_job = next(
            j["job"]
            for j in payload["jobs"]
            if any(a["outcome"] == "aborted" for a in j["attempts"])
        )
        assert main(["job", path, str(aborted_job)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"aborted by (edge|cloud):\d+", out)

    def test_unknown_job_errors(self, faulted_trace, capsys):
        _, _, path = faulted_trace
        assert main(["job", path, "9999"]) == 1
        assert "not in trace" in capsys.readouterr().err


class TestCritical:
    def test_names_the_max_stretch_job_exactly(self, faulted_trace, capsys):
        result, payload, path = faulted_trace
        assert main(["critical", path]) == 0
        out = capsys.readouterr().out
        match = re.match(
            r"max-stretch job: (\d+) \(stretch ([0-9.]+),", out
        )
        assert match, out
        job_id = int(match.group(1))
        # The named job is the argmax of the result's stretches and the
        # reconstructed stretch equals the result's to float equality.
        stretches = result.stretches()
        assert job_id == int(stretches.argmax())
        named = next(j for j in payload["jobs"] if j["job"] == job_id)
        assert named["stretch"] == float(stretches.max())
        assert f"job {job_id} waited [" in out or "no wait gaps" in out

    def test_attributes_waits(self, faulted_trace, capsys):
        _, _, path = faulted_trace
        assert main(["critical", path]) == 0
        out = capsys.readouterr().out
        # The chain walk names at least one cause (outage or competitor)
        # unless the argmax job was served the instant it released.
        assert (
            "blocked by outage:" in out
            or "behind job " in out
            or "no wait gaps" in out
            or "no overlapping outage" in out
        )


class TestDiff:
    def test_diff_against_plain_scheduler(self, faulted_trace, tmp_path, capsys):
        _, _, fa_path = faulted_trace
        inst = small_instance(n=25, seed=13)
        _, plain = traced_run(inst, scheduler="ssf-edf", faults=renewal_faults(inst))
        plain_path = tmp_path / "plain.trace.jsonl"
        write_trace_jsonl(str(plain_path), plain)
        assert main(["diff", str(plain_path), fa_path]) == 0
        out = capsys.readouterr().out
        assert "a: ssf-edf " in out and "b: ssf-edf-fa " in out
        assert "first divergent decision: seq " in out
        assert "per-job stretch deltas" in out

    def test_diff_identical_traces(self, faulted_trace, capsys):
        _, _, path = faulted_trace
        assert main(["diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "no divergent decision" in out
        assert "per-job stretches identical" in out


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        assert main(["critical", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summary", "critical"])
    def test_non_utf8_file(self, tmp_path, capsys, command):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ")
        assert len(err.splitlines()) == 1

    def test_torn_file(self, faulted_trace, tmp_path, capsys):
        _, _, path = faulted_trace
        cut = tmp_path / "cut.jsonl"
        with open(path, "rb") as fh:
            cut.write_bytes(fh.read()[:-5])
        assert main(["summary", str(cut)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}: torn trace file")

    @pytest.mark.parametrize("command", ["summary", "critical"])
    def test_job_line_missing_keys(self, tmp_path, capsys, command):
        path = tmp_path / "short.jsonl"
        path.write_text(
            '{"kind":"header","schema":"repro.trace/1","scheduler":"s","n_jobs":1}\n'
            '{"kind":"job","job":0}\n'
        )
        assert main([command, str(path)]) == 1
        assert f"error: {path}:2: trace job line lacks key 'release'" in capsys.readouterr().err
