"""Tracing through the experiments stack: rows, pools, checkpoints, CLI."""

import copy
import dataclasses
import json

from repro.experiments.checkpoint import CheckpointStore, row_from_dict, row_to_dict
from repro.experiments.cli import _write_traces, main
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import run_cell, run_experiment
from repro.obs.tracing import read_trace_jsonl, write_trace_jsonl
from tests.experiments.test_runner import tiny_instance


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="tiny",
        x_label="x",
        points=(SweepPoint(x=1.0, make_instance=tiny_instance),),
        schedulers=(SchedulerSpec.named("srpt"), SchedulerSpec.named("ssf-edf")),
        n_reps=2,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestResultRowTrace:
    def test_run_cell_attaches_trace_when_instrumented(self):
        rows = run_cell(tiny_spec(), 0, 0, instrument=("tracing",))
        assert all(r.trace is not None for r in rows)
        assert all(r.trace["n_jobs"] == 4 for r in rows)
        # ssf-edf rows carry provenance; srpt rows carry null provenance.
        by_sched = {r.scheduler: r.trace for r in rows}
        assert any(
            d["provenance"] is not None for d in by_sched["ssf-edf"]["decisions"]
        )
        assert all(d["provenance"] is None for d in by_sched["srpt"]["decisions"])

    def test_trace_none_without_instrument(self):
        rows = run_cell(tiny_spec(), 0, 0)
        assert all(r.trace is None for r in rows)

    def test_as_dict_excludes_trace(self):
        (row, *_) = run_cell(tiny_spec(), 0, 0, instrument=("tracing",))
        d = row.as_dict()
        assert "trace" not in d and "telemetry" not in d

    def test_checkpoint_roundtrip_preserves_trace(self):
        (row, *_) = run_cell(tiny_spec(), 0, 0, instrument=("tracing",))
        back = row_from_dict(json.loads(json.dumps(row_to_dict(row))))
        assert back == row
        assert back.trace == row.trace


class TestCheckpointAppend:
    def test_rows_encoded_as_before_and_left_unchanged(self, tmp_path):
        instrument = ("tracing", "util", "queue", "jobstats", "reexec")
        rows = run_cell(tiny_spec(), 0, 0, instrument=instrument)
        assert all(r.telemetry and r.trace for r in rows)
        before = copy.deepcopy([(r.telemetry, r.trace) for r in rows])
        path = tmp_path / "cells.jsonl"
        store = CheckpointStore(str(path), experiment="tiny", overrides={})
        store.start(fresh=True)
        store.append(0, 1, rows)
        store.close()
        _header, cell = path.read_text().splitlines()
        # The encoding of the build that deep-copied rows via asdict.
        canonical = dict(sort_keys=True, separators=(",", ":"))
        encoded = [json.dumps(dataclasses.asdict(r), **canonical) for r in rows]
        assert cell == '{"kind":"cell","point":0,"rep":1,"rows":[' + ",".join(encoded) + "]}"
        assert [(r.telemetry, r.trace) for r in rows] == before
        restored = CheckpointStore(str(path), experiment="tiny", overrides={}).load_completed()
        assert restored == {(0, 1): rows}


class TestSerialParallelIdentity:
    def test_trace_bytes_identical(self, tmp_path):
        # The acceptance bar: the same cell's trace JSONL is
        # byte-identical whether the cell ran serially or in a pool.
        # A named experiment, so the parallel path can rebuild it.
        from repro.experiments.cli import build_spec

        spec = build_spec("ablation_alpha", n_reps=1, n_jobs=25, seed=None)
        serial_rows = run_experiment(spec, instrument=("tracing",))
        parallel_rows = run_named_experiment_resilient(
            "ablation_alpha",
            n_workers=2,
            n_reps=1,
            n_jobs=25,
            instrument=("tracing",),
        ).rows
        assert len(serial_rows) == len(parallel_rows)
        for s_row, p_row in zip(serial_rows, parallel_rows):
            a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            write_trace_jsonl(str(a), s_row.trace)
            write_trace_jsonl(str(b), p_row.trace)
            assert a.read_bytes() == b.read_bytes()


class TestWriteTraces:
    def test_deterministic_filenames_and_content(self, tmp_path):
        rows = run_cell(tiny_spec(), 0, 0, instrument=("tracing",))
        out = tmp_path / "traces"
        assert _write_traces(str(out), rows) == len(rows)
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "tiny_x1_rep0_srpt.trace.jsonl",
            "tiny_x1_rep0_ssf-edf.trace.jsonl",
        ]
        payload = read_trace_jsonl(str(out / names[0]))
        assert payload["n_jobs"] == 4

    def test_untraced_rows_skipped(self, tmp_path):
        rows = run_cell(tiny_spec(), 0, 0)
        assert _write_traces(str(tmp_path / "traces"), rows) == 0

    def test_labels_sanitized(self, tmp_path):
        from repro.schedulers.registry import make_scheduler

        spec = tiny_spec(
            schedulers=(
                SchedulerSpec("ssf edf (α=2)", lambda rng: make_scheduler("ssf-edf")),
            )
        )
        rows = run_cell(spec, 0, 0, instrument=("tracing",))
        out = tmp_path / "traces"
        _write_traces(str(out), rows)
        (path,) = out.iterdir()
        assert " " not in path.name and "(" not in path.name


class TestCliTraceOut:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "traces"
        rc = main(
            [
                "ablation_alpha",
                "--reps",
                "1",
                "--n-jobs",
                "20",
                "--trace-out",
                str(out),
                "--quiet",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "trace file(s) written to" in captured.err
        files = sorted(out.iterdir())
        assert files, "no trace files written"
        payload = read_trace_jsonl(str(files[0]))
        assert payload["n_jobs"] == 20
