"""Tests for the crash-safe sweep harness.

Covers the cell timeout guard, the fail/skip/retry policies, the JSONL
checkpoint (torn tails, header pinning) with --resume, and survival of
a worker process dying mid-sweep (a real SIGKILL).  Builders register
at module level so forked pool workers inherit them by name.
"""

import json
import os
import re
import signal
import time

import pytest

from repro.core.errors import CellTimeoutError, ModelError
from repro.experiments import cli
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.experiments.cli import build_spec
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import run_experiment
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance

_MARKER_ENV = "REPRO_TEST_RESILIENT_MARKER"


def _tiny_instance(rng):
    return generate_random_instance(RandomInstanceConfig(n_jobs=6), seed=rng)


def _tiny_point(make_instance=_tiny_instance):
    return SweepPoint(x=1.0, make_instance=make_instance)


def _sleepy_instance(rng):
    time.sleep(5.0)
    return _tiny_instance(rng)  # pragma: no cover - the alarm fires first


def _flaky_instance(rng):
    """Fails on the first call, succeeds forever after (marker file)."""
    marker = os.environ[_MARKER_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("tried")
        raise RuntimeError("flaky first attempt")
    return _tiny_instance(rng)


def _kill_once_instance(rng):
    """SIGKILLs its own process on the first call only (marker file)."""
    marker = os.environ[_MARKER_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return _tiny_instance(rng)


def _exploding_instance(rng):
    raise RuntimeError("always fails")


def _spec_of(make_instance, name, n_reps=2, seed=0):
    return ExperimentSpec(
        name=name,
        x_label="x",
        points=(_tiny_point(make_instance),),
        schedulers=(SchedulerSpec.named("srpt"),),
        n_reps=n_reps,
        seed=seed,
    )


cli._BUILDERS.setdefault(
    "test_res_ok", lambda n_reps=3, seed=0: _spec_of(_tiny_instance, "ok", n_reps, seed)
)
cli._BUILDERS.setdefault(
    "test_res_sleepy",
    lambda n_reps=1, seed=0: _spec_of(_sleepy_instance, "sleepy", n_reps, seed),
)
cli._BUILDERS.setdefault(
    "test_res_flaky",
    lambda n_reps=1, seed=0: _spec_of(_flaky_instance, "flaky", n_reps, seed),
)
cli._BUILDERS.setdefault(
    "test_res_kill",
    lambda n_reps=2, seed=0: _spec_of(_kill_once_instance, "kill", n_reps, seed),
)
cli._BUILDERS.setdefault(
    "test_res_boom",
    lambda n_reps=2, seed=0: _spec_of(_exploding_instance, "boom", n_reps, seed),
)


def row_key(rows):
    return [(r.x, r.scheduler, r.rep, r.max_stretch, r.n_events) for r in rows]


class TestResilientMatchesSerial:
    def test_rows_identical_to_fast_paths(self):
        outcome = run_named_experiment_resilient("test_res_ok", n_workers=1)
        fast = run_experiment(build_spec("test_res_ok", n_reps=None, n_jobs=None, seed=None))
        assert row_key(outcome.rows) == row_key(fast)
        assert outcome.quarantined == []
        assert outcome.n_executed == 3
        assert outcome.n_from_checkpoint == 0

    def test_input_validation(self):
        with pytest.raises(ModelError, match="on_error"):
            run_named_experiment_resilient("test_res_ok", on_error="explode")
        with pytest.raises(ModelError, match="max_retries"):
            run_named_experiment_resilient("test_res_ok", max_retries=-1)
        with pytest.raises(ModelError, match="checkpoint_path"):
            run_named_experiment_resilient("test_res_ok", resume=True)
        with pytest.raises(ModelError, match="unknown experiment"):
            run_named_experiment_resilient("no_such_thing")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
class TestTimeout:
    def test_timeout_fails_fast(self):
        with pytest.raises(ModelError, match="CellTimeoutError") as info:
            run_named_experiment_resilient(
                "test_res_sleepy", n_workers=1, timeout_s=0.2
            )
        assert isinstance(info.value.__cause__, CellTimeoutError)

    def test_timeout_skip_quarantines(self):
        outcome = run_named_experiment_resilient(
            "test_res_sleepy", n_workers=1, timeout_s=0.2, on_error="skip"
        )
        assert outcome.rows == []
        [q] = outcome.quarantined
        assert (q.point, q.rep, q.attempts) == (0, 0, 1)
        assert "CellTimeoutError" in q.error

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout_s):
        # Zero would silently disable the guard, and a negative value
        # makes setitimer fail inside every cell.
        with pytest.raises(ModelError, match="timeout_s must be positive"):
            run_named_experiment_resilient(
                "test_res_ok", n_workers=1, timeout_s=timeout_s, on_error="skip"
            )


class TestRetryPolicy:
    def test_retry_recovers_flaky_cell(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "flaky.marker"))
        outcome = run_named_experiment_resilient(
            "test_res_flaky", n_workers=1, on_error="retry", max_retries=2
        )
        assert outcome.quarantined == []
        assert len(outcome.rows) == 1

    def test_retry_budget_exhausted_quarantines(self):
        outcome = run_named_experiment_resilient(
            "test_res_boom", n_workers=1, on_error="retry", max_retries=1
        )
        assert outcome.rows == []
        assert [(q.point, q.rep) for q in outcome.quarantined] == [(0, 0), (0, 1)]
        assert all(q.attempts == 2 for q in outcome.quarantined)
        assert "always fails" in outcome.quarantined[0].error

    def test_fail_policy_chains_original_error(self):
        with pytest.raises(ModelError, match=r"cell \(point=0, rep=\d\)") as info:
            run_named_experiment_resilient("test_res_boom", n_workers=1)
        assert isinstance(info.value.__cause__, RuntimeError)


class TestCheckpointResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        full = run_named_experiment_resilient(
            "test_res_ok", n_workers=1, checkpoint_path=path
        )
        assert full.n_executed == 3
        resumed = run_named_experiment_resilient(
            "test_res_ok", n_workers=1, checkpoint_path=path, resume=True
        )
        assert resumed.n_executed == 0
        assert resumed.n_from_checkpoint == 3
        assert row_key(resumed.rows) == row_key(full.rows)

    def test_partial_checkpoint_with_torn_tail(self, tmp_path):
        # Keep the header + first cell, then a torn record: either the
        # whole second cell without its newline or half of it.  Both are
        # bytes after the last newline, so neither is parsed.
        for cut in ("newline", "mid-record"):
            path = str(tmp_path / f"cells-{cut}.jsonl")
            full = run_named_experiment_resilient(
                "test_res_ok", n_workers=1, checkpoint_path=path
            )
            with open(path) as fh:
                lines = fh.readlines()
            torn = lines[2][:-1] if cut == "newline" else lines[2][: len(lines[2]) // 2]
            with open(path, "w") as fh:
                fh.writelines(lines[:2])
                fh.write(torn)
            store = CheckpointStore(path, experiment="test_res_ok", overrides=_OVERRIDES)
            assert list(store.load_completed()) == [(0, 0)], cut
            # The tail is truncated away before the next append.
            store.start(fresh=False)
            store.close()
            with open(path) as fh:
                assert fh.read() == "".join(lines[:2]), cut
            with open(path, "a") as fh:
                fh.write(torn)
            resumed = run_named_experiment_resilient(
                "test_res_ok", n_workers=1, checkpoint_path=path, resume=True
            )
            assert resumed.n_from_checkpoint == 1
            assert resumed.n_executed == 2
            assert row_key(resumed.rows) == row_key(full.rows)
            # The repaired file now holds every cell, cleanly terminated.
            store = CheckpointStore(path, experiment="test_res_ok", overrides=_OVERRIDES)
            assert len(store.load_completed()) == 3
            with open(path) as fh:
                assert fh.read().endswith("\n")

    def test_non_utf8_line_is_a_corrupt_checkpoint(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        run_named_experiment_resilient("test_res_ok", n_workers=1, checkpoint_path=path)
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        store = CheckpointStore(path, experiment="test_res_ok", overrides=_OVERRIDES)
        where = re.escape(f"corrupt checkpoint {path}:5: ")
        with pytest.raises(ModelError, match=where):
            store.load_completed()
        with pytest.raises(ModelError, match=where):
            run_named_experiment_resilient(
                "test_res_ok", n_workers=1, checkpoint_path=path, resume=True
            )

    def test_mismatched_header_refused(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        run_named_experiment_resilient("test_res_ok", n_workers=1, checkpoint_path=path)
        with pytest.raises(ModelError, match="overrides"):
            run_named_experiment_resilient(
                "test_res_ok", n_workers=1, seed=99, checkpoint_path=path, resume=True
            )
        other = CheckpointStore(path, experiment="other_exp", overrides=_OVERRIDES)
        with pytest.raises(ModelError, match="belongs to experiment"):
            other.load_completed()

    def test_corrupt_line_rejected(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        run_named_experiment_resilient("test_res_ok", n_workers=1, checkpoint_path=path)
        with open(path, "a") as fh:
            fh.write("not json\n")
        store = CheckpointStore(path, experiment="test_res_ok", overrides=_OVERRIDES)
        with pytest.raises(ModelError, match="corrupt checkpoint"):
            store.load_completed()

    @pytest.mark.parametrize(
        "record, bad_line",
        [
            ("[1, 2]", 1),
            ("[1]", 2),
            ('{"kind": "cell", "point": 0, "rep": 0}', 2),
            ('{"kind": "cell", "point": "a", "rep": 0, "rows": []}', 2),
            ('{"kind": "cell", "point": 0, "rep": 0, "rows": [1]}', 2),
        ],
        ids=["header-not-object", "cell-not-object", "no-rows", "bad-point", "bad-row"],
    )
    def test_malformed_record_names_its_line(self, tmp_path, record, bad_line):
        path = str(tmp_path / "cells.jsonl")
        header = json.dumps({
            "schema": "repro.cells/1", "kind": "header",
            "experiment": "test_res_ok", "overrides": _OVERRIDES,
        })
        lines = [record] if bad_line == 1 else [header, record]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        store = CheckpointStore(path, experiment="test_res_ok", overrides=_OVERRIDES)
        where = re.escape(f"corrupt checkpoint {path}:{bad_line}: ")
        with pytest.raises(ModelError, match=where):
            store.load_completed()

    def test_fresh_start_truncates(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        run_named_experiment_resilient("test_res_ok", n_workers=1, checkpoint_path=path)
        run_named_experiment_resilient(
            "test_res_ok", n_workers=1, checkpoint_path=path, resume=False
        )
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        # One header + exactly one record per cell: no stale duplicates.
        assert [r["kind"] for r in records] == ["header"] + ["cell"] * 3


_OVERRIDES = {"n_reps": None, "n_jobs": None, "seed": None}


class TestWorkerDeath:
    def test_sigkilled_worker_does_not_lose_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "kill.marker"))
        path = str(tmp_path / "cells.jsonl")
        outcome = run_named_experiment_resilient(
            "test_res_kill",
            n_workers=2,
            on_error="retry",
            checkpoint_path=path,
        )
        assert outcome.quarantined == []
        assert len(outcome.rows) == 2
        # Both cells made it to disk despite the pool dying once.
        store = CheckpointStore(path, experiment="test_res_kill", overrides=_OVERRIDES)
        assert len(store.load_completed()) == 2

    def test_worker_death_under_fail_policy_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "kill2.marker"))
        with pytest.raises(ModelError, match="worker process died"):
            run_named_experiment_resilient("test_res_kill", n_workers=2)


class TestCliIntegration:
    def test_cli_checkpoint_resume_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "cells.jsonl")
        argv = ["test_res_ok", "--workers", "1", "--checkpoint", path]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        # Wall-clock columns differ; the stretch table must not.
        assert first.split("scheduling time")[0] == second.split("scheduling time")[0]

    def test_cli_quarantine_exit_code(self, capsys):
        code = cli.main(["test_res_boom", "--workers", "1", "--on-cell-error", "skip"])
        assert code == 3
        err = capsys.readouterr().err
        assert "quarantined cells" in err

    @pytest.mark.parametrize(
        "damage, resume_argv, message",
        [
            ("non-utf8", ["test_res_ok"], "corrupt checkpoint {path}:5: not valid JSON"),
            ("none", ["test_res_boom"], "belongs to experiment 'test_res_ok', not 'test_res_boom'"),
            ("none", ["test_res_ok", "--reps", "2"], "was written with overrides"),
        ],
        ids=["non-utf8-line", "other-experiment", "other-overrides"],
    )
    def test_cli_refused_checkpoint_is_one_error_line(
        self, tmp_path, capsys, damage, resume_argv, message
    ):
        path = str(tmp_path / "cells.jsonl")
        flags = ["--workers", "1", "--checkpoint", path, "--quiet"]
        assert cli.main(["test_res_ok"] + flags) == 0
        if damage == "non-utf8":
            with open(path, "ab") as fh:
                fh.write(b"\xff\n")
        capsys.readouterr()
        assert cli.main(resume_argv + flags + ["--resume"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: ")
        assert message.format(path=path) in err[0]

    def test_cli_failing_cell_keeps_its_traceback(self, tmp_path):
        # A cell failure is a bug report, not bad input: it still raises.
        path = str(tmp_path / "cells.jsonl")
        with pytest.raises(ModelError, match=r"cell \(point=0") as info:
            cli.main(["test_res_boom", "--workers", "1", "--checkpoint", path])
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_cli_flag_validation(self):
        with pytest.raises(SystemExit):
            cli.main(["test_res_ok", "--resume"])
        with pytest.raises(SystemExit):
            cli.main(["all", "--checkpoint", "/tmp/nope.jsonl"])
