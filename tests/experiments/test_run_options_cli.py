"""The run options both CLIs share, pinned flag by flag.

``repro-simulate`` and ``repro-experiments`` take the same six run
options (``--failure-aware``, ``--fault-correlation``, ``--fault-groups``,
``--checkpoint-interval``, ``--checkpoint-cost``, ``--retry-budget``).
One table drives both parsers: every accepted form must run, and every
bad value must end as a one-line usage error (exit 2), never as a
traceback.
"""

import pytest

from repro.experiments import cli as experiments_cli
from repro import simulate_cli

#: Base argv per CLI: a tiny faulted run each shared flag can ride.
_BASE = {
    "simulate": ["--generate", "random", "--n-jobs", "6", "--fault-mtbf", "40"],
    "experiments": ["degradation_mtbf", "--reps", "1", "--n-jobs", "3", "--quiet"],
}
_MAIN = {"simulate": simulate_cli.main, "experiments": experiments_cli.main}
_PROG = {"simulate": "repro-simulate", "experiments": "repro-experiments"}

GROUPS = "edge:0-4;link:0-4"

#: (flags, marker the run prints on each CLI's stdout).
ACCEPTED = [
    (["--failure-aware"], {"simulate": "policy:       ssf-edf-fa", "experiments": "ssf-edf-fa"}),
    (["--fault-correlation", "2"], {"simulate": "faults:", "experiments": "fcfs"}),
    (["--fault-groups", GROUPS], {"simulate": "faults:", "experiments": "fcfs"}),
    (["--checkpoint-interval", "2"], {"simulate": "checkpoint:", "experiments": "+ckpt"}),
    (
        ["--checkpoint-interval", "2", "--checkpoint-cost", "0.1"],
        {"simulate": "checkpoint:", "experiments": "+ckpt"},
    ),
    (
        ["--checkpoint-interval", "auto", "--checkpoint-cost", "0.5"],
        {"simulate": "checkpoint:", "experiments": "+ckpt"},
    ),
    (["--retry-budget", "4"], {"simulate": "checkpoint:", "experiments": "+ckpt"}),
    (
        [
            "--failure-aware",
            "--fault-groups",
            GROUPS,
            "--checkpoint-interval",
            "auto",
            "--checkpoint-cost",
            "0.5",
            "--retry-budget",
            "4",
        ],
        {"simulate": "policy:       ssf-edf-fa", "experiments": "ssf-edf-fa-rework+ckpt"},
    ),
]

#: (flags, message of the usage error), identical on both CLIs.
SHARED_ERRORS = [
    (["--checkpoint-interval", "abc"], "expected a number of work units or 'auto'"),
    (["--checkpoint-cost", "abc"], "invalid float value"),
    (["--fault-correlation", "abc"], "invalid int value"),
    (["--retry-budget", "abc"], "invalid int value"),
    (
        ["--fault-groups", GROUPS, "--fault-correlation", "2"],
        "--fault-groups and --fault-correlation are mutually exclusive",
    ),
    (["--checkpoint-cost", "0.5"], "--checkpoint-cost requires --checkpoint-interval"),
    (["--retry-budget", "0"], "retry budget must be >= 1, got 0"),
    (["--fault-correlation", "0"], "group_size must be >= 1, got 0"),
    (["--checkpoint-interval", "-2"], "checkpoint interval must be positive, got -2.0"),
    (
        ["--checkpoint-interval", "auto"],
        "auto_interval (Young/Daly) needs a positive commit cost",
    ),
    (
        ["--checkpoint-interval", "2", "--checkpoint-cost", "-1"],
        "checkpoint commit cost must be >= 0, got -1.0",
    ),
    (["--fault-groups", "edge"], "bad fault group 'edge'"),
]

#: (argv, message): usage errors only one CLI has (its own flags).
SIMULATE_ERRORS = [
    (["--generate", "random", "--fault-correlation", "2"], "--fault-correlation requires --fault-mtbf"),
    (["--generate", "random", "--fault-groups", GROUPS], "--fault-groups requires --fault-mtbf"),
    (["--generate", "random", "--fault-mttr", "4"], "--fault-mttr requires --fault-mtbf"),
    (
        ["--generate", "random", "--checkpoint-interval", "auto", "--checkpoint-cost", "0.5"],
        "--checkpoint-interval auto requires --fault-mtbf",
    ),
    (
        ["--generate", "random", "--policy", "edge-only", "--failure-aware"],
        "--failure-aware has no variant for policy 'edge-only'",
    ),
    (["--generate", "random", "--n-jobs", "-1"], "n_jobs must be non-negative, got -1"),
    (["--generate", "random", "--load", "0"], "load must be positive, got 0.0"),
    (["--generate", "random", "--ccr", "-1"], "ccr must be non-negative, got -1.0"),
    (["--generate", "random", "--seed", "-1"], "expected non-negative integer"),
    (["--generate", "kang", "--n-jobs", "-2"], "invalid sizes: n_jobs=-2"),
    (["does-not-exist.json"], "No such file or directory: 'does-not-exist.json'"),
    (["--generate", "random", "--gantt", "--width", "5"], "--width must be at least 10, got 5"),
]

EXPERIMENTS_ERRORS = [
    (["fig2a", "--failure-aware"], "apply only to: degradation_mtbf"),
    (["fig2a", "--retry-budget", "4"], "apply only to: degradation_mtbf"),
    (["fig2a", "--resume"], "--resume requires --checkpoint"),
    (["all", "--checkpoint", "cells.jsonl"], "need a single experiment"),
    (["fig2a", "--checkpoint-group", "0"], "unrecognized arguments: --checkpoint-group"),
    (["degradation_mtbf", "--workers", "0"], "--workers must be positive"),
    (["fig2a", "--workers", "-3"], "--workers must be positive"),
    (["fig2a", "--timeout", "0"], "--timeout must be positive"),
    (
        ["degradation_mtbf", "--timeout", "-1", "--on-cell-error", "skip"],
        "--timeout must be positive",
    ),
    (["fig2a", "--reps", "0"], "--reps must be positive"),
    (["fig2a", "--n-jobs", "-1"], "--n-jobs must be non-negative"),
    (["fig2a", "--n-jobs", "-1", "--workers", "2"], "--n-jobs must be non-negative"),
]


def _usage_error(capsys, which: str, argv: list[str]) -> str:
    """Run a CLI that must fail on usage; returns its one error line."""
    with pytest.raises(SystemExit) as info:
        _MAIN[which](argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1, err
    assert error_lines[0].startswith(f"{_PROG[which]}: error: ")
    return error_lines[0]


@pytest.mark.parametrize("which", sorted(_MAIN))
@pytest.mark.parametrize(
    "flags, markers", ACCEPTED, ids=[" ".join(f) for f, _ in ACCEPTED]
)
def test_accepted_form(capsys, which, flags, markers):
    assert _MAIN[which](_BASE[which] + flags) == 0
    assert markers[which] in capsys.readouterr().out


@pytest.mark.parametrize("which", sorted(_MAIN))
@pytest.mark.parametrize(
    "flags, message", SHARED_ERRORS, ids=[" ".join(f) for f, _ in SHARED_ERRORS]
)
def test_shared_usage_error(capsys, which, flags, message):
    assert message in _usage_error(capsys, which, _BASE[which] + flags)


@pytest.mark.parametrize(
    "argv, message", SIMULATE_ERRORS, ids=[" ".join(a) for a, _ in SIMULATE_ERRORS]
)
def test_simulate_usage_error(capsys, argv, message):
    assert message in _usage_error(capsys, "simulate", argv)


@pytest.mark.parametrize(
    "contents, message",
    [("not json", "Expecting value"), ('{"bad": 1}', "unsupported format_version None")],
    ids=["not-json", "no-format-version"],
)
def test_simulate_malformed_instance_file(capsys, tmp_path, contents, message):
    path = tmp_path / "instance.json"
    path.write_text(contents)
    assert message in _usage_error(capsys, "simulate", [str(path)])


@pytest.mark.parametrize(
    "argv, message", EXPERIMENTS_ERRORS, ids=[" ".join(a) for a, _ in EXPERIMENTS_ERRORS]
)
def test_experiments_usage_error(capsys, argv, message):
    # Tiny sizes, so a check that is missing fails fast instead of
    # sweeping.  They go first: argparse keeps the last value of a flag,
    # so a row's own --reps or --n-jobs must come after them.
    argv = ["--reps", "1", "--n-jobs", "3", "--quiet"] + argv
    assert message in _usage_error(capsys, "experiments", argv)


#: Every output file flag of each CLI.
OUTPUT_FLAGS = [
    ("experiments", "--csv"),
    ("experiments", "--telemetry-out"),
    ("experiments", "--checkpoint"),
    ("simulate", "--telemetry-out"),
    ("simulate", "--trace-out"),
    ("simulate", "--trace-chrome"),
    ("simulate", "--save-schedule"),
    ("simulate", "--svg-gantt"),
]


@pytest.mark.parametrize("which, flag", OUTPUT_FLAGS)
def test_output_path_in_missing_directory_refused_before_any_work(
    capsys, tmp_path, which, flag
):
    target = tmp_path / "missing" / "out.jsonl"
    assert _MAIN[which](_BASE[which] + [flag, str(target)]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"error: {target}: no such directory: {target.parent}"]
    assert out == ""


@pytest.mark.parametrize("which", sorted(_MAIN))
def test_output_path_naming_a_directory_refused(capsys, tmp_path, which):
    assert _MAIN[which](_BASE[which] + ["--telemetry-out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}: is a directory\n"
