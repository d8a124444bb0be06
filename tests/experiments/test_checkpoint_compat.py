"""Cell checkpoints written by older builds still ``--resume``.

The fixtures under ``tests/data`` are partial ``degradation_mtbf``
checkpoints (header plus the first two of five cells) written by the
build before ``repro.run_options``: one with default options, one with
every option set.  Their headers pin the overrides verbatim, so
resuming them checks that the flags still produce the same overrides
dict, and the restored cells must match what this build computes.
"""

import csv
import shutil
from pathlib import Path

import pytest

from repro.experiments.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"

FULL_OPTIONS = [
    "--failure-aware",
    "--fault-groups",
    "edge:0-4;link:0-4",
    "--checkpoint-interval",
    "auto",
    "--checkpoint-cost",
    "0.5",
    "--retry-budget",
    "4",
]

CASES = [
    ("cells_degradation_default.jsonl", []),
    ("cells_degradation_full_options.jsonl", FULL_OPTIONS),
]


def _rows(path):
    """CSV rows without the wall-clock column."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        del row["wall_time"]
    return rows


@pytest.mark.parametrize("fixture, flags", CASES, ids=["default", "full-options"])
def test_resume_from_an_older_checkpoint(tmp_path, capsys, fixture, flags):
    checkpoint = tmp_path / fixture
    shutil.copy(DATA / fixture, checkpoint)
    base = ["degradation_mtbf", "--reps", "1", "--n-jobs", "6", *flags]

    resumed_csv = tmp_path / "resumed.csv"
    argv = base + ["--checkpoint", str(checkpoint), "--resume", "--csv", str(resumed_csv)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "3 cells executed, 2 restored from checkpoint, 0 quarantined" in err

    fresh_csv = tmp_path / "fresh.csv"
    assert main(base + ["--quiet", "--csv", str(fresh_csv)]) == 0
    assert _rows(resumed_csv) == _rows(fresh_csv)
    assert len(_rows(fresh_csv)) == 5 * (8 if flags else 3)
