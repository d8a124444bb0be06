"""Tests for the telemetry JSONL sink and the report CLI."""

import json

import pytest

from repro.core.errors import ModelError
from repro.obs.report import format_report, format_report_csv, main
from repro.obs.sinks import (
    TELEMETRY_SCHEMA,
    merge_records,
    read_telemetry_jsonl,
    read_telemetry_jsonl_report,
    record_to_json,
    telemetry_record,
    validate_record,
    write_telemetry_jsonl,
)
from repro.obs.telemetry import RunTelemetry


def make_telemetry(counter=1.0, gauge=None):
    """A small snapshot with one counter and optionally one gauge."""
    t = RunTelemetry()
    t.metrics.counter("jobs.completed").inc(counter)
    if gauge is not None:
        t.metrics.gauge("util.edge.busy_frac").set(gauge)
    return t


class TestRecords:
    def test_build_and_validate(self):
        record = telemetry_record(
            experiment="fig2a", scheduler="SSF-EDF", telemetry=make_telemetry(), x=200, n=3
        )
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["x"] == 200.0
        assert validate_record(record) is record

    def test_accepts_snapshot_dict(self):
        record = telemetry_record(
            experiment="e", scheduler="s", telemetry=make_telemetry().to_dict()
        )
        assert record["n"] == 1 and record["x"] is None

    def test_rejects_bad_shapes(self):
        good = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        with pytest.raises(ModelError, match="must be an object"):
            validate_record([good])
        with pytest.raises(ModelError, match="unknown telemetry schema"):
            validate_record({**good, "schema": "repro.telemetry/99"})
        with pytest.raises(ModelError, match="'experiment'"):
            validate_record({**good, "experiment": ""})
        with pytest.raises(ModelError, match="'x'"):
            validate_record({**good, "x": "left"})
        with pytest.raises(ModelError, match="'n'"):
            validate_record({**good, "n": 0})
        with pytest.raises(ModelError):
            validate_record({**good, "telemetry": {"version": 1}})

    def test_record_to_json_canonical(self):
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        blob = record_to_json(record)
        assert blob == json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":"))


class TestJsonlRoundtrip:
    def test_write_read_rewrite_byte_stable(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        records = [
            telemetry_record(
                experiment="fig2a", scheduler="SRPT", telemetry=make_telemetry(2, 0.5), x=1.0
            ),
            telemetry_record(
                experiment="fig2a", scheduler="SRPT", telemetry=make_telemetry(3, 0.7), x=2.0
            ),
        ]
        assert write_telemetry_jsonl(str(path), records) == 2
        first = path.read_bytes()
        back = read_telemetry_jsonl(str(path))
        assert back == records
        write_telemetry_jsonl(str(path), back)
        assert path.read_bytes() == first

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        path.write_text("\n" + record_to_json(record) + "\n\n")
        assert read_telemetry_jsonl(str(path)) == [record]

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        path.write_text(record_to_json(record) + "\n{nope\n")
        with pytest.raises(ModelError, match=r"tel\.jsonl:2: not valid JSON"):
            read_telemetry_jsonl(str(path))

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        path.write_text('{"schema": "other"}\n')
        with pytest.raises(ModelError, match=r"tel\.jsonl:1: unknown telemetry schema"):
            read_telemetry_jsonl(str(path))

    def test_bad_record_leaves_no_file(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        with pytest.raises(ModelError):
            write_telemetry_jsonl(str(path), [{"schema": "bad"}])
        assert not path.exists()


class TestMergeRecords:
    def test_merges_per_scheduler_dropping_x(self):
        records = [
            telemetry_record(
                experiment="fig2a", scheduler="SRPT", telemetry=make_telemetry(1, 0.2), x=1.0, n=2
            ),
            telemetry_record(
                experiment="fig2a", scheduler="FCFS", telemetry=make_telemetry(5), x=1.0
            ),
            telemetry_record(
                experiment="fig2a", scheduler="SRPT", telemetry=make_telemetry(2, 0.4), x=2.0, n=3
            ),
        ]
        merged = merge_records(records)
        assert [(r["scheduler"], r["n"], r["x"]) for r in merged] == [
            ("SRPT", 5, None),
            ("FCFS", 1, None),
        ]
        srpt = RunTelemetry.from_dict(merged[0]["telemetry"])
        assert srpt.metrics.counter("jobs.completed").value == 3.0
        assert srpt.metrics.gauge("util.edge.busy_frac").value == pytest.approx(0.3)


class TestReport:
    def test_format_report_groups_by_experiment(self):
        records = [
            telemetry_record(
                experiment="fig2a", scheduler="SRPT", telemetry=make_telemetry(1, 0.25)
            ),
            telemetry_record(experiment="fig2b", scheduler="FCFS", telemetry=make_telemetry(2)),
        ]
        text = format_report(records)
        assert "== fig2a ==" in text and "== fig2b ==" in text
        assert "25.0%" in text  # the busy-frac gauge rendered as a percent
        assert "-" in text  # absent metrics render as '-'

    def test_format_report_empty(self):
        assert format_report([]) == "(no telemetry records)"

    def test_main_renders_and_checks(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        write_telemetry_jsonl(
            str(path),
            [telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())],
        )
        assert main([str(path), "--check"]) == 0
        assert "1 telemetry records OK" in capsys.readouterr().out
        assert main([str(path)]) == 0
        assert "== e ==" in capsys.readouterr().out

    def test_main_fails_on_bad_file(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        path.write_text("{}\n")
        assert main([str(path), "--check"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main([str(tmp_path / "missing.jsonl")]) == 1


class TestTornTail:
    def test_torn_final_line_repaired(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        blob = record_to_json(record)
        # A kill mid-write: the last record is cut and has no newline.
        path.write_text(blob + "\n" + blob[: len(blob) // 2])
        records, dropped = read_telemetry_jsonl_report(str(path))
        assert records == [record] and dropped == 1
        assert read_telemetry_jsonl(str(path)) == [record]

    def test_torn_tail_that_parses_but_fails_schema(self, tmp_path):
        # A cut that lands on a complete nested object: valid JSON,
        # invalid record.  Same repair — only possible at the tail.
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        path.write_text(record_to_json(record) + "\n" + '{"schema"')
        records, dropped = read_telemetry_jsonl_report(str(path))
        assert records == [record] and dropped == 1

    def test_complete_final_line_still_raises(self, tmp_path):
        # The file ends with a newline: the bad line is corruption, not
        # a torn tail, and must raise as before.
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        path.write_text(record_to_json(record) + "\n{nope\n")
        with pytest.raises(ModelError, match=r"tel\.jsonl:2: not valid JSON"):
            read_telemetry_jsonl_report(str(path))

    def test_torn_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        path.write_text("{nope\n" + record_to_json(record) + "\n")
        with pytest.raises(ModelError, match=r"tel\.jsonl:1"):
            read_telemetry_jsonl_report(str(path))

    def test_intact_file_reports_zero_dropped(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        write_telemetry_jsonl(str(path), [record])
        assert read_telemetry_jsonl_report(str(path)) == ([record], 0)

    def test_main_notes_repair_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        path.write_text(record_to_json(record) + "\n{cut")
        assert main([str(path), "--check"]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 torn trailing line" in captured.err
        assert "1 torn line(s) skipped" in captured.out

    @pytest.mark.parametrize("cut", ["newline", "mid-record"])
    def test_any_unterminated_tail_is_dropped(self, tmp_path, capsys, cut):
        # The one rule: bytes after the last newline are a torn write and
        # are never parsed — even a complete record that only lacks its
        # newline is dropped, with the same note.
        path = tmp_path / "tel.jsonl"
        first = telemetry_record(experiment="e", scheduler="a", telemetry=make_telemetry())
        last = telemetry_record(experiment="e", scheduler="b", telemetry=make_telemetry(2))
        write_telemetry_jsonl(str(path), [first, last])
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] if cut == "newline" else blob[:-20])
        assert read_telemetry_jsonl_report(str(path)) == ([first], 1)
        assert main([str(path), "--check"]) == 0
        captured = capsys.readouterr()
        assert f"note: {path}: skipped 1 torn trailing line" in captured.err
        assert "1 telemetry records OK (1 torn line(s) skipped)" in captured.out


class TestNonUtf8:
    def test_reader_names_the_line(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        record = telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())
        path.write_bytes(record_to_json(record).encode() + b"\n\xff\n")
        with pytest.raises(ModelError, match=r"tel\.jsonl:2: not valid JSON"):
            read_telemetry_jsonl(str(path))

    def test_main_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\n")
        assert main([str(path), "--check"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ")
        assert len(err.splitlines()) == 1


class TestCsvReport:
    def test_csv_matches_table_cells(self):
        records = [
            telemetry_record(
                experiment="fig2a", scheduler="SRPT", telemetry=make_telemetry(1, 0.25)
            ),
        ]
        text = format_report_csv(records)
        lines = text.splitlines()
        assert lines[0].startswith("experiment,scheduler,runs,")
        assert "argmax-job" in lines[0]
        assert lines[1].startswith("fig2a,SRPT,1,")
        assert "25.0%" in lines[1]

    def test_csv_column_order_stable_across_eras(self):
        # A record missing the newer metrics (an "old era" file) must
        # produce the same header and column count, with '-' cells.
        new = telemetry_record(
            experiment="e", scheduler="new", telemetry=make_telemetry(1, 0.5)
        )
        old_t = RunTelemetry()
        old_t.metrics.counter("jobs.completed").inc(1.0)
        old = telemetry_record(experiment="e", scheduler="old", telemetry=old_t)
        both = format_report_csv([new, old]).splitlines()
        alone = format_report_csv([new]).splitlines()
        assert both[0] == alone[0]
        assert len(both[1].split(",")) == len(both[2].split(","))
        assert "-" in both[2].split(",")

    def test_main_format_csv(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        write_telemetry_jsonl(
            str(path),
            [telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry())],
        )
        assert main([str(path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("experiment,scheduler,runs")

    def test_main_merges_multiple_files(self, tmp_path, capsys):
        # Two files — different "eras" of the same sweep — merge into
        # one roll-up per (experiment, scheduler).
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_telemetry_jsonl(
            str(a),
            [telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry(1), n=2)],
        )
        write_telemetry_jsonl(
            str(b),
            [telemetry_record(experiment="e", scheduler="s", telemetry=make_telemetry(5), n=3)],
        )
        assert main([str(a), str(b), "--check"]) == 0
        assert "2 files: 2 telemetry records OK" in capsys.readouterr().out
        assert main([str(a), str(b), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # header + the single merged row
        assert lines[1].split(",")[2] == "5"  # runs: 2 + 3

    def test_argmax_job_column_renders(self):
        t = make_telemetry()
        t.metrics.gauge("stretch.argmax_job").set(17.0)
        record = telemetry_record(experiment="e", scheduler="s", telemetry=t)
        table = format_report([record])
        header, _, row = table.splitlines()[1:4]
        col = header.split().index("argmax-job")
        assert row.split()[col] == "17"
