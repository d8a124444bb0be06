"""Tests for the shared JSONL record layer (canonical writer, one reader)."""

import pytest

from repro.core.errors import ModelError
from repro.util.jsonl import dumps, read_jsonl, write_jsonl


class TestDumps:
    def test_canonical(self):
        assert dumps({"b": [1, 2.5], "a": {"d": None, "c": "x"}}) == (
            '{"a":{"c":"x","d":null},"b":[1,2.5]}'
        )


class TestWriteJsonl:
    def test_one_newline_terminated_line_per_record(self, tmp_path):
        path = tmp_path / "r.jsonl"
        assert write_jsonl(str(path), ({"i": i} for i in range(3))) == 3
        assert path.read_bytes() == b'{"i":0}\n{"i":1}\n{"i":2}\n'

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [{"b": 1, "a": [1.5, None]}, {"nested": {"k": "v"}}]
        write_jsonl(str(path), records)
        lines, torn_at = read_jsonl(str(path))
        assert [r for _, r in lines] == records
        assert torn_at is None


class TestReadJsonl:
    def test_blank_lines_skipped_and_numbered_from_one(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'\n{"a":1}\n  \n{"b":2}\n\n')
        assert read_jsonl(str(path)) == ([(2, {"a": 1}), (4, {"b": 2})], None)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b"")
        assert read_jsonl(str(path)) == ([], None)

    @pytest.mark.parametrize(
        "tail",
        [b'{"c":3}', b'{"c":', b"\xff", b"not json"],
        ids=["complete-record", "cut-record", "non-utf8", "garbage"],
    )
    def test_torn_tail_reported_and_never_parsed(self, tmp_path, tail):
        path = tmp_path / "r.jsonl"
        prefix = b'{"a":1}\n{"b":2}\n'
        path.write_bytes(prefix + tail)
        lines, torn_at = read_jsonl(str(path))
        assert lines == [(1, {"a": 1}), (2, {"b": 2})]
        assert torn_at == len(prefix)

    def test_tail_without_any_newline(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a":1}')
        assert read_jsonl(str(path)) == ([], 0)

    @pytest.mark.parametrize("line, kind", [(b"[1, 2]", "list"), (b"null", "NoneType")])
    def test_non_object_names_its_line(self, tmp_path, line, kind):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a":1}\n' + line + b"\n")
        with pytest.raises(ModelError, match=rf"r\.jsonl:2: expected a JSON object, got {kind}"):
            read_jsonl(str(path))

    def test_bad_json_names_its_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a":1}\n\n{nope\n')
        with pytest.raises(ModelError, match=r"r\.jsonl:3: not valid JSON"):
            read_jsonl(str(path))

    def test_non_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a":1}\n\xff\n')
        with pytest.raises(ModelError, match=r"r\.jsonl:2: not valid JSON: 'utf-8' codec"):
            read_jsonl(str(path))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(str(tmp_path / "missing.jsonl"))
