"""Tests for the IPC wire format of the parallel harness."""

import pickle

from repro.experiments.cli import build_spec
from repro.experiments.runner import run_cell
from repro.experiments.wire import pack_rows, unpack_rows
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS


def _rows(instrument=None):
    spec = build_spec("ablation_alpha", n_reps=1, n_jobs=8, seed=11)
    return run_cell(spec, 0, 0, instrument=instrument)


class TestRoundTrip:
    def test_plain_rows_round_trip_exactly(self):
        rows = _rows()
        assert unpack_rows(pack_rows(rows)) == rows

    def test_instrumented_rows_round_trip_exactly(self):
        # Telemetry dicts (nested metric maps, float lists) must come
        # back equal — this is what rides the pool in production sweeps.
        rows = _rows(instrument=DEFAULT_TELEMETRY_HOOKS)
        assert any(r.telemetry is not None for r in rows)
        decoded = unpack_rows(pack_rows(rows))
        assert decoded == rows
        for a, b in zip(decoded, rows):
            assert a.telemetry == b.telemetry

    def test_traced_rows_round_trip_exactly(self):
        rows = _rows(instrument=("tracing",))
        assert any(r.trace is not None for r in rows)
        assert unpack_rows(pack_rows(rows)) == rows

    def test_empty_cell(self):
        assert unpack_rows(pack_rows([])) == []

    def test_packed_blob_round_trips_exactly(self):
        rows = _rows(instrument=DEFAULT_TELEMETRY_HOOKS)
        blob = pack_rows(rows)
        assert isinstance(blob, bytes)
        assert unpack_rows(blob) == rows


class TestCompression:
    def test_packing_shrinks_instrumented_payload(self):
        # The whole point: the deflated wire blob must be materially
        # smaller than pickling the raw dataclasses (telemetry floats
        # dominate; deflate crushes them ~7x).
        rows = _rows(instrument=DEFAULT_TELEMETRY_HOOKS)
        raw = len(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
        assert len(pack_rows(rows)) < raw / 4

