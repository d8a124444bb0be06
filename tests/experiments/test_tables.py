"""Tests for table rendering and CSV export."""

from repro.experiments.runner import AggregateRow, ResultRow
from repro.experiments.tables import (
    format_series_table,
    format_timing_table,
    rows_to_csv,
)


def agg_row(x, scheduler, mean, std=0.1, n=3):
    return AggregateRow(
        experiment="e",
        x=x,
        scheduler=scheduler,
        n=n,
        max_stretch_mean=mean,
        max_stretch_std=std,
        avg_stretch_mean=mean / 2,
        wall_time_mean=0.01,
        reexec_mean=0.0,
    )


def result_row(x=1.0, scheduler="srpt", rep=0):
    return ResultRow(
        experiment="e",
        x=x,
        scheduler=scheduler,
        rep=rep,
        max_stretch=2.0,
        avg_stretch=1.5,
        makespan=10.0,
        wall_time=0.01,
        n_events=12,
        n_reexecutions=0,
    )


class TestSeriesTable:
    def test_layout(self):
        agg = [agg_row(0.1, "srpt", 1.5), agg_row(0.1, "greedy", 2.5),
               agg_row(1.0, "srpt", 1.8), agg_row(1.0, "greedy", 2.1)]
        text = format_series_table(agg, x_label="CCR")
        lines = text.splitlines()
        assert lines[0].split()[0] == "CCR"
        assert "srpt" in lines[0] and "greedy" in lines[0]
        assert len(lines) == 4  # header + rule + 2 x-values

    def test_values_present(self):
        text = format_series_table([agg_row(0.5, "srpt", 1.234)])
        assert "1.234" in text
        assert "±0.10" in text

    def test_missing_cell_dash(self):
        agg = [agg_row(0.1, "srpt", 1.5), agg_row(1.0, "greedy", 2.0)]
        assert "-" in format_series_table(agg)

    def test_single_rep_no_spread(self):
        text = format_series_table([agg_row(0.5, "srpt", 1.2, n=1)])
        assert "±" not in text

    def test_empty(self):
        assert format_series_table([]) == "(no data)"


class TestTimingTable:
    def test_contains_seconds(self):
        text = format_timing_table([agg_row(0.5, "srpt", 1.2)])
        assert "0.0100" in text

    def test_empty(self):
        assert format_timing_table([]) == "(no data)"


class _NoDeepCopy:
    def __deepcopy__(self, memo):
        raise AssertionError("as_dict deep-copied a structured payload")


class TestAsDict:
    def test_scalar_fields_in_order(self):
        row = result_row()
        assert list(row.as_dict().items()) == [
            ("experiment", "e"),
            ("x", 1.0),
            ("scheduler", "srpt"),
            ("rep", 0),
            ("max_stretch", 2.0),
            ("avg_stretch", 1.5),
            ("makespan", 10.0),
            ("wall_time", 0.01),
            ("n_events", 12),
            ("n_reexecutions", 0),
            ("n_abandoned", 0),
        ]

    def test_payloads_are_not_copied(self):
        base = result_row()
        row = ResultRow(**{
            **base.as_dict(), "telemetry": {"m": _NoDeepCopy()}, "trace": {"s": _NoDeepCopy()}
        })
        assert row.as_dict() == base.as_dict()


class TestCsv:
    def test_header_and_rows(self):
        text = rows_to_csv([result_row(), result_row(rep=1)])
        lines = text.strip().splitlines()
        assert lines[0].startswith("experiment,x,scheduler,rep")
        assert len(lines) == 3

    def test_empty(self):
        assert rows_to_csv([]) == ""
