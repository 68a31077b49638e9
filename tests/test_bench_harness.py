"""Unit tests for the benchmark harness (repro.bench)."""

import pytest

from repro.bench.harness import ExperimentTable, format_table
from repro.bench.workloads import default_workload
from repro.errors import ConfigurationError


@pytest.fixture
def table():
    t = ExperimentTable(
        experiment="demo",
        title="Demo table",
        columns=["a", "b"],
        unit="G tuples/s",
    )
    t.add_row("fast", {"a": 2.0, "b": 4.0})
    t.add_row("slow", {"a": 1.0, "b": 0.0001})
    t.add_note("a note")
    return t


class TestExperimentTable:
    def test_row_lookup(self, table):
        assert table.row("fast").get("a") == 2.0

    def test_missing_row(self, table):
        with pytest.raises(ConfigurationError):
            table.row("ghost")

    def test_column(self, table):
        assert table.column("a") == [2.0, 1.0]

    def test_missing_column(self, table):
        with pytest.raises(ConfigurationError):
            table.column("ghost")

    def test_unknown_column_in_row_rejected(self, table):
        with pytest.raises(ConfigurationError):
            table.add_row("bad", {"c": 1.0})

    def test_partial_rows_render_as_dash(self):
        t = ExperimentTable("e", "t", ["a", "b"])
        t.add_row("r", {"a": 1.0})
        assert t.row("r").get("b") is None
        assert "-" in t.format()


class TestFormatting:
    def test_contains_title_and_unit(self, table):
        text = format_table(table)
        assert "Demo table" in text
        assert "[G tuples/s]" in text

    def test_contains_rows_and_notes(self, table):
        text = format_table(table)
        assert "fast" in text and "slow" in text
        assert "note: a note" in text

    def test_scientific_for_tiny_values(self, table):
        assert "1.00e-04" in format_table(table)

    def test_alignment_consistent(self, table):
        lines = format_table(table).splitlines()
        body = [l for l in lines if "|" in l]
        widths = {len(l) for l in body}
        assert len(widths) == 1


class TestDefaultWorkload:
    def test_cached_instances_are_shared(self):
        a = default_workload(128, 128)
        b = default_workload(128, 128)
        assert a is b

    def test_nominal_size(self):
        workload = default_workload(128, 128)
        assert workload.build.nominal_rows == 128_000_000

    def test_probe_defaults_to_build(self):
        workload = default_workload(64)
        assert workload.probe.nominal_rows == workload.build.nominal_rows
