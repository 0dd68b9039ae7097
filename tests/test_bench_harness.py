"""Tests for the paper-reproduction bench helpers."""

import repro.bench
from repro.bench import (CONFIGURATIONS, Measurement, format_table,
                         run_matrix, series_table, time_query,
                         tpch_database)
from repro.bench.harness import _DB_CACHE
from repro import FULL, NAIVE


def test_only_the_reproduction_helpers_are_exported():
    # Performance evidence comes from benchmarks/e2e/ alone; a report
    # function growing back here would be a second harness.
    assert sorted(repro.bench.__all__) == [
        "CONFIGURATIONS", "Measurement", "NO_GROUPBY_REORDER",
        "NO_INDEX_APPLY", "NO_LOCAL_AGGREGATES", "NO_OJ_SIMPLIFY",
        "NO_SEGMENT_APPLY", "format_table", "run_matrix", "series_table",
        "time_query", "tpch_database"]


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["short", 1], ["a-much-longer-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        # columns align: cells are padded, so every line has equal width
        assert len({len(line) for line in lines}) == 1

    def test_float_rendering(self):
        text = format_table(["v"], [[0.0123], [0.5], [3.25], [1234.0]])
        assert "12.3ms" in text
        assert "0.500" in text
        assert "3.25" in text
        assert "1234" in text

    def test_series_table_layout(self):
        measurements = [
            Measurement("Q", "full", 0.01, 0.5, 0.0, 1),
            Measurement("Q", "naive", 0.01, 2.0, 0.0, 1),
            Measurement("Q", "full", 0.02, 1.0, 0.0, 1),
            Measurement("Q", "naive", 0.02, 4.0, 0.0, 1),
        ]
        text = series_table(measurements)
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["scale_factor", "full", "naive"]
        assert "0.01" in lines[2]
        assert "0.02" in lines[3]

    def test_series_table_missing_cell(self):
        measurements = [Measurement("Q", "full", 0.01, 0.5, 0.0, 1)]
        text = series_table(measurements)
        assert "-" not in text.splitlines()[0]


class TestTimingHelpers:
    def test_time_query_separates_phases(self):
        db = tpch_database(0.0002, seed=5)
        plan_s, exec_s, rows = time_query(
            db, "select count(*) from orders", FULL, repeat=2)
        assert plan_s >= 0.0 and exec_s > 0.0
        assert rows == 1

    def test_time_query_naive_mode(self):
        db = tpch_database(0.0002, seed=5)
        plan_s, exec_s, rows = time_query(
            db, "select count(*) from orders", NAIVE)
        assert plan_s == 0.0
        assert rows == 1

    def test_database_cache_reuses_instances(self):
        first = tpch_database(0.0002, seed=5)
        second = tpch_database(0.0002, seed=5)
        assert first is second
        different = tpch_database(0.0002, seed=6)
        assert different is not first

    def test_run_matrix_shape(self):
        measurements = run_matrix("select count(*) from region", "count",
                                  [0.0002], modes=(FULL,))
        assert len(measurements) == 1
        assert measurements[0].mode == "full"
        assert measurements[0].row_count == 1

    def test_configurations_cover_paper_axis(self):
        names = [m.name for m in CONFIGURATIONS]
        assert names == ["full", "decorrelate_only", "correlated"]
