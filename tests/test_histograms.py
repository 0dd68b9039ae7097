"""Unit and property tests for equi-depth histograms and their use in
range-selectivity estimation."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (Column, ColumnRef, Comparison, DataType, Get,
                           Literal, Select)
from repro.catalog import build_histogram, compute_table_stats
from repro.core.optimizer import Estimator


class TestBuildHistogram:
    def test_empty_input(self):
        assert build_histogram([]) is None
        assert build_histogram([None, None]) is None

    def test_strings_unsupported(self):
        assert build_histogram(["a", "b"]) is None

    def test_single_value(self):
        h = build_histogram([5])
        assert h is not None
        assert h.fraction_below(4) == 0.0
        assert h.fraction_below(6) == 1.0

    def test_uniform_data(self):
        h = build_histogram(list(range(1000)), bucket_count=10)
        assert h.bucket_count == 10
        assert h.fraction_below(500) == pytest.approx(0.5, abs=0.02)
        assert h.fraction_below(100) == pytest.approx(0.1, abs=0.02)

    def test_skewed_data(self):
        # 90% of mass at 0, tail spread to 1000.
        values = [0] * 900 + list(range(1, 101))
        h = build_histogram(values, bucket_count=10)
        assert h.fraction_below(1) >= 0.85

    def test_dates(self):
        days = [datetime.date(2000, 1, 1) + datetime.timedelta(days=i)
                for i in range(100)]
        h = build_histogram(days, bucket_count=4)
        mid = datetime.date(2000, 1, 1) + datetime.timedelta(days=50)
        assert h.fraction_below(mid) == pytest.approx(0.5, abs=0.05)

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=200),
           probe=st.integers(-60, 60))
    def test_fraction_close_to_truth(self, values, probe):
        h = build_histogram(values, bucket_count=8)
        truth = sum(1 for v in values if v < probe) / len(values)
        assert h.fraction_below(probe) == pytest.approx(
            truth, abs=2.0 / min(8, len(values)) + 0.01)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=100),
           a=st.integers(-60, 60), b=st.integers(-60, 60))
    def test_monotone(self, values, a, b):
        h = build_histogram(values)
        low, high = min(a, b), max(a, b)
        assert h.fraction_below(low) <= h.fraction_below(high) + 1e-9


class TestEstimatorUsesHistogram:
    def test_skewed_range_estimate(self):
        """With 90% of values at 0, 'col > 0' must estimate ~10%, which
        uniform min/max interpolation would put at ~100%."""
        values = [0] * 900 + list(range(1, 101))
        stats = compute_table_stats(["v"], [values], len(values))

        v = Column("v", DataType.INTEGER, nullable=False)
        get = Get("t", [v], [])
        sel = Select(get, Comparison(">", ColumnRef(v), Literal(0)))
        estimate = Estimator(lambda name: stats).estimate(sel)
        assert estimate.rows == pytest.approx(100, rel=0.5)

    def test_out_of_range_probe(self):
        stats = compute_table_stats(["v"], [list(range(100))], 100)
        v = Column("v", DataType.INTEGER, nullable=False)
        get = Get("t", [v], [])
        below_all = Select(get, Comparison("<", ColumnRef(v), Literal(-5)))
        above_all = Select(get, Comparison(">", ColumnRef(v), Literal(500)))
        estimator = Estimator(lambda name: stats)
        assert estimator.estimate(below_all).rows == pytest.approx(0.0)
        assert estimator.estimate(above_all).rows == pytest.approx(0.0)

    def test_null_fraction_respected(self):
        values = list(range(50)) + [None] * 50
        stats = compute_table_stats(["v"], [values], len(values))
        v = Column("v", DataType.INTEGER, nullable=True)
        get = Get("t", [v], [])
        sel = Select(get, Comparison(">=", ColumnRef(v), Literal(0)))
        estimate = Estimator(lambda name: stats).estimate(sel)
        # NULLs never satisfy the range predicate.
        assert estimate.rows == pytest.approx(50, rel=0.2)
