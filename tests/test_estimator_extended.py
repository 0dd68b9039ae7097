"""Additional cardinality-estimation coverage: Apply correlation, segment
estimation, set operations, limit operators and ORs of ANDs."""

import pytest

from repro.algebra import (AggregateCall, AggregateFunction, And, Apply,
                           Column, ColumnRef, Comparison, ConstantScan,
                           DataType, Difference, Get, GroupBy, Join,
                           JoinKind, Like, Literal, Max1row, Not, Or,
                           ScalarGroupBy, SegmentApply, SegmentRef, Select,
                           Top, UnionAll, equals)
from repro.catalog.statistics import ColumnStats, TableStats
from repro.core.optimizer import Estimator


def stats_provider(name):
    if name == "orders":
        return TableStats(10000, {
            "o_orderkey": ColumnStats(10000, 0, 1, 10000),
            "o_custkey": ColumnStats(1000, 0, 1, 1000)})
    if name == "customer":
        return TableStats(1000, {
            "c_custkey": ColumnStats(1000, 0, 1, 1000)})
    return None


def orders_get():
    ok = Column("o_orderkey", DataType.INTEGER, False)
    ock = Column("o_custkey", DataType.INTEGER, False)
    return Get("orders", [ok, ock], [[ok]]), ok, ock


def customer_get():
    ck = Column("c_custkey", DataType.INTEGER, False)
    return Get("customer", [ck], [[ck]]), ck


class TestApplyEstimates:
    def test_correlated_apply_like_join(self):
        cust, ck = customer_get()
        orders, ok, ock = orders_get()
        inner = Select(orders, equals(ock, ck))
        apply_op = Apply(JoinKind.INNER, cust, inner)
        est = Estimator(stats_provider).estimate(apply_op)
        # 1000 customers × (10000/1000) orders each ≈ 10000
        assert est.rows == pytest.approx(10000, rel=0.3)

    def test_semi_apply_bounded_by_left(self):
        cust, ck = customer_get()
        orders, ok, ock = orders_get()
        inner = Select(orders, equals(ock, ck))
        apply_op = Apply(JoinKind.LEFT_SEMI, cust, inner)
        est = Estimator(stats_provider).estimate(apply_op)
        assert est.rows <= 1000


class TestSegmentEstimates:
    def test_segment_apply_rows(self):
        orders, ok, ock = orders_get()
        mirrors = [c.fresh_copy() for c in orders.output_columns()]
        total = Column("cnt", DataType.INTEGER)
        inner = ScalarGroupBy(SegmentRef(mirrors), [
            (total, AggregateCall(AggregateFunction.COUNT_STAR))])
        sa = SegmentApply(orders, inner, [ock], mirrors)
        est = Estimator(stats_provider).estimate(sa)
        # one scalar-agg row per segment; segments ≈ ndv(o_custkey)
        assert est.rows == pytest.approx(1000, rel=0.1)

    def test_segment_ref_uses_per_segment_rows(self):
        orders, ok, ock = orders_get()
        mirrors = [c.fresh_copy() for c in orders.output_columns()]
        inner = SegmentRef(mirrors)
        sa = SegmentApply(orders, inner, [ock], mirrors)
        est = Estimator(stats_provider).estimate(sa)
        # each row of each segment is emitted: total ≈ |orders|
        assert est.rows == pytest.approx(10000, rel=0.1)


class TestDisjunctionEstimates:
    """A branch of an OR of ANDs (TPC-H Q19's shape, and the filter it
    implies per join input) is estimated as the product of its
    conjuncts, not the 1/3 default for an unknown predicate."""

    def _branches(self):
        orders, ok, ock = orders_get()
        first = And([equals(ock, Literal(1)), equals(ok, Literal(2))])
        second = And([equals(ock, Literal(3)), equals(ok, Literal(4))])
        return orders, first, second

    def test_and_branch_is_product_of_conjuncts(self):
        orders, first, second = self._branches()
        estimator = Estimator(stats_provider)
        base = estimator.estimate(orders)
        branch = 1 / 1000 * 1 / 10000
        assert estimator.predicate_selectivity(
            Or([first, second]), base) == pytest.approx(2 * branch)
        assert estimator.predicate_selectivity(
            Not(first), base) == pytest.approx(1 - branch)

    def test_or_of_ands_filter_rows(self):
        orders, first, second = self._branches()
        est = Estimator(stats_provider).estimate(
            Select(orders, Or([first, second])))
        assert est.rows < 1.0


class TestLikeEstimates:
    def test_not_like_keeps_the_complement_of_like(self):
        orders, ok, ock = orders_get()
        estimator = Estimator(stats_provider)
        base = estimator.estimate(orders)
        like = Like(ColumnRef(ock), "%special%requests%")
        not_like = Like(ColumnRef(ock), "%special%requests%", negated=True)
        assert estimator.predicate_selectivity(like, base) == \
            pytest.approx(0.1)
        assert estimator.predicate_selectivity(not_like, base) == \
            pytest.approx(0.9)
        assert estimator.estimate(Select(orders, not_like)).rows == \
            pytest.approx(9000.0)


class TestSetAndLimitEstimates:
    def test_union_sums(self):
        a = ConstantScan([Column("x", DataType.INTEGER)],
                         [(1,), (2,), (3,)])
        b = ConstantScan([Column("y", DataType.INTEGER)], [(4,)])
        est = Estimator(stats_provider).estimate(UnionAll.from_inputs([a, b]))
        assert est.rows == 4

    def test_difference_keeps_left(self):
        a = ConstantScan([Column("x", DataType.INTEGER)], [(1,), (2,)])
        b = ConstantScan([Column("y", DataType.INTEGER)], [(1,)])
        est = Estimator(stats_provider).estimate(Difference.from_inputs(a, b))
        assert est.rows == 2

    def test_top_and_offset(self):
        orders, *_ = orders_get()
        est = Estimator(stats_provider).estimate(Top(orders, 10, offset=5))
        assert est.rows == 10
        nearly_all = Estimator(stats_provider).estimate(
            Top(orders, 10_000_000, offset=9995))
        assert nearly_all.rows == pytest.approx(5)

    def test_max1row(self):
        orders, *_ = orders_get()
        est = Estimator(stats_provider).estimate(Max1row(orders))
        assert est.rows == 1.0

    def test_missing_stats_fall_back(self):
        unknown = Get("mystery", [Column("z", DataType.INTEGER)], [])
        est = Estimator(stats_provider).estimate(unknown)
        assert est.rows > 0


class TestEstimateCache:
    def test_freed_tree_cannot_serve_its_estimate_to_a_new_one(self):
        """Greedy join ordering estimates throw-away candidate joins
        through one long-lived estimator.  A candidate freed after its
        estimate gives its address to the next one allocated; a cache
        keyed by address then hands the new join the old join's rows."""
        cust, ck = customer_get()
        orders, ok, ock = orders_get()
        estimator = Estimator(stats_provider)
        first = Join(JoinKind.INNER, cust, orders, equals(ock, ck))
        address = id(first)
        assert estimator.estimate(first).rows == pytest.approx(10000)
        del first
        # The cross product allocated next takes the freed address at
        # once on CPython; its estimate must be its own.
        second = Join(JoinKind.INNER, cust, orders)
        reused = id(second) == address
        fresh = Estimator(stats_provider).estimate(second).rows
        assert fresh == pytest.approx(10_000_000)
        assert estimator.estimate(second).rows == fresh, \
            f"stale estimate (address reused: {reused})"
