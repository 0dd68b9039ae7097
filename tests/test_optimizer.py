"""Unit tests for the cost-based optimizer: pushdown, rules, cardinality,
memo behaviour, index selection and segmented execution."""

import pytest

from repro import Database, DataType, FULL
from repro.algebra import (AggregateCall, AggregateFunction, Column,
                           ColumnRef, Comparison, Get, GroupBy, Join,
                           JoinKind, Literal, LocalGroupBy, Project,
                           ScalarGroupBy, SegmentApply, Select,
                           collect_nodes, equals, explain)
from repro.core.optimizer import (Estimator, OptimizerConfig,
                                  push_selections, segment_alternatives)
from repro.core.optimizer.memo import Memo
from repro.core.optimizer.rules import (GroupByPushBelowJoin,
                                        GroupByPullAboveJoin,
                                        JoinEnumerate,
                                        LocalGlobalSplit,
                                        SemiJoinGroupByReorder,
                                        SemiJoinToJoinDistinct)
from repro.catalog.statistics import TableStats, ColumnStats
from repro.physical.plan import (PHashJoin, PIndexSeek, PNLApply,
                                 PSegmentApply, PTableScan)

from .helpers import customer_scan, orders_scan


def no_stats(name):
    return None


class TestPushSelections:
    def test_filter_sinks_into_join_side(self):
        cust, (ck, cn, cnk) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        tree = Select(Join.cross(cust, orders),
                      Comparison("<", ColumnRef(price), Literal(10.0)))
        pushed = push_selections(tree)
        # The filter must now be below the join, over orders.
        selects = collect_nodes(pushed, lambda n: isinstance(n, Select))
        assert len(selects) == 1
        assert isinstance(selects[0].child, Get)
        assert selects[0].child.table_name == "orders"

    def test_equality_becomes_join_predicate(self):
        cust, (ck, _, _) = customer_scan()
        orders, (_, ock, _) = orders_scan()
        tree = Select(Join.cross(cust, orders), equals(ock, ck))
        pushed = push_selections(tree)
        join = collect_nodes(pushed, lambda n: isinstance(n, Join))[0]
        assert join.predicate is not None

    def test_filter_through_groupby_on_group_columns(self):
        orders, (ok, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        tree = Select(gb, equals(ock, Literal(7)))
        pushed = push_selections(tree)
        # filter on group column sinks below the GroupBy
        assert isinstance(pushed, GroupBy)
        assert isinstance(pushed.child, Select)

    def test_aggregate_filter_stays_above(self):
        orders, (ok, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        tree = Select(gb, Comparison("<", Literal(100.0), ColumnRef(total)))
        pushed = push_selections(tree)
        assert isinstance(pushed, Select)
        assert isinstance(pushed.child, GroupBy)

    def test_left_only_filter_not_pushed_into_loj_on_clause(self):
        cust, (ck, _, _) = customer_scan()
        orders, (_, ock, _) = orders_scan()
        loj = Join(JoinKind.LEFT_OUTER, cust, orders, equals(ock, ck))
        tree = Select(loj, equals(ck, Literal(1)))
        pushed = push_selections(tree)
        # left-side filter pushes into the left child, join stays LOJ
        join = collect_nodes(pushed, lambda n: isinstance(n, Join))[0]
        assert join.kind is JoinKind.LEFT_OUTER
        assert isinstance(join.left, Select)

    def test_right_side_filter_stays_above_loj(self):
        cust, _ = customer_scan()
        orders, (_, _, price) = orders_scan()
        loj = Join(JoinKind.LEFT_OUTER, cust, orders)
        tree = Select(loj, Comparison(">", ColumnRef(price), Literal(5.0)))
        pushed = push_selections(tree)
        assert isinstance(pushed, Select)  # cannot sink past padding


class TestRules:
    def _gb_over_join(self):
        cust, (ck, cn, cnk) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        join = Join(JoinKind.INNER, cust, orders, equals(ock, ck))
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(join, [ck, cn, cnk],
                     [(total, AggregateCall(AggregateFunction.SUM,
                                            ColumnRef(price)))])
        return gb, join, ck, ock, price, total

    def test_groupby_push_below_join(self):
        gb, join, ck, ock, price, total = self._gb_over_join()
        results = GroupByPushBelowJoin().apply(gb, memo=None)
        assert results
        inner_gbs = [n for r in results
                     for n in collect_nodes(r, lambda n: isinstance(n, GroupBy))]
        # some variant groups the orders side by o_custkey
        assert any(ock.cid in {c.cid for c in g.group_columns}
                   for g in inner_gbs)

    def test_groupby_push_requires_key(self):
        """Without a key on the preserved side the rule must not fire."""
        cust, (ck, cn, cnk) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        no_key_cust = Get("customer2", [c.fresh_copy() for c in (ck, cn, cnk)])
        join = Join(JoinKind.INNER, no_key_cust, orders,
                    equals(ock, no_key_cust.columns[0]))
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(join, [no_key_cust.columns[0]],
                     [(total, AggregateCall(AggregateFunction.SUM,
                                            ColumnRef(price)))])
        assert GroupByPushBelowJoin().apply(gb, memo=None) == []

    def test_groupby_push_rejects_count_star(self):
        """count(*) counts join multiplicity; pushing it below is wrong."""
        gb, join, ck, ock, price, total = self._gb_over_join()
        cnt = Column("cnt", DataType.INTEGER)
        gb2 = GroupBy(join, gb.group_columns,
                      [(cnt, AggregateCall(AggregateFunction.COUNT_STAR))])
        assert GroupByPushBelowJoin().apply(gb2, memo=None) == []

    def test_groupby_push_below_outerjoin_adds_computing_project(self):
        """Section 3.2: count below LOJ needs the computing project."""
        cust, (ck, cn, cnk) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        loj = Join(JoinKind.LEFT_OUTER, cust, orders, equals(ock, ck))
        cnt = Column("cnt", DataType.INTEGER)
        gb = GroupBy(loj, [ck, cn, cnk],
                     [(cnt, AggregateCall(AggregateFunction.COUNT,
                                          ColumnRef(price)))])
        results = GroupByPushBelowJoin().apply(gb, memo=None)
        assert results
        (result,) = results
        assert isinstance(result, Project)
        # the project computes (not merely forwards) the count column
        computed = [c for c, e in result.items
                    if not (isinstance(e, ColumnRef) and e.column == c)]
        assert any(c.cid == cnt.cid for c in computed)

    def test_groupby_push_below_outerjoin_sum_no_project(self):
        """sum(NULL padding) is already NULL — no computing project."""
        cust, (ck, cn, cnk) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        loj = Join(JoinKind.LEFT_OUTER, cust, orders, equals(ock, ck))
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(loj, [ck, cn, cnk],
                     [(total, AggregateCall(AggregateFunction.SUM,
                                            ColumnRef(price)))])
        results = GroupByPushBelowJoin().apply(gb, memo=None)
        assert results
        (result,) = results
        joins = collect_nodes(result, lambda n: isinstance(n, Join))
        assert joins[0].kind is JoinKind.LEFT_OUTER

    def test_groupby_pull_above_join(self):
        cust, (ck, _, _) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        join = Join(JoinKind.INNER, cust, gb, equals(ock, ck))
        results = GroupByPullAboveJoin().apply(join, memo=None)
        assert results
        pulled_gb = collect_nodes(results[0],
                                  lambda n: isinstance(n, GroupBy))[0]
        assert ck.cid in {c.cid for c in pulled_gb.group_columns}

    def test_pull_blocked_when_predicate_uses_aggregate(self):
        cust, (ck, _, _) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        join = Join(JoinKind.INNER, cust, gb,
                    Comparison("<", ColumnRef(total), Literal(5.0)))
        assert GroupByPullAboveJoin().apply(join, memo=None) == []

    def test_join_enumerate_enters_both_orders(self):
        cust, _ = customer_scan()
        orders, _ = orders_scan()
        join = Join.cross(cust, orders)
        memo = Memo(lambda group_lookup=None: Estimator(no_stats,
                                                        group_lookup))
        root = memo.insert_tree(join)
        assert JoinEnumerate().apply(memo.group(root).exprs[0].op,
                                     memo) == []
        original, flipped = memo.group(root).exprs
        # Both orders sit in the join's own group: a group is a column
        # set, and the flipped join delivers it in another order.
        assert isinstance(original.op, Join)
        assert isinstance(flipped.op, Join)
        assert flipped.child_groups == list(reversed(original.child_groups))
        assert [c.cid for c in flipped.op.output_columns()] != \
            [c.cid for c in join.output_columns()]
        assert sorted(c.cid for c in flipped.op.output_columns()) == \
            sorted(c.cid for c in join.output_columns())
        assert len(memo.groups) == 3  # the two scans and the join

    def test_join_enumerate_places_conjuncts_lowest(self):
        a, (ak, _, _) = customer_scan()
        b, (bk, bck, _) = orders_scan()
        c, (ck2, cck, _) = orders_scan()
        inner = Join(JoinKind.INNER, a, b, equals(bck, ak))
        outer = Join(JoinKind.INNER, inner, c, equals(cck, bck))
        memo = Memo(lambda group_lookup=None: Estimator(no_stats,
                                                        group_lookup))
        root = memo.insert_tree(outer)
        JoinEnumerate().apply(memo.group(root).exprs[0].op, memo)
        joins = [e.op for g in memo.groups for e in g.exprs
                 if isinstance(e.op, Join)]
        # a ⋈ c shares no conjunct, so no join reads only those two;
        # b ⋈ c carries exactly its own conjunct.
        predicates = {frozenset(c.cid for c in j.predicate.free_columns())
                      for j in joins}
        assert predicates == {frozenset({bck.cid, ak.cid}),
                              frozenset({cck.cid, bck.cid})}
        a_id, c_id = (memo.insert_tree(a), memo.insert_tree(c))
        assert not any({a_id, c_id} == set(e.child_groups)
                       for g in memo.groups for e in g.exprs)

    def test_semijoin_groupby_reorder(self):
        orders, (ok, ock, price) = orders_scan()
        cust, (ck, _, _) = customer_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        semi = Join(JoinKind.LEFT_SEMI, gb, cust, equals(ock, ck))
        (result,) = SemiJoinGroupByReorder().apply(semi, memo=None)
        assert isinstance(result, GroupBy)
        assert isinstance(result.child, Join)
        assert result.child.kind is JoinKind.LEFT_SEMI

    def test_semijoin_to_join_distinct(self):
        cust, (ck, _, _) = customer_scan()
        orders, (_, ock, _) = orders_scan()
        semi = Join(JoinKind.LEFT_SEMI, cust, orders, equals(ock, ck))
        (result,) = SemiJoinToJoinDistinct().apply(semi, memo=None)
        assert isinstance(result, GroupBy)
        assert result.aggregates == []
        inner = collect_nodes(result, lambda n: isinstance(n, Join))[0]
        assert inner.kind is JoinKind.INNER

    def test_local_global_split(self):
        orders, (ok, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        avg_col = Column("avgp", DataType.FLOAT)
        gb = GroupBy(orders, [ock],
                     [(total, AggregateCall(AggregateFunction.SUM,
                                            ColumnRef(price))),
                      (avg_col, AggregateCall(AggregateFunction.AVG,
                                              ColumnRef(price)))])
        (result,) = LocalGlobalSplit().apply(gb, memo=None)
        locals_ = collect_nodes(result,
                                lambda n: isinstance(n, LocalGroupBy))
        assert len(locals_) == 1
        # avg split requires a finalizing projection (sum/count)
        assert isinstance(result, Project)
        out = [c.cid for c in result.output_columns()]
        assert out == [ock.cid, total.cid, avg_col.cid]

    def test_local_global_split_skips_distinct(self):
        orders, (ok, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock],
                     [(total, AggregateCall(AggregateFunction.SUM,
                                            ColumnRef(price), distinct=True))])
        assert LocalGlobalSplit().apply(gb, memo=None) == []


class TestEstimator:
    def _stats(self, name):
        if name == "orders":
            return TableStats(10000, {
                "o_orderkey": ColumnStats(10000, 0, 1, 10000),
                "o_custkey": ColumnStats(1000, 0, 1, 1000),
                "o_totalprice": ColumnStats(5000, 0, 1.0, 500000.0)})
        if name == "customer":
            return TableStats(1000, {
                "c_custkey": ColumnStats(1000, 0, 1, 1000),
                "c_name": ColumnStats(1000, 0, None, None),
                "c_nationkey": ColumnStats(25, 0, 0, 24)})
        return None

    def test_scan_estimate(self):
        orders, _ = orders_scan()
        est = Estimator(self._stats).estimate(orders)
        assert est.rows == 10000

    def test_equality_selectivity(self):
        orders, (_, ock, _) = orders_scan()
        sel = Select(orders, equals(ock, Literal(5)))
        est = Estimator(self._stats).estimate(sel)
        assert est.rows == pytest.approx(10.0)

    def test_join_estimate_uses_max_ndv(self):
        cust, (ck, _, _) = customer_scan()
        orders, (_, ock, _) = orders_scan()
        join = Join(JoinKind.INNER, cust, orders, equals(ock, ck))
        est = Estimator(self._stats).estimate(join)
        # 1000 * 10000 / max(1000, 1000) = 10000
        assert est.rows == pytest.approx(10000.0)

    def test_groupby_estimate(self):
        orders, (_, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        est = Estimator(self._stats).estimate(gb)
        assert est.rows == pytest.approx(1000.0)

    def test_range_estimate(self):
        orders, (ok, _, _) = orders_scan()
        sel = Select(orders, Comparison("<", ColumnRef(ok), Literal(2500)))
        est = Estimator(self._stats).estimate(sel)
        assert 1500 < est.rows < 3500

    def test_semi_join_bounded_by_left(self):
        cust, (ck, _, _) = customer_scan()
        orders, (_, ock, _) = orders_scan()
        semi = Join(JoinKind.LEFT_SEMI, cust, orders, equals(ock, ck))
        est = Estimator(self._stats).estimate(semi)
        assert est.rows <= 1000


class TestPhysicalChoices:
    def _db(self, customers=5, orders_per_customer=200, with_index=True):
        db = Database()
        db.create_table("customer",
                        [("c_custkey", DataType.INTEGER, False),
                         ("c_acctbal", DataType.FLOAT, False)],
                        primary_key=("c_custkey",))
        db.create_table("orders",
                        [("o_orderkey", DataType.INTEGER, False),
                         ("o_custkey", DataType.INTEGER, False),
                         ("o_totalprice", DataType.FLOAT, False)],
                        primary_key=("o_orderkey",))
        if with_index:
            db.create_index("ix_o_ck", "orders", ["o_custkey"])
        db.insert("customer",
                  [(i, float(i)) for i in range(1, customers + 1)])
        rows = []
        key = 0
        for c in range(1, customers + 1):
            for _ in range(orders_per_customer):
                key += 1
                rows.append((key, c, float(key % 97)))
        db.insert("orders", rows)
        return db

    def test_hash_join_used_for_large_equijoin(self):
        # Without a secondary index, the equijoin must run as a hash join.
        db = self._db(customers=500, orders_per_customer=20,
                      with_index=False)
        plan = db.plan("""select c_custkey, o_orderkey from customer, orders
                          where o_custkey = c_custkey""")
        kinds = {type(n).__name__ for n in _walk_plan(plan)}
        assert "PHashJoin" in kinds

    def test_index_apply_for_selective_outer(self):
        """Tiny outer + index on the inner: correlated index-lookup join
        should win (paper: re-introduction of correlated execution)."""
        db = self._db(customers=3, orders_per_customer=5000)
        plan = db.plan("""select c_custkey, o_orderkey from customer, orders
                          where o_custkey = c_custkey
                            and c_custkey = 2""")
        nodes = list(_walk_plan(plan))
        assert any(isinstance(n, PIndexSeek) for n in nodes)
        assert any(isinstance(n, PNLApply) for n in nodes)

    def test_index_apply_disabled_by_config(self):
        from repro.database import ExecutionMode
        db = self._db(customers=3, orders_per_customer=5000)
        mode = ExecutionMode(
            "no_index", optimizer_config=OptimizerConfig(index_apply=False))
        # index_apply is controlled in the implementer; with the flag off
        # no PIndexSeek may appear under a join.
        plan = db.plan("""select c_custkey, o_orderkey from customer, orders
                          where o_custkey = c_custkey
                            and c_custkey = 2""", mode)
        joins_with_seek = [
            n for n in _walk_plan(plan)
            if isinstance(n, PNLApply)
            and any(isinstance(c, PIndexSeek) for c in n.children)]
        assert not joins_with_seek


class TestSegmentAlternatives:
    def test_q17_pattern_generates_segment_apply(self):
        db = Database()
        db.create_table("lineitem",
                        [("l_orderkey", DataType.INTEGER, False),
                         ("l_partkey", DataType.INTEGER, False),
                         ("l_linenumber", DataType.INTEGER, False),
                         ("l_quantity", DataType.FLOAT, False)],
                        primary_key=("l_orderkey", "l_linenumber"))
        db.create_table("part",
                        [("p_partkey", DataType.INTEGER, False),
                         ("p_brand", DataType.VARCHAR, False)],
                        primary_key=("p_partkey",))
        rows = [(i // 3 + 1, i % 10 + 1, i % 3 + 1, float(i % 7 + 1))
                for i in range(600)]
        db.insert("lineitem", rows)
        db.insert("part", [(i, f"Brand#{i % 3}") for i in range(1, 11)])
        plan = db.plan("""
            select sum(l_quantity) from lineitem, part
            where p_partkey = l_partkey and p_brand = 'Brand#1'
              and l_quantity < (select 0.5 * avg(l2.l_quantity)
                                from lineitem l2
                                where l2.l_partkey = p_partkey)""")
        assert any(isinstance(n, PSegmentApply) for n in _walk_plan(plan))

    def test_segment_apply_disabled_by_config(self):
        from repro.database import ExecutionMode
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.FLOAT, False)])
        db.insert("t", [(i % 5, float(i)) for i in range(100)])
        mode = ExecutionMode(
            "noseg", optimizer_config=OptimizerConfig(segment_apply=False))
        plan = db.plan("""
            select sum(b) from t
            where b < (select avg(t2.b) from t t2 where t2.a = t.a)""", mode)
        assert not any(isinstance(n, PSegmentApply)
                       for n in _walk_plan(plan))


def _walk_plan(plan):
    yield plan
    for child in plan.children:
        yield from _walk_plan(child)
