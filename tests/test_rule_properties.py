"""Property-based semantics preservation for optimizer rules.

Every transformation rule must be an *equivalence*: applying it to a tree
and executing both versions through the naive interpreter must give the
same bag of rows, for randomized data (including NULLs, empty tables,
duplicate values).  This is the optimizer-level counterpart of the
normalization differential tests.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (AggregateCall, AggregateFunction, And, Column,
                           ColumnRef, Comparison, DataType, Get, GroupBy,
                           Join, JoinKind, Literal, LocalGroupBy, Project,
                           Select, equals)
from repro.core.optimizer.pushdown import (factor_conjuncts,
                                           push_selections)
from repro.core.optimizer import Estimator
from repro.core.optimizer.memo import Memo
from repro.core.optimizer.rules import (GroupByPullAboveJoin,
                                        GroupByPushBelowJoin,
                                        JoinEnumerate,
                                        LocalGlobalSplit,
                                        SelectPushdown,
                                        SemiJoinGroupByReorder,
                                        SemiJoinToJoinDistinct)
from repro.executor import NaiveInterpreter


def run(tree, data):
    return Counter(NaiveInterpreter(lambda name: data[name]).run(tree))


def make_s(rows):
    """s(k INTEGER PK, c INTEGER NULL)"""
    k = Column("k", DataType.INTEGER, nullable=False)
    c = Column("c", DataType.INTEGER, nullable=True)
    return Get("s", [k, c], [[k]]), k, c


def make_r(rows):
    """r(a INTEGER NULL, b INTEGER NULL) — no key."""
    a = Column("a", DataType.INTEGER, nullable=True)
    b = Column("b", DataType.INTEGER, nullable=True)
    return Get("r", [a, b], []), a, b


small = st.one_of(st.none(), st.integers(0, 3))

s_rows = st.lists(st.tuples(st.integers(0, 5), small), max_size=6,
                  unique_by=lambda row: row[0])
r_rows = st.lists(st.tuples(small, small), max_size=8)

AGG_FUNCS = [AggregateFunction.SUM, AggregateFunction.MIN,
             AggregateFunction.MAX, AggregateFunction.COUNT,
             AggregateFunction.AVG]


def check_rule(rule, tree, data, expect_fire=None):
    """Apply a rule; every produced alternative must match the original."""
    results = rule.apply(tree, memo=None)
    if expect_fire is True:
        assert results, "rule was expected to fire"
    baseline = run(tree, data)
    for alternative in results:
        assert run(alternative, data) == baseline
    return bool(results)


class TestGroupByJoinRules:
    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, func_index=st.integers(0, len(AGG_FUNCS) - 1),
           outer=st.booleans())
    def test_push_below_join(self, s, r, func_index, outer):
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        kind = JoinKind.LEFT_OUTER if outer else JoinKind.INNER
        join = Join(kind, s_get, r_get, equals(a, k))
        out = Column("agg", DataType.FLOAT)
        call = AggregateCall(AGG_FUNCS[func_index], ColumnRef(b))
        tree = GroupBy(join, [k, c], [(out, call)])
        data = {"s": s, "r": r}
        check_rule(GroupByPushBelowJoin(), tree, data, expect_fire=True)

    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, func_index=st.integers(0, len(AGG_FUNCS) - 1))
    def test_pull_above_join(self, s, r, func_index):
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        out = Column("agg", DataType.FLOAT)
        call = AggregateCall(AGG_FUNCS[func_index], ColumnRef(b))
        gb = GroupBy(r_get, [a], [(out, call)])
        tree = Join(JoinKind.INNER, s_get, gb, equals(a, k))
        data = {"s": s, "r": r}
        check_rule(GroupByPullAboveJoin(), tree, data, expect_fire=True)

    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows,
           func_index=st.integers(0, 2))  # sum/min/max: strict + NULL-on-∅
    def test_pull_above_outerjoin(self, s, r, func_index):
        """Section 3.2 read right-to-left: aggregate-then-outerjoin becomes
        outerjoin-then-aggregate."""
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        out = Column("agg", DataType.FLOAT)
        call = AggregateCall(AGG_FUNCS[func_index], ColumnRef(b))
        gb = GroupBy(r_get, [a], [(out, call)])
        tree = Join(JoinKind.LEFT_OUTER, s_get, gb, equals(a, k))
        data = {"s": s, "r": r}
        check_rule(GroupByPullAboveJoin(), tree, data, expect_fire=True)

    @settings(max_examples=30, deadline=None)
    @given(s=s_rows, r=r_rows)
    def test_pull_above_outerjoin_count_blocked(self, s, r):
        """count's 0-on-empty cannot reproduce the LOJ's NULL padding."""
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        out = Column("cnt", DataType.INTEGER)
        gb = GroupBy(r_get, [a], [(out, AggregateCall(
            AggregateFunction.COUNT, ColumnRef(b)))])
        tree = Join(JoinKind.LEFT_OUTER, s_get, gb, equals(a, k))
        assert GroupByPullAboveJoin().apply(tree, memo=None) == []

    @settings(max_examples=40, deadline=None)
    @given(s=s_rows, r=r_rows)
    def test_push_below_outerjoin_count_star_blocked(self, s, r):
        """count(*) must never push below a join (it counts padding and
        multiplicity)."""
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        join = Join(JoinKind.LEFT_OUTER, s_get, r_get, equals(a, k))
        out = Column("cnt", DataType.INTEGER)
        tree = GroupBy(join, [k], [(out, AggregateCall(
            AggregateFunction.COUNT_STAR))])
        assert GroupByPushBelowJoin().apply(tree, memo=None) == []

    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows)
    def test_outerjoin_count_computing_project(self, s, r):
        """count(column) below a LOJ requires the §3.2 computing project;
        the rewrite must keep zero-vs-NULL semantics exact."""
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        join = Join(JoinKind.LEFT_OUTER, s_get, r_get, equals(a, k))
        out = Column("cnt", DataType.INTEGER)
        tree = GroupBy(join, [k], [(out, AggregateCall(
            AggregateFunction.COUNT, ColumnRef(b)))])
        data = {"s": s, "r": r}
        check_rule(GroupByPushBelowJoin(), tree, data, expect_fire=True)


class TestSemiJoinRules:
    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, anti=st.booleans())
    def test_semijoin_below_groupby(self, s, r, anti):
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        out = Column("agg", DataType.FLOAT)
        gb = GroupBy(r_get, [a], [(out, AggregateCall(
            AggregateFunction.SUM, ColumnRef(b)))])
        kind = JoinKind.LEFT_ANTI if anti else JoinKind.LEFT_SEMI
        tree = Join(kind, gb, s_get, equals(a, k))
        data = {"s": s, "r": r}
        check_rule(SemiJoinGroupByReorder(), tree, data, expect_fire=True)

    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows)
    def test_semijoin_to_join_distinct(self, s, r):
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        tree = Join(JoinKind.LEFT_SEMI, s_get, r_get, equals(a, k))
        data = {"s": s, "r": r}
        check_rule(SemiJoinToJoinDistinct(), tree, data, expect_fire=True)


class TestLocalAggregateRules:
    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, func_index=st.integers(0, len(AGG_FUNCS) - 1))
    def test_local_global_split(self, s, r, func_index):
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        join = Join(JoinKind.INNER, s_get, r_get, equals(a, k))
        out = Column("agg", DataType.FLOAT)
        call = AggregateCall(AGG_FUNCS[func_index], ColumnRef(b))
        tree = GroupBy(join, [c], [(out, call)])
        data = {"s": s, "r": r}
        check_rule(LocalGlobalSplit(), tree, data, expect_fire=True)

    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, func_index=st.integers(0, len(AGG_FUNCS) - 1))
    def test_split_then_push(self, s, r, func_index):
        """Compose: split into local/global, then push the LocalGroupBy
        below the join — the full Section 3.3 pipeline."""
        from repro.core.optimizer.rules import LocalGroupByPushBelowJoin

        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        join = Join(JoinKind.INNER, s_get, r_get, equals(a, k))
        out = Column("agg", DataType.FLOAT)
        call = AggregateCall(AGG_FUNCS[func_index], ColumnRef(b))
        tree = GroupBy(join, [c], [(out, call)])
        data = {"s": s, "r": r}
        baseline = run(tree, data)

        split_results = LocalGlobalSplit().apply(tree, memo=None)
        assert split_results
        for split_tree in split_results:
            assert run(split_tree, data) == baseline
            # find the LocalGroupBy-over-Join inside and push it
            from repro.algebra import collect_nodes, transform_bottom_up

            def push(node):
                if isinstance(node, LocalGroupBy) and \
                        isinstance(node.child, Join):
                    alternatives = LocalGroupByPushBelowJoin().apply(
                        node, memo=None)
                    if alternatives:
                        return alternatives[0]
                return node

            pushed_tree = transform_bottom_up(split_tree, push)
            assert run(pushed_tree, data) == baseline


def memo_trees(memo, group_id):
    """Every plan tree a memo group holds (children expanded through
    every alternative of their groups)."""
    for expr in memo.group(group_id).exprs:
        options = [list(memo_trees(memo, child))
                   for child in expr.child_groups]
        for children in itertools.product(*options):
            yield expr.op.with_children(list(children)) if children \
                else expr.op


class TestJoinEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, t=r_rows, cross=st.booleans())
    def test_every_order_is_equivalent(self, s, r, t, cross):
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        t = [(x, y) for x, y in t]
        t_get = Get("t", [Column("a", DataType.INTEGER),
                          Column("b", DataType.INTEGER)], [])
        a2, b2 = t_get.columns
        inner = Join(JoinKind.INNER, s_get, r_get, equals(a, k))
        # With ``cross`` the third input joins through a predicate on
        # both others (one conjunct reading s and t, one r and t),
        # else through r alone.
        predicate = (And([equals(a2, k), Comparison("<", ColumnRef(b),
                                                    ColumnRef(b2))])
                     if cross else equals(a2, a))
        tree = Join(JoinKind.INNER, inner, t_get, predicate)
        data = {"s": s, "r": r, "t": t}
        memo = Memo(lambda group_lookup=None: Estimator(
            lambda name: None, group_lookup))
        root = memo.insert_tree(tree)
        JoinEnumerate().apply(memo.group(root).exprs[0].op, memo)
        plans = list(memo_trees(memo, root))
        assert len(plans) > 2
        # A memo group is a column set: each order delivers the root's
        # columns in its own order, so rows are compared by column id.
        order = [c.cid for c in tree.output_columns()]
        baseline = run(tree, data)
        for plan in plans:
            ids = [c.cid for c in plan.output_columns()]
            assert sorted(ids) == sorted(order)
            positions = [ids.index(cid) for cid in order]
            rows = NaiveInterpreter(lambda name: data[name]).run(plan)
            assert Counter(tuple(row[i] for i in positions)
                           for row in rows) == baseline


class TestSelectionRules:
    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, threshold=st.integers(0, 3),
           outer=st.booleans())
    def test_select_pushdown_rule(self, s, r, threshold, outer):
        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        kind = JoinKind.LEFT_OUTER if outer else JoinKind.INNER
        join = Join(kind, s_get, r_get, equals(a, k))
        predicate = Comparison("<", Literal(threshold), ColumnRef(k))
        tree = Select(join, predicate)
        data = {"s": s, "r": r}
        check_rule(SelectPushdown(), tree, data, expect_fire=True)

    @settings(max_examples=60, deadline=None)
    @given(s=s_rows, r=r_rows, threshold=st.integers(0, 3))
    def test_push_selections_pass(self, s, r, threshold):
        from repro.algebra import And

        s_get, k, c = make_s(s)
        r_get, a, b = make_r(r)
        join = Join.cross(s_get, r_get)
        predicate = And([
            equals(a, k),
            Comparison("<", Literal(threshold), ColumnRef(k)),
        ])
        tree = Select(join, predicate)
        data = {"s": s, "r": r}
        baseline = run(tree, data)
        assert run(push_selections(tree), data) == baseline


class TestFactorConjuncts:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.tuples(small, small), min_size=1, max_size=6),
           x=st.integers(0, 3), y=st.integers(0, 3))
    def test_factoring_preserves_3vl(self, values, x, y):
        """(A ∧ p) ∨ (A ∧ q) ≡ A ∧ (p ∨ q) row by row, NULLs included."""
        from repro.algebra import And, Or, conjunction
        from repro.executor.naive import NaiveInterpreter

        a_col = Column("a", DataType.INTEGER, nullable=True)
        b_col = Column("b", DataType.INTEGER, nullable=True)
        common = Comparison("<", Literal(x), ColumnRef(a_col))
        p = Comparison("=", ColumnRef(b_col), Literal(y))
        q = Comparison(">", ColumnRef(b_col), Literal(x))
        original = Or([And([common, p]), And([common, q])])
        factored = conjunction(factor_conjuncts([original]))

        interp = NaiveInterpreter(lambda name: [])
        for a_value, b_value in values:
            env = {a_col.cid: a_value, b_col.cid: b_value}
            assert interp.scalar(original, env) == \
                interp.scalar(factored, env)
