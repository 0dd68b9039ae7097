"""Experiment E3 — SegmentApply (paper Section 3.4, Figures 6/7).

Shape tests for introduction and join pushdown, plus property-based
semantics preservation: every variant produced by ``segment_alternatives``
must return the same rows as the original tree on randomized data.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL, Database
from repro.algebra import (AggregateCall, AggregateFunction, Arithmetic,
                           Column, ColumnRef, Comparison, DataType, Get,
                           GroupBy, Join, JoinKind, Like, Literal, Project,
                           SegmentApply, Select, collect_nodes, equals,
                           plan_signature)
from repro.core.normalize import normalize
from repro.core.optimizer.pushdown import push_selections
from repro.core.optimizer.segment import (push_join_below_segment_apply,
                                          segment_alternatives)
from repro.executor import NaiveInterpreter
from repro.sql import parse


def run(tree, data):
    return Counter(NaiveInterpreter(lambda name: data[name]).run(tree))


def lineitem_get():
    pk = Column("partkey", DataType.INTEGER, nullable=False)
    qty = Column("qty", DataType.INTEGER, nullable=False)
    price = Column("price", DataType.INTEGER, nullable=False)
    return Get("li", [pk, qty, price], []), pk, qty, price


def part_get():
    pk = Column("p_partkey", DataType.INTEGER, nullable=False)
    brand = Column("p_brand", DataType.INTEGER, nullable=False)
    return Get("part", [pk, brand], [[pk]]), pk, brand


def q17_shape(with_part=True, brand=1):
    """The decorrelated-and-pushed-down Q17 pattern:
    Select(qty < x)(π(Join(outer, G_[l2pk](li2), l2pk = …)))."""
    li, lpk, lqty, lprice = lineitem_get()
    li2, l2pk, l2qty, l2price = lineitem_get()

    avg_out = Column("x", DataType.FLOAT)
    grouped = GroupBy(li2, [l2pk], [(avg_out, AggregateCall(
        AggregateFunction.AVG, ColumnRef(l2qty)))])

    if with_part:
        part, ppk, pbrand = part_get()
        outer = Join(JoinKind.INNER,
                     li,
                     Select(part, equals(pbrand, Literal(brand))),
                     equals(lpk, ppk))
        join = Join(JoinKind.INNER, outer, grouped, equals(l2pk, ppk))
    else:
        join = Join(JoinKind.INNER, li, grouped, equals(l2pk, lpk))

    filtered = Select(join, Comparison(
        "<", ColumnRef(lqty), ColumnRef(avg_out)))
    total = Column("total", DataType.INTEGER)
    return GroupBy(filtered, [], [(total, AggregateCall(
        AggregateFunction.SUM, ColumnRef(lprice)))])


li_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 9), st.integers(1, 5)),
    max_size=14)
part_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2)),
    max_size=5, unique_by=lambda row: row[0])


class TestIntroductionShapes:
    def test_direct_figure6_match(self):
        tree = q17_shape(with_part=False)
        variants = segment_alternatives(tree)
        assert variants
        assert any(collect_nodes(v, lambda n: isinstance(n, SegmentApply))
                   for v in variants)

    def test_figure7_through_intermediate_join(self):
        tree = q17_shape(with_part=True)
        variants = segment_alternatives(tree)
        assert variants
        segment_nodes = [n for v in variants
                         for n in collect_nodes(
                             v, lambda n: isinstance(n, SegmentApply))]
        assert segment_nodes
        # The Figure 7 form keeps the part join INSIDE the segment input.
        assert any(collect_nodes(sa.left, lambda n: isinstance(n, Get)
                                 and n.table_name == "part")
                   for sa in segment_nodes)

    def test_no_match_without_equality(self):
        li, lpk, lqty, lprice = lineitem_get()
        li2, l2pk, l2qty, l2price = lineitem_get()
        avg_out = Column("x", DataType.FLOAT)
        grouped = GroupBy(li2, [l2pk], [(avg_out, AggregateCall(
            AggregateFunction.AVG, ColumnRef(l2qty)))])
        join = Join(JoinKind.INNER, li, grouped,
                    Comparison("<", ColumnRef(lpk), ColumnRef(l2pk)))
        assert segment_alternatives(join) == []

    def test_no_match_for_different_tables(self):
        li, lpk, lqty, lprice = lineitem_get()
        part, ppk, pbrand = part_get()
        avg_out = Column("x", DataType.FLOAT)
        grouped = GroupBy(part, [ppk], [(avg_out, AggregateCall(
            AggregateFunction.AVG, ColumnRef(pbrand)))])
        join = Join(JoinKind.INNER, li, grouped, equals(ppk, lpk))
        assert segment_alternatives(join) == []


class TestSemanticsPreservation:
    @settings(max_examples=60, deadline=None)
    @given(li=li_rows)
    def test_direct_introduction_preserves(self, li):
        tree = q17_shape(with_part=False)
        data = {"li": li, "part": []}
        baseline = run(tree, data)
        for variant in segment_alternatives(tree):
            assert run(variant, data) == baseline

    @settings(max_examples=60, deadline=None)
    @given(li=li_rows, part=part_rows, brand=st.integers(0, 2))
    def test_figure7_preserves(self, li, part, brand):
        tree = q17_shape(with_part=True, brand=brand)
        data = {"li": li, "part": part}
        baseline = run(tree, data)
        variants = segment_alternatives(tree)
        for variant in variants:
            assert run(variant, data) == baseline

    @settings(max_examples=60, deadline=None)
    @given(li=li_rows, part=part_rows)
    def test_join_pushdown_below_segment_apply(self, li, part):
        """Section 3.4.2 as a standalone rewrite: introduce on the bare
        join, then push an outer join below the SegmentApply."""
        li_get, lpk, lqty, lprice = lineitem_get()
        li2, l2pk, l2qty, l2price = lineitem_get()
        avg_out = Column("x", DataType.FLOAT)
        grouped = GroupBy(li2, [l2pk], [(avg_out, AggregateCall(
            AggregateFunction.AVG, ColumnRef(l2qty)))])
        inner_join = Join(JoinKind.INNER, li_get, grouped,
                          equals(l2pk, lpk))
        variants = segment_alternatives(inner_join)
        assert variants
        data = {"li": li, "part": part}

        part_get_op, ppk, pbrand = part_get()
        for variant in variants:
            sas = collect_nodes(variant,
                                lambda n: isinstance(n, SegmentApply))
            if not sas:
                continue
            # wrap: Join(variant, part) on the segment column
            seg_col = sas[0].segment_columns[0]
            outer = Join(JoinKind.INNER, variant, part_get_op,
                         equals(seg_col, ppk))
            baseline = run(outer, data)

            inner_variant = variant
            # variant may be Project(SegmentApply); find the SA child to
            # push into when the join is directly above it.
            if isinstance(inner_variant, Project):
                sa = inner_variant.child
            else:
                sa = inner_variant
            if not isinstance(sa, SegmentApply):
                continue
            direct = Join(JoinKind.INNER, sa, part_get_op,
                          equals(sa.segment_columns[0], ppk))
            pushed = push_join_below_segment_apply(direct, sa, part_get_op)
            assert pushed is not None
            assert run(pushed, data) == run(direct, data)

    def test_pushdown_requires_segment_scope(self):
        """A join predicate touching non-segment inner columns blocks the
        Section 3.4.2 rewrite."""
        li_get, lpk, lqty, lprice = lineitem_get()
        li2, l2pk, l2qty, l2price = lineitem_get()
        avg_out = Column("x", DataType.FLOAT)
        grouped = GroupBy(li2, [l2pk], [(avg_out, AggregateCall(
            AggregateFunction.AVG, ColumnRef(l2qty)))])
        inner_join = Join(JoinKind.INNER, li_get, grouped,
                          equals(l2pk, lpk))
        (variant, *_rest) = segment_alternatives(inner_join)
        sa = variant.child if isinstance(variant, Project) else variant
        assert isinstance(sa, SegmentApply)
        part_get_op, ppk, pbrand = part_get()
        # join on the aggregate output x — not a segment column
        x_col = next(c for c in sa.output_columns() if c.name == "x")
        bad = Join(JoinKind.INNER, sa, part_get_op,
                   Comparison("<", ColumnRef(x_col), ColumnRef(ppk)))
        assert push_join_below_segment_apply(bad, sa, part_get_op) is None


class TestLiteralsSeparateInstances:
    """Two instances match only if their string literals agree.  The
    plan signature once renamed ``#<digits>`` inside literals as if it
    were a column id, so ``'B#1'`` and ``'B#2'`` printed alike and the
    Q17-shaped query below was segmented across two different brands."""

    ITEMS = [(1, 1, 1), (2, 1, 5), (3, 2, 1), (4, 2, 9), (5, 1, 3),
             (6, 2, 3)]
    SQL = ("select count(*) from item i1, prod p1 "
           "where p1.pk = i1.pk and p1.brand = '{outer}' "
           "and i1.qty < (select avg(i2.qty) from item i2, prod p2 "
           "where p2.pk = i2.pk and p2.brand = '{inner}' "
           "and i2.pk = i1.pk)")

    def _variants(self, outer, inner):
        db = Database()
        db.create_table("item", [("ik", DataType.INTEGER, False),
                                 ("pk", DataType.INTEGER, False),
                                 ("qty", DataType.INTEGER, False)],
                        primary_key=["ik"])
        db.create_table("prod", [("pk", DataType.INTEGER, False),
                                 ("brand", DataType.VARCHAR, False)],
                        primary_key=["pk"])
        prods = [(1, outer), (2, inner)]
        sql = self.SQL.format(outer=outer.replace("'", "''"),
                              inner=inner.replace("'", "''"))
        bound = db._binder.bind(parse(sql)).rel
        rel = push_selections(normalize(bound, FULL.normalize_config))
        data = {"item": self.ITEMS, "prod": prods}
        return rel, segment_alternatives(rel), data

    @pytest.mark.parametrize("outer,inner", [("B#1", "B#2"), ("B1", "B2"),
                                             ("it's#1", "it's#2")])
    def test_different_literals_are_not_segmented(self, outer, inner):
        rel, variants, data = self._variants(outer, inner)
        assert run(rel, data) == Counter([(0,)])
        assert variants == []

    def test_equal_literals_still_segment(self):
        rel, variants, data = self._variants("B#1", "B#1")
        assert variants
        for variant in variants:
            assert run(variant, data) == run(rel, data) == Counter([(3,)])

    def test_signature_keeps_literal_text(self):
        brand = Column("brand", DataType.VARCHAR)
        prod = Get("prod", [brand], [])

        def signature(predicate):
            return plan_signature(Select(prod, predicate))

        assert signature(equals(brand, Literal("it's#1"))) == \
            "Select(brand#c1 = 'it''s#1')\n  Get(prod)"
        assert signature(Like(ColumnRef(brand), "it's#1%")) == \
            "Select(brand#c1 LIKE 'it''s#1%')\n  Get(prod)"
        assert signature(equals(brand, Literal("B#1"))) != \
            signature(equals(brand, Literal("B#2")))
