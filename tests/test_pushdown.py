"""Dedicated tests for selection pushdown, OR-conjunct factoring and the
single-input filters implied by a cross-input OR."""

import pytest

import itertools

from repro.algebra import (And, Arithmetic, Column, ColumnRef, Comparison,
                           DataType, Get, InList, IsNull, Join, JoinKind,
                           Literal, Max1row, Or, Select, Top, collect_nodes,
                           conjunction, equals)
from repro.core.optimizer.pushdown import (factor_conjuncts, implied_filter,
                                           push_selections)
from repro.executor.naive import NaiveInterpreter

from .helpers import customer_scan, orders_scan


def cmp(col, op, value):
    return Comparison(op, ColumnRef(col), Literal(value))


class TestFactorConjuncts:
    def _cols(self):
        a = Column("a", DataType.INTEGER)
        b = Column("b", DataType.INTEGER)
        return a, b

    def test_common_conjunct_hoisted(self):
        a, b = self._cols()
        common = cmp(a, "=", 1)
        part = Or([And([common, cmp(b, "=", 2)]),
                   And([common, cmp(b, "=", 3)])])
        result = factor_conjuncts([part])
        assert common in result
        assert len(result) == 2  # common + residual OR

    def test_flattens_nested_or(self):
        a, b = self._cols()
        common = cmp(a, "=", 1)
        nested = Or([Or([And([common, cmp(b, "=", 2)]),
                         And([common, cmp(b, "=", 3)])]),
                     And([common, cmp(b, "=", 4)])])
        result = factor_conjuncts([nested])
        assert common in result

    def test_no_common_part_untouched(self):
        a, b = self._cols()
        part = Or([cmp(a, "=", 1), cmp(b, "=", 2)])
        assert factor_conjuncts([part]) == [part]

    def test_whole_branch_common(self):
        """(A) ∨ (A ∧ q) reduces to A (the residual OR carries TRUE)."""
        from repro.algebra import conjunction
        from repro.executor.naive import NaiveInterpreter

        a, b = self._cols()
        common = cmp(a, ">", 0)
        part = Or([common, And([common, cmp(b, "=", 1)])])
        factored = conjunction(factor_conjuncts([part]))
        interp = NaiveInterpreter(lambda name: [])
        for a_val in (None, 0, 1):
            for b_val in (None, 1, 2):
                env = {a.cid: a_val, b.cid: b_val}
                assert interp.scalar(part, env) == \
                    interp.scalar(factored, env)

    def test_non_or_conjuncts_pass_through(self):
        a, b = self._cols()
        parts = [cmp(a, "=", 1), cmp(b, "<", 5)]
        assert factor_conjuncts(parts) == parts


class TestPushdownStructure:
    def test_q19_shape_exposes_equijoin(self):
        """The Q19 pattern: OR of ANDs each containing the same equality
        conjunct — after factoring the join gets an equi predicate."""
        li, (lk, lqty, lprice) = _li()
        part, (pk, psize) = _part()
        branch1 = And([equals(pk, lk), cmp(lqty, "<", 10),
                       cmp(psize, "<", 5)])
        branch2 = And([equals(pk, lk), cmp(lqty, ">=", 10),
                       cmp(psize, ">=", 5)])
        tree = Select(Join.cross(li, part), Or([branch1, branch2]))
        pushed = push_selections(tree)
        (join,) = collect_nodes(pushed, lambda n: isinstance(n, Join))
        assert join.predicate is not None
        assert "=" in join.predicate.sql()

    def test_blocked_below_top(self):
        cust, (ck, _, _) = customer_scan()
        tree = Select(Top(cust, 2), equals(ck, Literal(1)))
        pushed = push_selections(tree)
        assert isinstance(pushed, Select)
        assert isinstance(pushed.child, Top)

    def test_blocked_below_max1row(self):
        cust, (ck, _, _) = customer_scan()
        tree = Select(Max1row(cust), equals(ck, Literal(1)))
        pushed = push_selections(tree)
        assert isinstance(pushed, Select)
        assert isinstance(pushed.child, Max1row)

    def test_semi_join_on_clause_right_side_sinks(self):
        cust, (ck, _, _) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        pred = And([equals(ock, ck), cmp(price, ">", 10.0)])
        tree = Join(JoinKind.LEFT_SEMI, cust, orders, pred)
        pushed = push_selections(tree)
        (join,) = collect_nodes(pushed, lambda n: isinstance(n, Join)
                                and n.kind is JoinKind.LEFT_SEMI)
        assert isinstance(join.right, Select)

    def test_union_branch_translation(self):
        from repro.algebra import UnionAll

        a = Get("a", [Column("x", DataType.INTEGER, False)], [])
        b = Get("b", [Column("y", DataType.INTEGER, False)], [])
        union = UnionAll.from_inputs([a, b])
        (out,) = union.output_columns()
        tree = Select(union, cmp(out, ">", 3))
        pushed = push_selections(tree)
        selects = collect_nodes(pushed, lambda n: isinstance(n, Select))
        assert len(selects) == 2  # one per branch, remapped


class TestImpliedFilters:
    """A disjunction that reads both join inputs stays on the join and
    sends each input ``OR over branches of (its branch-local conjuncts)``."""

    def _tables(self):
        t_a = Column("t_a", DataType.INTEGER)
        t_b = Column("t_b", DataType.INTEGER)
        s_a = Column("s_a", DataType.INTEGER)
        s_b = Column("s_b", DataType.INTEGER)
        return (Get("t", [t_a, t_b], []), Get("s", [s_a, s_b], []),
                (t_a, t_b, s_a, s_b))

    def _filters(self, pushed, table):
        """Predicates of the Selects sitting right on Get(``table``)."""
        return [n.predicate for n in collect_nodes(
            pushed, lambda n: isinstance(n, Select)
            and getattr(n.child, "table_name", None) == table)]

    def test_q7_shape_derives_one_filter_per_input(self):
        """(n1 = F ∧ n2 = G) ∨ (n1 = G ∧ n2 = F): each nation instance is
        filtered to {F, G} and the pair test stays on the join."""
        t, s, (t_a, _, s_a, _) = self._tables()
        pair = Or([And([cmp(t_a, "=", 1), cmp(s_a, "=", 2)]),
                   And([cmp(t_a, "=", 2), cmp(s_a, "=", 1)])])
        pushed = push_selections(Select(Join.cross(t, s), pair))
        (join,) = collect_nodes(pushed, lambda n: isinstance(n, Join))
        assert join.predicate == pair
        assert self._filters(pushed, "t") == [
            Or([cmp(t_a, "=", 1), cmp(t_a, "=", 2)])]
        assert self._filters(pushed, "s") == [
            Or([cmp(s_a, "=", 2), cmp(s_a, "=", 1)])]

    def test_q19_shape_derives_filters_for_both_inputs(self):
        li, (lk, lqty, _) = _li()
        part, (pk, psize) = _part()
        branch1 = And([equals(pk, lk), cmp(lqty, "<", 10),
                       cmp(psize, "<", 5)])
        branch2 = And([equals(pk, lk), cmp(lqty, ">=", 10),
                       cmp(psize, ">=", 5)])
        pushed = push_selections(Select(Join.cross(li, part),
                                        Or([branch1, branch2])))
        (join,) = collect_nodes(pushed, lambda n: isinstance(n, Join))
        assert equals(pk, lk) in join.predicate.args
        assert Or([cmp(lqty, "<", 10), cmp(psize, "<", 5)]).sql() not in \
            join.predicate.sql()
        assert self._filters(pushed, "lineitem") == [
            Or([cmp(lqty, "<", 10), cmp(lqty, ">=", 10)])]
        assert self._filters(pushed, "part") == [
            Or([cmp(psize, "<", 5), cmp(psize, ">=", 5)])]

    def test_branch_without_local_conjunct_derives_nothing(self):
        t, s, (t_a, t_b, s_a, _) = self._tables()
        pred = Or([And([cmp(t_a, "=", 1), cmp(s_a, "=", 2)]),
                   cmp(s_a, "=", 3)])
        assert implied_filter(pred, t) is None
        assert implied_filter(pred, s) == Or([cmp(s_a, "=", 2),
                                              cmp(s_a, "=", 3)])
        pushed = push_selections(Select(Join.cross(t, s), pred))
        assert self._filters(pushed, "t") == []
        assert self._filters(pushed, "s") == [implied_filter(pred, s)]

    def test_division_is_not_derived(self):
        """A conjunct that can raise is never run on rows the OR did not
        see: t_a / t_b raises where t_b = 0."""
        t, s, (t_a, t_b, s_a, _) = self._tables()
        ratio = Comparison(">", Arithmetic("/", ColumnRef(t_a),
                                           ColumnRef(t_b)), Literal(1))
        pred = Or([And([ratio, cmp(s_a, "=", 1)]),
                   And([cmp(t_a, "=", 2), cmp(s_a, "=", 2)])])
        assert implied_filter(pred, t) is None
        pushed = push_selections(Select(Join.cross(t, s), pred))
        assert self._filters(pushed, "t") == []
        # Only the cannot-raise part of a branch is taken.
        mixed = Or([And([ratio, cmp(t_b, "=", 0), cmp(s_a, "=", 1)]),
                    And([cmp(t_a, "=", 2), cmp(s_a, "=", 2)])])
        assert implied_filter(mixed, t) == Or([cmp(t_b, "=", 0),
                                               cmp(t_a, "=", 2)])

    @pytest.mark.parametrize("kind", [JoinKind.LEFT_OUTER,
                                      JoinKind.LEFT_SEMI,
                                      JoinKind.LEFT_ANTI])
    def test_non_inner_joins_unchanged(self, kind):
        t, s, (t_a, _, s_a, _) = self._tables()
        pred = Or([And([cmp(t_a, "=", 1), cmp(s_a, "=", 2)]),
                   And([cmp(t_a, "=", 2), cmp(s_a, "=", 1)])])
        tree = Join(kind, t, s, pred)
        assert repr(push_selections(tree)) == repr(tree)
        if kind is JoinKind.LEFT_OUTER:
            above = Select(Join(kind, t, s, None), pred)
            assert repr(push_selections(above)) == repr(above)

    def test_original_and_implied_is_original(self):
        """Three-valued: wherever the OR is TRUE, FALSE or NULL, so is
        ``OR ∧ implied`` — the implied filter removes only rows the OR
        rejects anyway."""
        t, s, (t_a, t_b, s_a, s_b) = self._tables()
        predicates = [
            Or([And([cmp(t_a, "=", 1), cmp(s_a, "=", 0)]),
                And([cmp(t_a, "=", 0), cmp(s_a, "=", 1)])]),
            Or([And([IsNull(ColumnRef(t_a)), cmp(t_b, "<", 1),
                     cmp(s_a, "<>", 0)]),
                And([InList(ColumnRef(t_b), [0, None]),
                     IsNull(ColumnRef(s_b), negated=True)]),
                And([cmp(t_a, ">=", 1), cmp(s_b, "=", 0),
                     Or([cmp(t_b, "=", 1), cmp(s_a, "=", 1)])])]),
            Or([And([InList(ColumnRef(t_a), [1, None], negated=True),
                     Comparison("=", ColumnRef(t_b), ColumnRef(s_b))]),
                And([cmp(t_b, "=", 1), cmp(s_a, "=", 1)])]),
        ]
        interp = NaiveInterpreter(lambda name: [])
        columns = (t_a, t_b, s_a, s_b)
        for pred in predicates:
            implied = [implied_filter(pred, side) for side in (t, s)]
            assert implied[0] is not None
            combined = conjunction([pred] + [i for i in implied if i])
            for values in itertools.product((None, 0, 1), repeat=4):
                env = {c.cid: v for c, v in zip(columns, values)}
                assert interp.scalar(combined, env) == \
                    interp.scalar(pred, env), (pred.sql(), values)


def _li():
    lk = Column("l_partkey", DataType.INTEGER, False)
    lqty = Column("l_quantity", DataType.INTEGER, False)
    lprice = Column("l_price", DataType.FLOAT, False)
    return Get("lineitem", [lk, lqty, lprice], []), (lk, lqty, lprice)


def _part():
    pk = Column("p_partkey", DataType.INTEGER, False)
    psize = Column("p_size", DataType.INTEGER, False)
    return Get("part", [pk, psize], [[pk]]), (pk, psize)
