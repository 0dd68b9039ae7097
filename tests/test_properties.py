"""Unit tests for derived properties: keys, FDs, null-rejection, max1row."""

from repro.algebra import (AggregateCall, AggregateFunction, And, Apply,
                           Arithmetic, Case, Column, ColumnRef, Comparison,
                           ConstantScan, DataType, FDSet, Get, GroupBy,
                           IsNull, Join, JoinKind, Literal, Max1row, Not, Or,
                           Project, ScalarGroupBy, Select, Top, derive_fds,
                           derive_keys, equals, functionally_determines,
                           key_within, max_one_row, null_rejected_columns,
                           strict_columns, ColumnSet)

from .helpers import customer_scan, orders_scan


class TestFDSet:
    def test_closure_transitivity(self):
        fds = FDSet()
        fds.add({1}, {2})
        fds.add({2}, {3})
        assert fds.closure({1}) == {1, 2, 3}
        assert fds.determines({1}, {3})
        assert not fds.determines({3}, {1})

    def test_constants_in_closure(self):
        fds = FDSet()
        fds.add_constant(7)
        assert 7 in fds.closure(set())

    def test_equivalence(self):
        fds = FDSet()
        fds.add_equivalence(1, 2)
        assert fds.determines({1}, {2})
        assert fds.determines({2}, {1})

    def test_compound_determinant(self):
        fds = FDSet()
        fds.add({1, 2}, {3})
        assert not fds.determines({1}, {3})
        assert fds.determines({1, 2}, {3})

    def test_project_keeps_contained_fds(self):
        fds = FDSet()
        fds.add({1}, {2, 3})
        projected = fds.project({1, 2})
        assert projected.determines({1}, {2})
        assert not projected.determines({1}, {3})


class TestKeys:
    def test_get_declared_key(self):
        get, (ck, _, _) = customer_scan()
        assert derive_keys(get) == [frozenset({ck.cid})]

    def test_join_combines_keys(self):
        cust, (ck, _, _) = customer_scan()
        orders, (ok, ock, _) = orders_scan()
        join = Join(JoinKind.INNER, cust, orders, equals(ock, ck))
        assert frozenset({ck.cid, ok.cid}) in derive_keys(
            Join(JoinKind.INNER, cust, orders))
        # o_custkey = c_custkey equates customer's key: each order
        # matches one customer, so o_orderkey alone is a key.
        assert derive_keys(join) == [frozenset({ok.cid})]

    def test_foreign_key_join_keeps_only_matched_sides_keys(self):
        cust, (ck, _, nation) = customer_scan()
        orders, (ok, ock, _) = orders_scan()
        flipped = Join(JoinKind.INNER, orders, cust, equals(ck, ock))
        assert derive_keys(flipped) == [frozenset({ok.cid})]
        # Each order keeps one row under LEFT OUTER, matched or padded;
        # a customer's rows repeat per order, and padding repeats NULLs.
        outer = Join(JoinKind.LEFT_OUTER, orders, cust, equals(ock, ck))
        assert derive_keys(outer) == [frozenset({ok.cid})]
        reversed_outer = Join(JoinKind.LEFT_OUTER, cust, orders,
                              equals(ock, ck))
        assert derive_keys(reversed_outer) == [frozenset({ck.cid, ok.cid})]
        # An equality to a column that is no key pins nothing.
        on_nation = Join(JoinKind.INNER, orders, cust, equals(ock, nation))
        assert derive_keys(on_nation) == [frozenset({ok.cid, ck.cid})]

    def test_semi_join_keeps_left_keys(self):
        cust, (ck, _, _) = customer_scan()
        orders, _ = orders_scan()
        join = Join(JoinKind.LEFT_SEMI, cust, orders)
        assert derive_keys(join) == [frozenset({ck.cid})]

    def test_groupby_groups_are_key(self):
        orders, (_, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        assert frozenset({ock.cid}) in derive_keys(gb)

    def test_scalar_groupby_empty_key(self):
        orders, (_, _, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        gb = ScalarGroupBy(orders, [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        assert derive_keys(gb) == [frozenset()]

    def test_project_drops_keys_not_in_output(self):
        cust, (ck, cn, _) = customer_scan()
        proj = Project.passthrough(cust, [cn])
        assert derive_keys(proj) == []
        proj2 = Project.passthrough(cust, [ck, cn])
        assert derive_keys(proj2) == [frozenset({ck.cid})]

    def test_key_within(self):
        cust, (ck, cn, _) = customer_scan()
        assert key_within(cust, ColumnSet.of(ck, cn)) == frozenset({ck.cid})
        assert key_within(cust, ColumnSet.of(cn)) is None

    def test_minimality_filters_supersets(self):
        get, (ck, _, _) = customer_scan()
        top = Top(get, 1)
        assert derive_keys(top) == [frozenset()]


class TestFDDerivation:
    def test_select_equality_adds_fd(self):
        cust, (ck, cn, cnk) = customer_scan()
        sel = Select(cust, equals(cn, cnk))
        fds = derive_fds(sel)
        assert fds.determines({cn.cid}, {cnk.cid})
        assert fds.determines({cnk.cid}, {cn.cid})

    def test_key_determines_everything(self):
        cust, (ck, cn, cnk) = customer_scan()
        assert functionally_determines(
            cust, ColumnSet.of(ck), ColumnSet.of(cn, cnk))

    def test_constant_binding(self):
        cust, (ck, cn, _) = customer_scan()
        sel = Select(cust, equals(cn, Literal("alice")))
        fds = derive_fds(sel)
        assert cn.cid in fds.closure(set())

    def test_projection_computed_column_fd(self):
        cust, (ck, cn, _) = customer_scan()
        twice = Column("twice", DataType.INTEGER)
        proj = Project.extend(cust, [(twice, Arithmetic(
            "*", ColumnRef(ck), Literal(2)))])
        assert derive_fds(proj).determines({ck.cid}, {twice.cid})

    def test_join_equality_propagates(self):
        cust, (ck, _, _) = customer_scan()
        orders, (_, ock, _) = orders_scan()
        join = Join(JoinKind.INNER, cust, orders, equals(ock, ck))
        fds = derive_fds(join)
        assert fds.determines({ock.cid}, {ck.cid})


class TestNullRejection:
    def test_comparison_rejects_both_sides(self):
        a = Column("a", DataType.INTEGER)
        b = Column("b", DataType.INTEGER)
        pred = Comparison("<", ColumnRef(a), ColumnRef(b))
        assert null_rejected_columns(pred) == {a.cid, b.cid}

    def test_paper_example_having_condition(self):
        x = Column("x", DataType.FLOAT)
        pred = Comparison("<", Literal(1000000), ColumnRef(x))
        assert x.cid in null_rejected_columns(pred)

    def test_arithmetic_is_strict(self):
        a = Column("a", DataType.INTEGER)
        expr = Arithmetic("+", ColumnRef(a), Literal(1))
        assert strict_columns(expr) == {a.cid}
        pred = Comparison("=", expr, Literal(5))
        assert a.cid in null_rejected_columns(pred)

    def test_and_unions(self):
        a, b = Column("a", DataType.INTEGER), Column("b", DataType.INTEGER)
        pred = And([Comparison("=", ColumnRef(a), Literal(1)),
                    Comparison("=", ColumnRef(b), Literal(2))])
        assert null_rejected_columns(pred) == {a.cid, b.cid}

    def test_or_intersects(self):
        a, b = Column("a", DataType.INTEGER), Column("b", DataType.INTEGER)
        pred = Or([Comparison("=", ColumnRef(a), Literal(1)),
                   And([Comparison("=", ColumnRef(a), Literal(2)),
                        Comparison("=", ColumnRef(b), Literal(2))])])
        assert null_rejected_columns(pred) == {a.cid}

    def test_is_null_does_not_reject(self):
        a = Column("a", DataType.INTEGER)
        assert null_rejected_columns(IsNull(ColumnRef(a))) == frozenset()
        assert a.cid in null_rejected_columns(
            IsNull(ColumnRef(a), negated=True))

    def test_not_rejects_strict_argument(self):
        a = Column("a", DataType.INTEGER)
        pred = Not(Comparison("=", ColumnRef(a), Literal(1)))
        assert a.cid in null_rejected_columns(pred)

    def test_case_is_not_strict(self):
        a = Column("a", DataType.INTEGER)
        expr = Case([(IsNull(ColumnRef(a)), Literal(0))], Literal(1))
        assert strict_columns(expr) == frozenset()


class TestMaxOneRow:
    def test_scalar_groupby(self):
        orders, (_, _, price) = orders_scan()
        total = Column("t", DataType.FLOAT)
        gb = ScalarGroupBy(orders, [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        assert max_one_row(gb)

    def test_key_equality_lookup(self):
        cust, (ck, cn, _) = customer_scan()
        assert max_one_row(Select(cust, equals(ck, Literal(5))))
        assert not max_one_row(Select(cust, equals(cn, Literal("x"))))

    def test_key_equality_to_outer_parameter(self):
        """The paper's example: customer looked up by key from an order row
        needs no Max1row."""
        cust, (ck, cn, _) = customer_scan()
        _, (_, ock, _) = orders_scan()
        lookup = Select(cust, equals(ck, ock))  # ock is an outer parameter
        assert max_one_row(lookup)

    def test_plain_scan_is_not(self):
        cust, _ = customer_scan()
        assert not max_one_row(cust)

    def test_top_one(self):
        cust, _ = customer_scan()
        assert max_one_row(Top(cust, 1))
        assert not max_one_row(Top(cust, 5))

    def test_constant_scan(self):
        assert max_one_row(ConstantScan([], [()]))
        assert not max_one_row(ConstantScan(
            [Column("x", DataType.INTEGER)], [(1,), (2,)]))

    def test_max1row_itself(self):
        cust, _ = customer_scan()
        assert max_one_row(Max1row(cust))
