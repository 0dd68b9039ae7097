"""Static plan analyzer: invariants, rule legality checks, blame reports,
plan fingerprints, and the strictness-mode plumbing.

The property-style classes push randomized valid queries through the
paper's rewrite machinery — the Section 2.3 identities (1)–(9) via
``normalize``/``remove_applies``, the Section 3 GroupBy-reordering rules
via direct rule application — and assert the analyzer's invariants hold
on every output.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL, Database, DataType
from repro.algebra import (AggregateCall, AggregateFunction, Column,
                           ColumnRef, Comparison, GroupBy, Join, JoinKind,
                           Literal, Project, Select, SegmentRef, equals,
                           plan_fingerprint)
from repro.analysis import (PlanAnalysisWarning, PlanAnalyzer, RULE_CHECKS,
                            STRICT, WARN, verify_batch_layout,
                            verify_logical, verify_oj_simplification,
                            verify_physical)
from repro.core.normalize import normalize
from repro.core.normalize.oj_simplify import simplify_outerjoins
from repro.core.optimizer.rules import (GroupByPullAboveJoin,
                                        GroupByPushBelowJoin,
                                        SemiJoinGroupByReorder,
                                        SemiJoinToJoinDistinct)
from repro.errors import PlanInvariantError
from repro.physical.plan import (PFilter, PIndexSeek, PSegmentApply,
                                 PSegmentRef, PTableScan)
from repro.sql import parse

from .helpers import customer_scan, orders_scan

REORDER_RULES = [GroupByPushBelowJoin(), GroupByPullAboveJoin(),
                 SemiJoinGroupByReorder(), SemiJoinToJoinDistinct()]


def codes(issues):
    return {issue.code for issue in issues}


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("id", DataType.INTEGER, False),
                                ("a", DataType.INTEGER, True),
                                ("b", DataType.INTEGER, True)],
                          primary_key=("id",))
    database.create_table("u", [("id", DataType.INTEGER, False),
                                ("c", DataType.INTEGER, True),
                                ("d", DataType.INTEGER, True)],
                          primary_key=("id",))
    database.insert("t", [(i, i % 3, i % 5) for i in range(30)])
    database.insert("u", [(i, i % 4, i % 7) for i in range(20)])
    return database


# ---------------------------------------------------------------------------
# Logical invariants on constructed trees
# ---------------------------------------------------------------------------

class TestLogicalInvariants:
    def test_valid_tree_is_clean(self):
        cust, (ck, cn, cnk) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        tree = Select(Join(JoinKind.INNER, cust, orders, equals(ock, ck)),
                      Comparison("<", ColumnRef(price), Literal(10.0)))
        assert verify_logical(tree) == []

    def test_unresolved_column_reference(self):
        cust, _ = customer_scan()
        _, (_, _, price) = orders_scan()
        tree = Select(cust, Comparison("<", ColumnRef(price),
                                       Literal(10.0)))
        assert "columns.unresolved" in codes(verify_logical(tree))

    def test_duplicate_output_schema(self):
        cust, (ck, cn, _) = customer_scan()
        tree = Project(cust, [(ck, ColumnRef(ck)),
                              (cn, ColumnRef(ck)),
                              (cn, ColumnRef(ck))])
        assert "schema.duplicate" in codes(verify_logical(tree))

    def test_shadowed_column(self):
        cust, (ck, cn, _) = customer_scan()
        # Reuses the child's c_name identity for a computed value.
        tree = Project.extend(cust, [(cn, ColumnRef(ck))])
        assert "columns.shadowed" in codes(verify_logical(tree))

    def test_correlated_join_input_flagged(self):
        _, (ck, _, _) = customer_scan()
        orders, (ok, ock, _) = orders_scan()
        correlated_right = Select(orders, equals(ock, ck))
        bad = Join(JoinKind.INNER, orders_scan()[0], correlated_right,
                   None)
        assert "scope.correlated-join-input" in codes(verify_logical(bad))

    def test_unbound_segment_ref(self):
        _, (ck, cn, cnk) = customer_scan()
        mirrors = [c.fresh_copy() for c in (ck, cn, cnk)]
        assert "segment.unbound-ref" in codes(
            verify_logical(SegmentRef(mirrors)))

    def test_free_columns_allowed_through_env(self):
        cust, (ck, _, _) = customer_scan()
        orders, (ok, ock, _) = orders_scan()
        correlated = Select(orders, equals(ock, ck))
        assert verify_logical(correlated) != []
        assert verify_logical(correlated,
                              env=frozenset({ck.cid})) == []


class TestPipelineStages:
    def test_bound_tree_with_subqueries_is_clean(self, db):
        sql = ("select a from t where b < "
               "(select max(u.d) from u where u.c = t.a)")
        bound = db._binder.bind(parse(sql))
        assert verify_logical(bound.rel, allow_subqueries=True) == []
        assert "subquery.residual" in codes(verify_logical(bound.rel))

    def test_normalized_tree_is_clean_and_subquery_free(self, db):
        sql = ("select a from t where exists "
               "(select * from u where u.c = t.a)")
        bound = db._binder.bind(parse(sql))
        assert verify_logical(normalize(bound.rel)) == []


# ---------------------------------------------------------------------------
# Physical invariants
# ---------------------------------------------------------------------------

class TestPhysicalInvariants:
    def test_optimized_plan_is_clean(self, db):
        plan = db.plan("select a, count(*) from t, u where a = c group by a")
        assert verify_physical(
            plan, index_provider=db._index_provider) == []

    def test_filter_over_unknown_column_flagged(self):
        cust, (ck, cn, cnk) = customer_scan()
        _, (_, _, price) = orders_scan()
        scan = PTableScan("customer", [ck, cn, cnk])
        bad = PFilter(scan, Comparison("<", ColumnRef(price),
                                       Literal(10.0)))
        assert "columns.unresolved" in codes(verify_physical(bad))

    def test_index_seek_key_arity(self):
        _, (ck, cn, cnk) = customer_scan()
        seek = PIndexSeek("customer", [ck, cn, cnk], [ck],
                          [Literal(1), Literal(2)])
        assert "index.key-arity" in codes(verify_physical(seek))

    def test_index_seek_against_catalog(self):
        _, (ck, cn, cnk) = customer_scan()
        seek = PIndexSeek("customer", [ck, cn, cnk], [cnk], [Literal(1)])

        def provider(table_name):
            return [("c_custkey",)]

        assert "index.no-such-index" in codes(
            verify_physical(seek, index_provider=provider))
        assert "index.no-such-index" not in codes(verify_physical(seek))


# ---------------------------------------------------------------------------
# Outerjoin-simplification lockstep
# ---------------------------------------------------------------------------

class TestOjLockstep:
    def build(self, null_rejecting: bool):
        cust, (ck, _, _) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        loj = Join(JoinKind.LEFT_OUTER, cust, orders, equals(ock, ck))
        predicate = Comparison("<", ColumnRef(price), Literal(10.0)) \
            if null_rejecting else equals(ck, Literal(1))
        return Select(loj, predicate)

    def test_justified_simplification_is_clean(self):
        before = self.build(null_rejecting=True)
        after = simplify_outerjoins(before)
        joins = [n for n in [after.child] if isinstance(n, Join)]
        assert joins and joins[0].kind is JoinKind.INNER
        assert verify_oj_simplification(before, after) == []

    def test_unjustified_flip_is_flagged(self):
        before = self.build(null_rejecting=False)
        loj = before.child
        forged = Select(Join(JoinKind.INNER, loj.left, loj.right,
                             loj.predicate), before.predicate)
        assert "oj.unjustified-simplification" in codes(
            verify_oj_simplification(before, forged))

    def test_shape_change_is_flagged(self):
        before = self.build(null_rejecting=True)
        assert "oj.shape-changed" in codes(
            verify_oj_simplification(before, before.child))


# ---------------------------------------------------------------------------
# Rule-application validation and blame
# ---------------------------------------------------------------------------

def groupby_over_join():
    """GroupBy(Join(orders, customer)) grouping on the customer key —
    admissible for pushdown (c_custkey is a key of the preserved side)."""
    cust, (ck, cn, cnk) = customer_scan()
    orders, (ok, ock, price) = orders_scan()
    total = Column("total", DataType.FLOAT)
    join = Join(JoinKind.INNER, orders, cust, equals(ock, ck))
    gb = GroupBy(join, [ck], [(total, AggregateCall(
        AggregateFunction.SUM, ColumnRef(price)))])
    return gb


class TestRuleApplicationChecks:
    def test_clean_application_passes(self):
        gb = groupby_over_join()
        analyzer = PlanAnalyzer(STRICT)
        applied = GroupByPushBelowJoin().apply(gb, memo=None)
        assert applied
        for result in applied:
            assert analyzer.check_rule_application(
                "groupby_push_below_join", gb, result) == []

    def test_broken_result_raises_with_blame(self):
        gb = groupby_over_join()
        stray = Column("stray", DataType.INTEGER)
        broken = Select(gb, equals(stray, Literal(1)))
        analyzer = PlanAnalyzer(STRICT)
        with pytest.raises(PlanInvariantError) as excinfo:
            analyzer.check_rule_application("groupby_push_below_join",
                                            gb, broken)
        message = str(excinfo.value)
        assert "groupby_push_below_join" in message
        assert "turned valid tree" in message
        assert plan_fingerprint(gb) in message
        assert excinfo.value.blame is not None

    def test_schema_change_is_flagged(self):
        gb = groupby_over_join()
        truncated = Project(gb, [(gb.group_columns[0],
                                  ColumnRef(gb.group_columns[0]))])
        analyzer = PlanAnalyzer(WARN)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlanAnalysisWarning)
            issues = analyzer.check_rule_application(
                "rule_under_test", gb, truncated)
        assert "rule.schema-changed" in codes(issues)

    def test_schema_check_compares_column_sets(self):
        # Memo group members deliver one column set in any order: a
        # reordering passes, a column delivered twice does not.
        gb = groupby_over_join()
        columns = gb.output_columns()
        reordered = Project.passthrough(gb, list(reversed(columns)))
        doubled = Project(gb, [(c, ColumnRef(c)) for c in columns]
                          + [(columns[0], ColumnRef(columns[0]))])
        analyzer = PlanAnalyzer(WARN)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlanAnalysisWarning)
            assert analyzer.check_rule_application(
                "rule_under_test", gb, reordered) == []
            assert "rule.schema-changed" in codes(
                analyzer.check_rule_application("rule_under_test", gb,
                                                doubled))

    def test_semantic_condition_reverified(self):
        # A forged "pushdown" grouping on a non-key column must trip the
        # Section 3 key-containment re-check even though the tree itself
        # is structurally sound.
        cust, (ck, cn, cnk) = customer_scan()
        orders, (ok, ock, price) = orders_scan()
        total = Column("total", DataType.FLOAT)
        join = Join(JoinKind.INNER, orders, cust, equals(ock, cnk))
        gb = GroupBy(join, [cnk], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        inner = GroupBy(orders, [ock], [(total, AggregateCall(
            AggregateFunction.SUM, ColumnRef(price)))])
        forged = Join(JoinKind.INNER, inner, cust, equals(ock, cnk))
        issues = RULE_CHECKS["groupby_push_below_join"](gb, forged)
        assert "groupby.push-no-key" in codes(issues)

    def test_deliberately_broken_rule_caught_end_to_end(self, db,
                                                        monkeypatch):
        """A rule that drops the join predicate is caught at application
        time, with a blame report naming it."""
        from repro.core.optimizer import optimizer as optimizer_module
        from repro.core.optimizer.rules import Rule

        class BrokenRule(Rule):
            name = "test_broken_rule"

            def apply(self, op, memo):
                if isinstance(op, Join) and op.kind is JoinKind.INNER:
                    stray = Column("stray", DataType.INTEGER)
                    return [Join(op.kind, op.left, op.right,
                                 equals(stray, Literal(1)))]
                return []

        monkeypatch.setenv("REPRO_ANALYZE", "strict")
        monkeypatch.setattr(optimizer_module, "DEFAULT_RULES",
                            list(optimizer_module.DEFAULT_RULES)
                            + [BrokenRule()])
        sql = "select a from t, u where a = c"
        with pytest.raises(PlanInvariantError) as excinfo:
            db._optimizer(FULL).optimize(
                normalize(db._binder.bind(parse(sql)).rel))
        message = str(excinfo.value)
        assert "test_broken_rule" in message
        assert "columns.unresolved" in message
        assert "turned valid tree" in message


# ---------------------------------------------------------------------------
# Fingerprints (stable plan hashing)
# ---------------------------------------------------------------------------

class TestPlanFingerprint:
    def test_identical_shape_different_ids_same_fingerprint(self):
        first = groupby_over_join()
        second = groupby_over_join()  # same shape, fresh column ids
        assert first.output_columns()[0].cid != \
            second.output_columns()[0].cid
        assert plan_fingerprint(first) == plan_fingerprint(second)

    def test_different_plans_differ(self):
        gb = groupby_over_join()
        assert plan_fingerprint(gb) != plan_fingerprint(gb.child)

    def test_recompilation_is_deterministic(self, db):
        sql = ("select a, count(*) from t where exists "
               "(select * from u where u.c = t.a) group by a")
        first = plan_fingerprint(db.plan(sql))
        db.plan_cache.invalidate()
        second = plan_fingerprint(db.plan(sql))
        assert first == second

    def test_syntax_independent_golden_plan(self, db):
        spellings = [
            "select a from t where a in (select c from u)",
            "SELECT a FROM t WHERE a IN (SELECT c FROM u)",
        ]
        prints = {plan_fingerprint(db.plan(sql)) for sql in spellings}
        assert len(prints) == 1


# ---------------------------------------------------------------------------
# Regression: SegmentApply construction (found by the analyzer)
# ---------------------------------------------------------------------------

class TestSegmentApplyRegression:
    def test_inner_join_sides_are_disjoint(self, db):
        """_build_segment_apply used to hand the aggregated instance the
        same column identities the left SegmentRef delivers, duplicating
        them in the inner join's output."""
        db.create_index("u_c_idx", "u", ["c"])
        sql = ("select t.a from t, u where t.a = u.c and u.d < "
               "(select 2 * avg(u2.d) from u u2 where u2.c = u.c)")
        plan = db.plan(sql)
        assert verify_physical(
            plan, index_provider=db._index_provider) == []
        bound = db._binder.bind(parse(sql))
        from repro.core.optimizer import segment_alternatives
        for variant in segment_alternatives(normalize(bound.rel)):
            assert verify_logical(variant) == []


# ---------------------------------------------------------------------------
# Property-style: identities (1)-(9) and GroupBy reordering preserve the
# invariants on randomized valid inputs
# ---------------------------------------------------------------------------

op_strategy = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
agg_strategy = st.sampled_from(["sum", "min", "max", "count", "avg"])


@st.composite
def correlated_query(draw):
    """Queries covering the paper's subquery classes: their removal
    exercises every Apply identity the normalizer implements."""
    correlation = draw(st.sampled_from(
        ["u.c = t.a", "u.c < t.b", "u.d = t.b"]))
    inner_extra = draw(st.sampled_from(["", " and u.d > 1"]))
    shape = draw(st.integers(0, 4))
    if shape == 0:
        negated = "not " if draw(st.booleans()) else ""
        predicate = (f"{negated}exists (select * from u where "
                     f"{correlation}{inner_extra})")
    elif shape == 1:
        negated = "not " if draw(st.booleans()) else ""
        predicate = (f"t.a {negated}in (select u.c from u where "
                     f"{correlation}{inner_extra})")
    elif shape == 2:
        agg = draw(agg_strategy)
        arg = "*" if agg == "count" else "u.d"
        predicate = (f"t.b {draw(op_strategy)} (select {agg}({arg}) "
                     f"from u where {correlation}{inner_extra})")
    elif shape == 3:
        quantifier = draw(st.sampled_from(["any", "all"]))
        predicate = (f"t.a {draw(op_strategy)} {quantifier} "
                     f"(select u.c from u where {correlation})")
    else:
        predicate = (f"t.b {draw(op_strategy)} (select u.d from u "
                     f"where u.c = t.a and u.d > 2)")
    grouped = draw(st.booleans())
    if grouped:
        agg = draw(agg_strategy)
        arg = "*" if agg == "count" else "t.b"
        return (f"select t.a, {agg}({arg}) from t where {predicate} "
                f"group by t.a")
    return f"select t.a, t.b from t where {predicate}"


class TestIdentityProperties:
    @settings(max_examples=60, deadline=None)
    @given(sql=correlated_query())
    def test_normalization_preserves_invariants(self, sql):
        db = _shared_db()
        bound = db._binder.bind(parse(sql))
        assert verify_logical(bound.rel, allow_subqueries=True) == []
        normalized = normalize(bound.rel)
        assert verify_logical(normalized) == []

    @settings(max_examples=30, deadline=None)
    @given(sql=correlated_query())
    def test_optimized_plans_preserve_invariants(self, sql):
        db = _shared_db()
        normalized = normalize(db._binder.bind(parse(sql)).rel)
        plan = db._optimizer(FULL).optimize(normalized)
        assert verify_physical(
            plan, index_provider=db._index_provider) == []


@st.composite
def groupby_join_tree(draw):
    """Randomized GroupBy/Join stacks in both reorderable orientations."""
    cust, (ck, cn, cnk) = customer_scan()
    orders, (ok, ock, price) = orders_scan()
    kind = draw(st.sampled_from([JoinKind.INNER, JoinKind.LEFT_OUTER,
                                 JoinKind.LEFT_SEMI, JoinKind.LEFT_ANTI]))
    agg_func = draw(st.sampled_from([AggregateFunction.SUM,
                                     AggregateFunction.MIN,
                                     AggregateFunction.COUNT,
                                     AggregateFunction.AVG]))
    total = Column("total", DataType.FLOAT)
    aggregates = [(total, AggregateCall(agg_func, ColumnRef(price)))]
    if draw(st.booleans()):
        # GroupBy above a join of orders with customer.
        join = Join(kind if kind in (JoinKind.INNER, JoinKind.LEFT_SEMI,
                                     JoinKind.LEFT_ANTI)
                    else JoinKind.INNER, orders, cust, equals(ock, ck))
        group_cols = draw(st.sampled_from([[ock], [ok]])) \
            if join.kind.left_only_output else \
            draw(st.sampled_from([[ck], [ck, ock], [ock]]))
        return GroupBy(join, group_cols, aggregates)
    # Join with a GroupBy input (pull-above / push-semijoin shapes).
    gb = GroupBy(orders, [ock], aggregates)
    if kind.left_only_output:
        return Join(kind, gb, cust, equals(ock, ck))
    return Join(kind, cust, gb, equals(ock, ck))


class TestReorderRuleProperties:
    @settings(max_examples=80, deadline=None)
    @given(tree=groupby_join_tree())
    def test_reorder_rules_preserve_invariants(self, tree):
        analyzer = PlanAnalyzer(STRICT)
        for rule in REORDER_RULES:
            if not rule.matches(tree):
                continue
            for result in rule.apply(tree, memo=None):
                # Raises PlanInvariantError on any violated invariant or
                # Section 3 side condition.
                assert analyzer.check_rule_application(
                    rule.name, tree, result) == []


_DB_SINGLETON = {}


def _shared_db():
    if "db" not in _DB_SINGLETON:
        database = Database()
        database.create_table("t", [("id", DataType.INTEGER, False),
                                    ("a", DataType.INTEGER, True),
                                    ("b", DataType.INTEGER, True)],
                              primary_key=("id",))
        database.create_table("u", [("id", DataType.INTEGER, False),
                                    ("c", DataType.INTEGER, True),
                                    ("d", DataType.INTEGER, True)],
                              primary_key=("id",))
        database.insert("t", [(i, i % 3, i % 5) for i in range(30)])
        database.insert("u", [(i, i % 4, i % 7) for i in range(20)])
        _DB_SINGLETON["db"] = database
    return _DB_SINGLETON["db"]


# ---------------------------------------------------------------------------
# Cache admission and mode plumbing
# ---------------------------------------------------------------------------

class TestAdmissionGate:
    def test_invalid_entry_is_refused(self, db):
        db.execute("select a from t where b > 1")
        entry = db.plan_cache.entries()[0]
        stray = Column("stray", DataType.INTEGER)
        bad_plan = PFilter(entry.plan, equals(stray, Literal(1)))
        from dataclasses import replace
        forged = replace(entry, sql_key="forged", plan=bad_plan)
        before = len(db.plan_cache)
        db.plan_cache.put(forged)
        assert len(db.plan_cache) == before
        assert db.plan_cache.stats.rejected == 1

    def test_mode_off_disables_checks(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "off")
        assert PlanAnalyzer.for_admission() is None
        assert PlanAnalyzer.for_rules() is None

    def test_warn_mode_does_not_raise(self):
        cust, _ = customer_scan()
        _, (_, _, price) = orders_scan()
        bad = Select(cust, Comparison("<", ColumnRef(price),
                                      Literal(10.0)))
        analyzer = PlanAnalyzer(WARN)
        with pytest.warns(PlanAnalysisWarning):
            issues = analyzer.check_logical(bad, stage="test")
        assert issues

    def test_bad_mode_falls_back_to_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "bananas")
        import repro.analysis.analyzer as mod
        monkeypatch.setattr(mod, "_warned_bad_mode", False)
        with pytest.warns(PlanAnalysisWarning):
            assert mod.analysis_mode() == WARN


class TestPositionalOrder:
    """The consumers that read by position get their columns in order."""

    def test_result_order_is_pinned(self):
        cust, columns = customer_scan()
        scan = PTableScan("customer", list(columns))
        assert verify_batch_layout(scan, list(columns)) == []
        issues = verify_batch_layout(scan, list(reversed(columns)))
        assert codes(issues) == {"order.result"}
        assert not PlanAnalyzer(WARN).admissible(
            Project.passthrough(cust, list(reversed(columns))), scan)

    def test_segmented_input_lines_up_with_its_binding(self):
        _, columns = orders_scan()
        mirrors = [c.fresh_copy() for c in columns]
        right = PSegmentRef(mirrors)
        aligned = PTableScan("orders", list(columns))
        plan = PSegmentApply(aligned, right, [columns[1]], mirrors)
        assert verify_batch_layout(plan) == []
        swapped = PTableScan("orders", [columns[1], columns[0], columns[2]])
        plan = PSegmentApply(swapped, right, [columns[1]], mirrors)
        assert codes(verify_batch_layout(plan)) == {"order.segment-input"}
