"""The batched Apply on hand-built physical plans.

The differential sweep (test_differential.py) drives the batched path
through SQL; this module builds the plans the optimizer rarely or never
emits — every Apply kind over every inner operator, nested Applies whose
outer side is itself batched, uncorrelated and guarded Applies — and
pins the engine-internal contracts: which shapes batch and which send
the statement to the tuple engine, logical (de-duplicated) accounting in
the profile and the governor, and the error rule: a statement that
raises on the vectorized engine re-runs on the tuple engine, counted
once.
"""

import itertools

import pytest

from repro.algebra import (AggregateCall, AggregateFunction, And, Arithmetic,
                           Column, ColumnRef, Comparison, DataType,
                           JoinKind, Literal)
from repro.catalog import ColumnDef, IndexDef, TableDef
from repro.errors import (ExecutionError, ResourceExhausted,
                          SubqueryReturnedMultipleRows)
from repro.executor import VectorizedExecutor
from repro.executor.batched_apply import compile_batched_apply
from repro.executor.physical import ExecutionContext, PhysicalExecutor
from repro.feedback import collect, tree_dict
from repro.governor import ResourceGovernor
from repro.physical.plan import (PFilter, PHashAggregate, PHashJoin,
                                 PIndexSeek, PMax1row, PNLApply, PProject,
                                 PScalarAggregate, PSegmentRef, PSort,
                                 PStreamAggregate, PTableScan, PTop, PTopN,
                                 PUnionAll, apply_bindings_key,
                                 outer_references)
from repro.storage import Storage

KINDS = (JoinKind.INNER, JoinKind.LEFT_OUTER, JoinKind.LEFT_SEMI,
         JoinKind.LEFT_ANTI)
BATCH_SIZES = (1, 3, 1024)

#: Outer rows: duplicate-heavy and NULL-bearing in ``a`` (the binding).
T_ROWS = [(1, 1, 0), (2, 1, 1), (3, None, 0), (4, 2, 1), (5, 1, 0),
          (6, 0, 1), (7, 2, None), (8, None, None), (9, 3, 1), (10, 1, 0)]
#: Inner rows: ``x`` 1 and 2 repeat (Max1row violations), 3 is unique,
#: 0 never occurs (empty groups), NULL never matches.
S_ROWS = [(1, 1, 30), (2, 2, 5), (3, None, 40), (4, 1, 10), (5, 3, 40),
          (6, None, None), (7, 2, 20), (8, 1, None)]


def make_storage(index_kind="hash") -> Storage:
    storage = Storage(chunk_rows=4)
    t = storage.create(TableDef(
        "t", [ColumnDef("id", DataType.INTEGER, False),
              ColumnDef("a", DataType.INTEGER, True),
              ColumnDef("b", DataType.INTEGER, True)],
        primary_key=("id",)))
    s = storage.create(TableDef(
        "s", [ColumnDef("sid", DataType.INTEGER, False),
              ColumnDef("x", DataType.INTEGER, True),
              ColumnDef("y", DataType.INTEGER, True)],
        primary_key=("sid",)))
    t.insert_many(T_ROWS)
    s.insert_many(S_ROWS)
    s.add_index(IndexDef("s_x", "s", ("x",), index_kind))
    return storage


class Plans:
    """Fresh column identities plus the plan fragments tests combine."""

    def __init__(self) -> None:
        self.tid, self.ta, self.tb = (
            Column("id", DataType.INTEGER, False),
            Column("a", DataType.INTEGER), Column("b", DataType.INTEGER))
        self.outer = PTableScan("t", [self.tid, self.ta, self.tb])

    def s_cols(self):
        return [Column("sid", DataType.INTEGER, False),
                Column("x", DataType.INTEGER), Column("y", DataType.INTEGER)]

    def seek(self, key=None, residual=None):
        cols = self.s_cols()
        plan = PIndexSeek("s", cols, [cols[1]],
                          [ColumnRef(self.ta) if key is None else key],
                          residual=residual(cols) if residual else None)
        return plan, cols

    def correlated_scan(self, extra=None):
        cols = self.s_cols()
        predicate = Comparison("=", ColumnRef(cols[1]), ColumnRef(self.ta))
        if extra is not None:
            predicate = And([predicate, extra(cols)])
        return PFilter(PTableScan("s", cols), predicate), cols


def count_star():
    return (Column("n", DataType.INTEGER, False),
            AggregateCall(AggregateFunction.COUNT_STAR))


def agg(func, column, name="v"):
    return (Column(name, DataType.INTEGER),
            AggregateCall(func, ColumnRef(column)))


def inner_shapes(p: Plans) -> dict:
    """Inner sides, every one correlated on ``t.a``."""
    shapes = {}
    seek, cols = p.seek()
    shapes["seek"] = seek
    seek, cols = p.seek(residual=lambda c: Comparison(
        ">", ColumnRef(c[2]), ColumnRef(p.tb)))
    shapes["seek_residual"] = seek
    scan, cols = p.correlated_scan()
    shapes["scan"] = scan
    scan, cols = p.correlated_scan(lambda c: Comparison(
        ">", ColumnRef(c[2]), Literal(5)))
    shapes["scan_rest"] = scan
    seek, cols = p.seek()
    shapes["project"] = PProject(seek, [
        (Column("z", DataType.INTEGER),
         Arithmetic("+", ColumnRef(cols[2]), ColumnRef(p.ta)))])
    seek, cols = p.seek()
    shapes["scalar_agg"] = PScalarAggregate(seek, [
        count_star(), agg(AggregateFunction.SUM, cols[2]),
        agg(AggregateFunction.MIN, cols[2], "lo")])
    scan, cols = p.correlated_scan()
    shapes["scalar_agg_scan"] = PScalarAggregate(scan, [count_star()])
    seek, cols = p.seek()
    shapes["hash_agg"] = PHashAggregate(seek, [cols[2]], [count_star()])
    seek, cols = p.seek()
    shapes["stream_agg"] = PStreamAggregate(
        PSort(seek, [(ColumnRef(cols[2]), True)]), [cols[2]],
        [count_star()])
    seek, cols = p.seek()
    shapes["topn"] = PTopN(seek, [(ColumnRef(cols[2]), False),
                                  (ColumnRef(cols[0]), True)], 2, 1)
    seek, cols = p.seek()
    shapes["topn_one_key"] = PTopN(seek, [(ColumnRef(cols[0]), False)], 1)
    seek, cols = p.seek()
    shapes["sort"] = PSort(seek, [(ColumnRef(cols[2]), True)])
    seek, cols = p.seek()
    shapes["top"] = PTop(seek, 1, 1)
    seek, cols = p.seek()
    shapes["max1row"] = PMax1row(seek)
    first, cols1 = p.seek()
    second, cols2 = p.correlated_scan()
    out = [Column(n, DataType.INTEGER) for n in ("sid", "x", "y")]
    shapes["union_all"] = PUnionAll([first, second], out, [cols1, cols2])
    return shapes


def trace(plan, profile):
    out = []

    def visit(node):
        out.append((node["actual_rows"], node.get("apply_bindings")))
        for child in node["children"]:
            visit(child)
    visit(tree_dict(plan, profile))
    return out


def run(executor, plan, governor=None):
    profile = {}
    try:
        rows = executor.run_prepared(executor.prepare(plan), None, governor,
                                     profile=profile)
    except SubqueryReturnedMultipleRows:
        return "max1row error", None
    return rows, trace(plan, profile)


def assert_same(storage, plan, counts=True):
    expected_rows, expected_trace = run(PhysicalExecutor(storage), plan)
    for batch_size in BATCH_SIZES:
        rows, actuals = run(VectorizedExecutor(storage, batch_size), plan)
        assert rows == expected_rows, batch_size
        if counts:
            assert actuals == expected_trace, batch_size
    return expected_rows


def is_batched(storage, apply_plan) -> bool:
    return compile_batched_apply(storage, apply_plan) is not None


class TestEveryKindOverEveryInnerShape:
    @pytest.mark.parametrize("index_kind", ["hash", "ordered"])
    def test_rows_and_actuals_match_the_tuple_engine(self, index_kind):
        storage = make_storage(index_kind)
        for kind in KINDS:
            p = Plans()
            for name, inner in inner_shapes(p).items():
                plan = PNLApply(kind, p.outer, inner)
                # Below a per-binding Top the vectorized engine counts a
                # drained child, as it does below every other Top.
                assert_same(storage, plan, counts=name != "top")

    def test_residual_predicate_on_the_apply(self):
        storage = make_storage()
        for kind in KINDS:
            p = Plans()
            seek, cols = p.seek()
            predicate = Comparison("<>", ColumnRef(cols[2]),
                                   Arithmetic("*", ColumnRef(p.tid),
                                              Literal(10)))
            assert_same(storage, PNLApply(kind, p.outer, seek, predicate))

    def test_guard_skips_the_inner_side(self):
        storage = make_storage()
        p = Plans()
        seek, _ = p.seek()
        guard = Comparison("=", ColumnRef(p.tb), Literal(0))
        # Guarded-out rows (b <> 0) never evaluate the Max1row subquery;
        # a = 1 repeats in s, so only the guard keeps ids 2 and 4 alive.
        plan = PNLApply(JoinKind.LEFT_OUTER, p.outer, PMax1row(seek),
                        guard=guard)
        assert is_batched(storage, plan)
        rows, _ = run(PhysicalExecutor(storage), plan)
        assert rows == "max1row error"
        agg_plan = PNLApply(JoinKind.LEFT_OUTER, p.outer,
                            PScalarAggregate(p.seek()[0], [count_star()]),
                            guard=guard)
        rows = assert_same(storage, agg_plan)
        assert [r[3] for r in rows] == [3, None, 0, None, 3, None, None,
                                        None, None, 3]

    def test_guard_that_rejects_every_row_never_opens_the_inner(self):
        storage = make_storage()
        p = Plans()
        seek, _ = p.seek()
        plan = PNLApply(JoinKind.LEFT_OUTER, p.outer, seek,
                        guard=Comparison("<", ColumnRef(p.tid), Literal(0)))
        assert_same(storage, plan)
        profile = {}
        vec = VectorizedExecutor(storage)
        vec.run_prepared(vec.prepare(plan), profile=profile)
        assert id(seek) not in profile
        assert profile[apply_bindings_key(plan)] == 0

    def test_uncorrelated_inner_runs_once_per_batch(self):
        storage = make_storage()
        p = Plans()
        cols = p.s_cols()
        inner = PScalarAggregate(
            PFilter(PTableScan("s", cols),
                    Comparison(">", ColumnRef(cols[2]), Literal(10))),
            [count_star()])
        guard = Comparison("=", ColumnRef(p.tb), Literal(1))
        plan = PNLApply(JoinKind.LEFT_OUTER, p.outer, inner, guard=guard)
        assert is_batched(storage, plan)
        rows = assert_same(storage, plan)
        assert {r[3] for r in rows} == {4, None}


class TestNestedApply:
    def nested(self, p, kind):
        """t ⋈ (s1 seek on t.a) ⋈ (count of s2 seek on s1.y and t.b):
        the innermost side reads both enclosing Applies' columns."""
        mid, mid_cols = p.seek()
        cols = p.s_cols()
        innermost = PScalarAggregate(
            PIndexSeek("s", cols, [cols[1]], [ColumnRef(mid_cols[1])],
                       residual=Comparison(">=", ColumnRef(cols[2]),
                                           ColumnRef(p.tb))),
            [count_star()])
        return PNLApply(kind, p.outer,
                        PNLApply(JoinKind.INNER, mid, innermost))

    def test_nested_apply_batches_and_matches(self):
        storage = make_storage()
        for kind in (JoinKind.INNER, JoinKind.LEFT_OUTER):
            p = Plans()
            plan = self.nested(p, kind)
            assert is_batched(storage, plan)
            assert_same(storage, plan)

    def test_nested_apply_below_an_early_stopping_kind_loops(self):
        storage = make_storage()
        p = Plans()
        plan = self.nested(p, JoinKind.LEFT_SEMI)
        assert not is_batched(storage, plan)
        assert_same(storage, plan)

    def test_nested_semi_apply_counts_logical_rows(self):
        storage = make_storage()
        p = Plans()
        mid, mid_cols = p.seek()
        cols = p.s_cols()
        probe = PIndexSeek("s", cols, [cols[1]], [ColumnRef(mid_cols[2])])
        plan = PNLApply(JoinKind.LEFT_OUTER, p.outer,
                        PNLApply(JoinKind.LEFT_ANTI, mid, probe))
        assert is_batched(storage, plan)
        assert_same(storage, plan)


class TestWhichShapesBatch:
    def test_inner_operators_without_a_batched_form(self):
        storage = make_storage()
        p = Plans()
        cols, more = p.s_cols(), p.s_cols()
        join = PHashJoin(JoinKind.INNER, p.seek()[0], PTableScan("s", more),
                         [ColumnRef(cols[0])], [ColumnRef(more[0])])
        segment = PSegmentRef(cols)
        scan = PTableScan("s", p.s_cols())  # one table copy per binding
        inequality = PFilter(PTableScan("s", cols), Comparison(
            "<", ColumnRef(cols[1]), ColumnRef(p.ta)))
        for inner in (join, segment, inequality):
            assert not is_batched(
                storage, PNLApply(JoinKind.INNER, p.outer, inner))
        seek, seek_cols = p.seek()
        correlated = PUnionAll([seek, scan], p.s_cols(),
                               [seek_cols, scan.columns])
        assert not is_batched(
            storage, PNLApply(JoinKind.INNER, p.outer, correlated))

    def test_unbatchable_apply_runs_on_the_tuple_engine(self):
        """Decided at prepare time: the executable holds no batch source,
        and rows, actuals and ``rows_examined`` are the tuple engine's."""
        storage = make_storage()
        p = Plans()
        seek, seek_cols = p.seek()
        more = p.s_cols()
        join = PHashJoin(JoinKind.INNER, seek, PTableScan("s", more),
                         [ColumnRef(seek_cols[0])], [ColumnRef(more[0])])
        plan = PProject(PNLApply(JoinKind.INNER, p.outer, join),
                        [(Column("k", DataType.INTEGER), ColumnRef(p.tid))])
        assert not is_batched(storage, plan.child)
        executable = VectorizedExecutor(storage).prepare(plan)
        assert executable.batches is None and executable.row is not None
        expected = ResourceGovernor()
        expected_run = run(PhysicalExecutor(storage), plan, expected)
        assert expected_run[0]
        for batch_size in BATCH_SIZES:
            governor = ResourceGovernor()
            assert run(VectorizedExecutor(storage, batch_size), plan,
                       governor) == expected_run
            assert governor.rows_examined == expected.rows_examined

    def test_early_stop_is_only_batched_at_the_inner_root(self):
        storage = make_storage()
        for kind, expected in ((JoinKind.LEFT_SEMI, False),
                               (JoinKind.LEFT_ANTI, False),
                               (JoinKind.INNER, True)):
            p = Plans()
            for inner in (p.correlated_scan()[0], PTop(p.seek()[0], 1)):
                assert is_batched(
                    storage, PNLApply(kind, p.outer, inner)) is expected

    def test_guard_on_a_non_outer_apply_loops(self):
        storage = make_storage()
        p = Plans()
        plan = PNLApply(JoinKind.INNER, p.outer, p.seek()[0],
                        guard=Comparison(">", ColumnRef(p.tid), Literal(5)))
        assert not is_batched(storage, plan)
        assert_same(storage, plan)

    def test_missing_index_is_a_prepare_time_error(self):
        storage = make_storage()
        p = Plans()
        cols = p.s_cols()
        seek = PIndexSeek("s", cols, [cols[2]], [ColumnRef(p.ta)])
        with pytest.raises(ExecutionError, match="no index"):
            VectorizedExecutor(storage).prepare(
                PNLApply(JoinKind.INNER, p.outer, seek))

    def test_outer_references(self):
        p = Plans()
        seek, cols = p.seek(residual=lambda c: Comparison(
            ">", ColumnRef(c[2]), ColumnRef(p.tb)))
        assert outer_references(seek) == {p.ta.cid, p.tb.cid}
        apply_plan = PNLApply(JoinKind.INNER, p.outer, seek)
        assert outer_references(apply_plan) == frozenset()
        assert outer_references(p.outer) == frozenset()


class TestErrorReplay:
    def test_error_surfaces_after_the_rows_before_it(self):
        storage = make_storage()
        p = Plans()
        plan = PNLApply(JoinKind.LEFT_OUTER, p.outer,
                        PMax1row(p.seek()[0]))
        vec = VectorizedExecutor(storage, batch_size=1024)
        executable = vec.prepare(PTop(plan, 3))
        # Outer row 1 (a = 1) violates Max1row at its *second* inner
        # row, after emitting the first — exactly the tuple engine.
        assert run(PhysicalExecutor(storage), PTop(plan, 1))[0] == \
            vec.run_prepared(vec.prepare(PTop(plan, 1)))
        with pytest.raises(SubqueryReturnedMultipleRows):
            vec.run_prepared(executable)

    def test_replay_keeps_tuple_engine_laziness(self):
        # A semi probe stops at its first match, so Max1row never sees
        # the second row: the batched attempt raises, the replay does not.
        storage = make_storage()
        p = Plans()
        plan = PNLApply(JoinKind.LEFT_SEMI, p.outer, PMax1row(p.seek()[0]))
        assert is_batched(storage, plan)
        rows = assert_same(storage, plan)
        assert [r[0] for r in rows] == [1, 2, 4, 5, 7, 9, 10]

    def test_failed_batch_leaves_no_counts_or_charges_behind(self):
        storage = make_storage()
        p = Plans()
        plan = PNLApply(JoinKind.LEFT_SEMI, p.outer,
                        PMax1row(p.seek()[0]))
        expected = ResourceGovernor()
        run(PhysicalExecutor(storage), plan, expected)
        for batch_size in BATCH_SIZES:
            governor = ResourceGovernor()
            run(VectorizedExecutor(storage, batch_size), plan, governor)
            assert governor.rows_examined == expected.rows_examined


class TestRerunCountsOnce:
    """A run that raises a data error re-runs on the tuple engine
    (``VectorizedExecutor.run_prepared``) after its own charges and
    counts are dropped: rows, ``rows_examined``, ``peak_rows_buffered``
    and EXPLAIN ANALYZE actuals are the tuple engine's."""

    def assert_counted_once(self, storage, plan):
        vec = VectorizedExecutor(storage, 1024)
        with pytest.raises((ArithmeticError, SubqueryReturnedMultipleRows)):
            # the vectorized run alone raises: the re-run is under test
            list(vec.prepare(plan).batches(ExecutionContext(None, storage)))
        expected = ResourceGovernor()
        expected_run = run(PhysicalExecutor(storage), plan, expected)
        governor = ResourceGovernor()
        assert run(vec, plan, governor) == expected_run
        assert governor.rows_examined == expected.rows_examined
        assert governor.peak_rows_buffered == expected.peak_rows_buffered
        assert governor.rows_buffered == 0

    def test_semi_probe_over_max1row(self):
        p = Plans()
        self.assert_counted_once(make_storage(), PNLApply(
            JoinKind.LEFT_SEMI, p.outer, PMax1row(p.seek()[0])))

    def test_apply_predicate_past_a_limit(self):
        # The batched run materializes (and charges) its first slice's
        # inner rows before the predicate divides by zero; the per-row
        # loop buffers nothing and stops at the first match.
        p = Plans()
        seek, cols = p.seek()
        divisor = Arithmetic("-", ColumnRef(cols[2]), Literal(10))
        predicate = Comparison(">=", Arithmetic("/", ColumnRef(p.tid),
                                                divisor), Literal(0))
        self.assert_counted_once(make_storage(), PTop(PNLApply(
            JoinKind.INNER, p.outer, seek, predicate=predicate), 1))

    def test_division_past_a_limit_above_a_join(self):
        from tests.test_differential import ALL_MODES, build_db
        db = build_db([(1, 0, 5), (2, 1, 4), (0, 2, 3), (1, 0, 1)],
                      [(1, 1), (2, 0), (0, 2)])
        sql = ("select t.id, s.amt from t join s on s.ref = t.grp"
               " where t.tag / s.amt > 0 limit 1")
        for mode in ALL_MODES:
            self.assert_counted_once(db.storage, db.prepare(sql, mode).plan)


class TestLogicalAccounting:
    def plans(self):
        for kind in KINDS:
            p = Plans()
            for name, inner in inner_shapes(p).items():
                if name not in ("top", "max1row"):
                    yield PNLApply(kind, p.outer, inner)
        p = Plans()
        yield TestNestedApply().nested(p, JoinKind.LEFT_OUTER)

    def test_rows_examined_matches_the_tuple_engine(self):
        storage = make_storage()
        for plan in self.plans():
            expected = ResourceGovernor()
            run(PhysicalExecutor(storage), plan, expected)
            for batch_size in BATCH_SIZES:
                governor = ResourceGovernor()
                run(VectorizedExecutor(storage, batch_size), plan, governor)
                assert governor.rows_examined == expected.rows_examined

    def test_row_budget_trips_at_the_same_logical_count(self):
        storage = make_storage()
        p = Plans()
        plan = PNLApply(JoinKind.LEFT_OUTER, p.outer, PScalarAggregate(
            p.correlated_scan()[0], [count_star()]))
        unlimited = ResourceGovernor()
        run(PhysicalExecutor(storage), plan, unlimited)
        needed = unlimited.rows_examined
        # outer scan + one per outer row + 8 s rows scanned per outer
        # row (NULL bindings execute too) + the result rows
        assert needed == 10 + 10 + 10 * 8 + 10
        for executor in (PhysicalExecutor(storage),
                         VectorizedExecutor(storage, 3),
                         VectorizedExecutor(storage, 1024)):
            rows, _ = run(executor, plan, ResourceGovernor(
                row_budget=needed))
            assert len(rows) == 10
            with pytest.raises(ResourceExhausted):
                run(executor, plan, ResourceGovernor(row_budget=needed - 1))

    def test_memory_budget_covers_the_materialized_inner(self):
        storage = make_storage()
        p = Plans()
        plan = PNLApply(JoinKind.INNER, p.outer, p.seek()[0])
        governor = ResourceGovernor()
        run(VectorizedExecutor(storage, 1024), plan, governor)
        # Outer batches follow the 4-row storage chunks; the first one
        # binds a in {1, NULL, 2} -> 3 + 0 + 2 inner rows, materialized
        # once per *distinct* binding.
        assert governor.peak_rows_buffered == 5
        assert governor.rows_buffered == 0
        with pytest.raises(ResourceExhausted):  # a verdict, not replayed
            run(VectorizedExecutor(storage, 1024), plan,
                ResourceGovernor(memory_budget=4))

    def test_timeout_is_checked_inside_the_batched_inner(self):
        from repro.errors import QueryTimeout
        storage = make_storage()
        p = Plans()
        plan = PNLApply(JoinKind.INNER, p.outer, p.seek()[0])
        with pytest.raises(QueryTimeout):
            run(VectorizedExecutor(storage), plan,
                ResourceGovernor(timeout=0.0, check_interval=1))

    def test_q_error_is_per_binding(self):
        storage = make_storage()
        p = Plans()
        seek, _ = p.seek()
        plan = PNLApply(JoinKind.INNER, p.outer, seek)
        plan.estimated_rows, p.outer.estimated_rows = 17.0, 10.0
        seek.estimated_rows = 1.7  # per binding, as the optimizer stamps
        for executor in (PhysicalExecutor(storage),
                         VectorizedExecutor(storage, 3)):
            profile = {}
            executor.run_prepared(executor.prepare(plan), profile=profile)
            assert profile[id(seek)] == 17  # cumulative, logical
            tree = tree_dict(plan, profile)
            assert tree["apply_bindings"] == 10
            assert "apply_bindings" not in tree["children"][1]
            assert tree["children"][1]["q_error"] == pytest.approx(1.0)
            assert collect(plan, profile).max_q_error == pytest.approx(1.0)


def test_outer_batches_are_cut_by_the_observed_fan_out():
    """One inner run materializes all its bindings' rows, so a high
    fan-out must shrink the outer slices instead of inflating a batch
    (peak memory stays where the per-row loop's re-batching had it)."""
    storage = Storage()
    many = storage.create(TableDef(
        "t", [ColumnDef("id", DataType.INTEGER, False),
              ColumnDef("a", DataType.INTEGER, True),
              ColumnDef("b", DataType.INTEGER, True)],
        primary_key=("id",)))
    wide = storage.create(TableDef(
        "s", [ColumnDef("sid", DataType.INTEGER, False),
              ColumnDef("x", DataType.INTEGER, True),
              ColumnDef("y", DataType.INTEGER, True)],
        primary_key=("sid",)))
    many.insert_many([(i, i, 0) for i in range(200)])
    wide.insert_many([(i, i // 10, i) for i in range(2000)])  # fan-out 10
    wide.add_index(IndexDef("s_x", "s", ("x",), "hash"))
    p = Plans()
    plan = PNLApply(JoinKind.INNER, p.outer, p.seek()[0])
    batch_size = 16
    vec = VectorizedExecutor(storage, batch_size)
    from repro.executor.physical import ExecutionContext
    sizes = [batch.nrows for batch in
             vec.prepare(plan).batches(ExecutionContext(None, storage))]
    assert sum(sizes) == 2000
    assert max(sizes) <= 4 * batch_size  # not 16 outer rows x 10
    assert vec.run(plan) == PhysicalExecutor(storage).run(plan)


def test_shapes_cover_every_batched_operator():
    """The shape table above must keep up with the batched operator set."""
    from repro.executor.batched_apply import _InnerCompiler
    batched = {name[len("_prepare_"):] for name in dir(_InnerCompiler)
               if name.startswith("_prepare_P")}
    used = set()

    def visit(node):
        used.add(type(node).__name__)
        for child in node.children:
            visit(child)
    p = Plans()
    for inner in itertools.chain(
            inner_shapes(p).values(),
            [TestNestedApply().nested(p, JoinKind.INNER).right]):
        visit(inner)
    assert batched <= used
