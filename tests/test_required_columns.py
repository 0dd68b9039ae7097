"""Plans carry only the columns they use.

The required-columns pass (:mod:`repro.physical.required`) narrows the
chosen plan: scans and seeks read a subset of the stored columns, and
projections compute only what is read.  Every engine runs the pruned
plan — the vectorized engine takes only the chunk columns a scan names,
the tuple engine builds tuples of only those columns — so each shape
below prunes in a way both must honour.  At batch sizes 1, 3 and 1024
the tuple and vectorized engines agree on the rows or the error class
under every mode, and naive agrees wherever both return rows (the rule
of ``test_differential.assert_engines_agree``); where the plan runs,
EXPLAIN ANALYZE actuals and ``rows_examined`` agree too.
"""

from collections import Counter

import pytest

from repro import CORRELATED, FULL, NAIVE, DataType, Database
from repro.algebra.columns import Column
from repro.algebra.scalar import Arithmetic, ColumnRef, Literal
from repro.analysis import (PlanAnalyzer, verify_physical,
                            verify_required_columns)
from repro.errors import PlanInvariantError
from repro.physical.plan import (PDifference, PProject, PSegmentApply,
                                 PSegmentRef, PTableScan, explain_physical)
from repro.physical.required import merge_projections, prune_columns
from repro.tpch import QUERIES, create_tpch_schema, generate_tpch

from tests.test_differential import (ALL_MODES, apply_db,
                                     assert_plan_engines_agree, outcome)

BATCH_SIZES = (1, 3, 1024)

T_ROWS = [(1, 2, 0), (1, 2, 1), (None, 0, 0), (2, None, 1), (1, 2, 0),
          (0, 1, 0), (2, 2, None), (None, None, None), (1, 0, 1)]
S_ROWS = [(1, 3), (2, 0), (None, 4), (0, 1), (4, 4), (None, None),
          (3, 2), (1, 1)]

#: name -> (sql, the mode whose plan shows the pruning, what it shows)
SHAPES = {
    "count_star": ("select count(*) from t", FULL,
                   "TableScan(t; 0 of 4 columns)"),
    "select_one": ("select 1 from t", FULL,
                   "TableScan(t; 0 of 4 columns)"),
    "exists_seek": (
        "select t.id from t where exists"
        " (select 1 from s where s.ref = t.grp)", CORRELATED,
        "IndexSeek(s; 0 of 3 columns;"),
    "exists_scan": (
        "select t.id from t where exists"
        " (select * from s where s.amt > t.val)", FULL,
        "TableScan(s; 1 of 3 columns)"),
    "in_seek": (
        "select t.id from t where t.val in"
        " (select s.sid from s where s.ref = t.grp)", CORRELATED,
        "IndexSeek(s; 1 of 3 columns;"),
    "in_scan": (
        "select t.id from t where t.tag in (select s.amt from s)", FULL,
        "TableScan(s; 1 of 3 columns)"),
    "union_all": (
        "select u.a from (select t.val as a, t.tag as b from t"
        " union all select s.amt, s.ref from s) u", FULL,
        "TableScan(s; 1 of 3 columns)"),
    "union_all_no_column": (
        "select count(*) from (select t.val, t.tag from t"
        " union all select s.amt, s.ref from s) u", FULL,
        "TableScan(s; 0 of 3 columns)"),
    "except_all": (
        "select t.val, t.tag from t except all select s.amt, s.ref from s",
        FULL, "HashDifference"),
    "except_all_counted": (
        "select count(*) from (select t.val, t.tag from t"
        " except all select s.amt, s.ref from s) d", FULL,
        "HashDifference"),
    "seek_residual_unread_above": (
        "select t.id, (select max(s.sid) from s"
        " where s.ref = t.grp and s.amt > 1) from t", CORRELATED,
        "IndexSeek(s; 2 of 3 columns; ref"),
    "semi_seek_residual_only": (
        "select t.id from t where exists"
        " (select 1 from s where s.ref = t.grp and s.amt > 2)", CORRELATED,
        "IndexSeek(s; 1 of 3 columns; ref"),
    "one_column_scan": ("select t.val from t where t.val > 1", FULL,
                        "TableScan(t; 1 of 4 columns)"),
    "one_column_seek": (
        "select t.id, (select max(s.sid) from s where s.ref = t.grp)"
        " from t", CORRELATED, "IndexSeek(s; 1 of 3 columns; ref"),
}


#: The tuple engine's rows, order included, for the shapes whose scans
#: and seeks read zero, one or several stored columns, over chunks of 4
#: rows (``t`` ends in a one-row tail).
PINNED_TUPLE_ROWS = {
    "count_star": [(9,)],
    "select_one": [(1,)] * 9,
    "exists_seek": [(1,), (2,), (4,), (5,), (6,), (7,), (9,)],
    "semi_seek_residual_only": [(1,), (2,), (5,), (9,)],
    "one_column_scan": [(2,), (2,), (2,), (2,)],
    "one_column_seek": [(1, 8), (2, 8), (3, None), (4, 2), (5, 8), (6, 4),
                        (7, 2), (8, None), (9, 8)],
    "exists_scan": [(1,), (2,), (3,), (5,), (6,), (7,), (9,)],
    "in_seek": [(7,)],
    "seek_residual_unread_above": [(1, 1), (2, 1), (3, None), (4, None),
                                   (5, 1), (6, None), (7, None), (8, None),
                                   (9, 1)],
    "except_all": [(2, 0), (2, 1), (0, 0), (None, 1), (2, 0), (2, None),
                   (0, 1)],
}


def assert_agree(db: Database, sql: str) -> None:
    """Tuple = vectorized (rows or error class) under every mode; naive
    wherever it and the tuple engine both return rows; and, where the
    statement returns rows, the same actuals and ``rows_examined`` at
    every batch size."""
    reference = outcome(db, sql, NAIVE)
    for mode in ALL_MODES:
        tuple_outcome = outcome(db, sql, mode, "tuple")
        assert outcome(db, sql, mode, "vectorized") == tuple_outcome, \
            f"vectorized != tuple under {mode.name} on: {sql}"
        if isinstance(tuple_outcome, list):
            assert_plan_engines_agree(db.storage, db.prepare(sql, mode).plan,
                                      f"{mode.name}: {sql}")
            if isinstance(reference, list):
                assert Counter(tuple_outcome) == Counter(reference), \
                    f"{mode.name} != naive on: {sql}"


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_pruned_shapes_agree(name):
    sql, mode, shown = SHAPES[name]
    for batch_size in BATCH_SIZES:
        db = apply_db(T_ROWS, S_ROWS, batch_size, "hash")
        assert shown in explain_physical(db.prepare(sql, mode).plan), name
        assert_agree(db, sql)
    assert_agree(apply_db([], [], 3, "hash"), sql)
    if name in PINNED_TUPLE_ROWS:
        db = apply_db(T_ROWS, S_ROWS, 3, "hash", chunk_rows=4)
        assert db.execute(sql, mode, engine="tuple").rows == \
            PINNED_TUPLE_ROWS[name], name


def test_union_all_prunes_the_same_positions_in_every_input():
    db = apply_db(T_ROWS, S_ROWS, 3, None)
    plan = db.prepare(SHAPES["union_all"][0], FULL).plan
    union = plan.children[0]
    assert [len(m) for m in union.input_maps] == [1, 1]
    assert [len(c.columns) for c in union.inputs] == [1, 1]


def test_except_all_keeps_every_column_of_its_inputs():
    db = apply_db(T_ROWS, S_ROWS, 3, None)
    plan = db.prepare(SHAPES["except_all_counted"][0], FULL).plan
    (difference,) = [node for node in _nodes(plan)
                     if isinstance(node, PDifference)]
    assert [len(c.columns) for c in difference.children] == [2, 2]


def test_a_computed_item_that_raises_is_kept():
    """The derived table's ``z`` is read by nothing, but dividing by
    zero raises: the item stays, and so does the error, on every
    engine; its twin that cannot divide by zero returns rows."""
    raising = ("select s.a from (select a, 1 / (a - a) as z from t) s"
               " join t u on s.a = u.a")
    twin = raising.replace("1 / (a - a)", "1 / (a - a + 1)")
    for batch_size in BATCH_SIZES:
        db = Database(batch_size=batch_size)
        db.create_table("t", [("a", DataType.INTEGER, False)])
        db.insert("t", [(1,), (2,), (2,)])
        assert outcome(db, raising, NAIVE) is ZeroDivisionError
        for mode in ALL_MODES:
            assert any(isinstance(node, PProject)
                       and any("/" in expr.sql() for _, expr in node.items)
                       for node in _nodes(db.prepare(raising, mode).plan))
            for engine in ("tuple", "vectorized"):
                assert outcome(db, raising, mode, engine) \
                    is ZeroDivisionError, (batch_size, mode.name, engine)
        assert_agree(db, twin)
        assert sorted(db.execute(twin).rows) == [(1,), (2,), (2,), (2,),
                                                 (2,)]


@pytest.fixture(scope="module")
def tpch():
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.001, seed=7)
    return db


def test_q17_segment_apply_keeps_its_segments_whole(tpch):
    """The segmented input and the SegmentRef leaves are barriers: they
    keep every column, the operators above and below still prune."""
    plan = tpch.prepare(QUERIES["Q17"], FULL).plan
    (segmented,) = [node for node in _nodes(plan)
                    if isinstance(node, PSegmentApply)]
    assert len(segmented.left.columns) == 9 + 16  # part and lineitem
    refs = [node for node in _nodes(segmented.right)
            if isinstance(node, PSegmentRef)]
    assert [len(ref.columns) for ref in refs] == [25, 25]
    assert_plan_engines_agree(tpch.storage, plan, "Q17")


def test_q17_agrees_with_naive():
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.0001, seed=11)
    assert_agree(db, QUERIES["Q17"])


def test_every_tpch_plan_reads_fewer_stored_columns(tpch):
    """No statement of the 22 scans a column nothing reads."""
    for name, sql in QUERIES.items():
        plan = tpch.prepare(sql, FULL).plan
        assert verify_required_columns(plan) == [], name
        assert verify_physical(plan) == [], name


# -- the pass itself ------------------------------------------------------------------

def _nodes(plan):
    yield plan
    for child in plan.children:
        yield from _nodes(child)


def _int(name):
    return Column(name, DataType.INTEGER)


def test_pass_leaves_its_input_untouched():
    a, b, c = _int("a"), _int("b"), _int("c")
    scan = PTableScan("t", [a, b, c])
    plan = PProject(PProject(scan, [(a, ColumnRef(a)), (b, ColumnRef(b))]),
                    [(a, ColumnRef(a))])
    before = explain_physical(plan)
    pruned = prune_columns(plan)
    assert explain_physical(plan) == before
    assert explain_physical(pruned) == \
        "ComputeScalar(1 columns)\n  TableScan(t; 1 of 3 columns)"


def test_merging_keeps_raising_items_in_their_order():
    a, x, y = _int("a"), _int("x"), _int("y")
    divide = Arithmetic("/", Literal(1), ColumnRef(a))
    subtract = Arithmetic("-", Literal(1), ColumnRef(a))
    below = [(x, divide), (y, subtract)]
    same_order = [(_int("p"), ColumnRef(x)), (_int("q"), ColumnRef(y))]
    swapped = [(_int("p"), ColumnRef(y)), (_int("q"), ColumnRef(x))]
    merged = merge_projections(same_order, below, exact=True)
    assert [e for _, e in merged] == [divide, subtract]
    assert merge_projections(swapped, below, exact=True) is None
    # an unread computed item is kept after the read ones, which the
    # result's own layout cannot take
    only_y = [(_int("q"), ColumnRef(y))]
    assert merge_projections(only_y, below, exact=True) is None
    assert merge_projections(only_y, below, exact=False) is None
    only_x = [(_int("p"), ColumnRef(x))]
    assert [c for c, _ in merge_projections(only_x, below, exact=False)] \
        == [only_x[0][0], y]


# -- the analyzer's columns.unread check -----------------------------------------------

def test_unread_check_flags_a_scan_column_nothing_reads():
    a, b = _int("a"), _int("b")
    plan = PProject(PTableScan("t", [a, b]), [(a, ColumnRef(a))])
    issues = verify_required_columns(plan)
    assert [(i.code, i.node) for i in issues] == \
        [("columns.unread", "TableScan(t)")]
    assert verify_required_columns(prune_columns(plan)) == []
    stacked = PProject(PProject(PTableScan("t", [a, b]), [
        (a, ColumnRef(a)), (b, ColumnRef(b))]), [(a, ColumnRef(a))])
    assert [(i.code, i.node) for i in verify_required_columns(stacked)] \
        == [("columns.unread", "ComputeScalar(2 columns)")]


def test_unread_check_exempts_the_root_and_computed_items():
    a, b, z = _int("a"), _int("b"), _int("z")
    scan = PTableScan("t", [a, b])
    assert verify_required_columns(scan) == []
    computed = PProject(PProject(scan, [
        (a, ColumnRef(a)), (z, Arithmetic("/", Literal(1), ColumnRef(b)))]),
        [(a, ColumnRef(a))])
    assert verify_required_columns(computed) == []


def test_unread_check_reports_only_in_strict_mode(monkeypatch):
    a, b = _int("a"), _int("b")
    plan = PProject(PTableScan("t", [a, b]), [(a, ColumnRef(a))])
    monkeypatch.setenv("REPRO_ANALYZE", "warn")
    assert PlanAnalyzer().check_required_columns(plan, stage="test") == []
    monkeypatch.setenv("REPRO_ANALYZE", "strict")
    with pytest.raises(PlanInvariantError, match="columns.unread"):
        PlanAnalyzer().check_required_columns(plan, stage="test")
    # no part of the checks that send a statement down the fallback
    # ladder, nor of cache admission
    assert PlanAnalyzer().check_physical(plan, stage="test") == []
    assert PlanAnalyzer().admissible(plan=plan)


def test_an_unread_column_fails_a_strict_statement(monkeypatch):
    """Under strict an unread column fails the statement: it is neither
    degraded to the heuristic plan nor handed to the naive interpreter,
    where the differential suites would still pass."""
    import repro.core.optimizer.optimizer as optimizer

    monkeypatch.setattr(optimizer, "prune_columns", lambda plan: plan)
    db = apply_db(T_ROWS, S_ROWS, 1024, "hash")
    query = "select t.id from t where t.val > 0"
    monkeypatch.setenv("REPRO_ANALYZE", "warn")
    result = db.execute(query, mode=FULL)
    assert not result.degraded
    db.plan_cache.invalidate()
    monkeypatch.setenv("REPRO_ANALYZE", "strict")
    with pytest.raises(PlanInvariantError, match="columns.unread"):
        db.execute(query, mode=FULL)
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_ANALYZE", "strict")
    assert db.execute(query, mode=FULL).rows == result.rows


# -- the exact-text front of the plan cache -----------------------------------------

def test_a_repeated_text_is_not_lexed_again(monkeypatch):
    import repro.sql.parser as parser

    db = Database(plan_cache_capacity=2)
    db.create_table("t", [("a", DataType.INTEGER, False)])
    db.insert("t", [(1,), (2,)])
    lexed = []
    tokenize = parser.tokenize
    monkeypatch.setattr(parser, "tokenize",
                        lambda sql: lexed.append(sql) or tokenize(sql))
    query = "select a from t where a > 1"
    assert db.execute(query).rows == [(2,)]
    assert db.execute(query).rows == [(2,)]
    with db.session() as session:
        assert session.execute(query).rows == [(2,)]
    assert lexed == [query]
    # EXPLAIN and view DDL text is always lexed
    explain = "explain " + query
    db.execute(explain)
    db.execute(explain)
    assert lexed.count(explain) == 2
    # bounded by the plan cache's capacity, oldest text first out
    for text in ("select 1 from t", "select 2 from t"):
        db.execute(text)
    assert db.execute(query).rows == [(2,)]
    assert lexed.count(query) == 2
    # a remembered text whose plan was dropped is parsed (and so lexed)
    db.plan_cache.invalidate()
    assert db.execute(query).rows == [(2,)]
    assert lexed.count(query) == 3
