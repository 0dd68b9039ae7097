"""Differential-testing oracle across the three execution engines.

The vectorized batch engine must be *bit-identical* to the tuple
iterator engine — same values, same row order — and both must agree
with the naive logical interpreter up to row order.  Two corpora drive
the comparison:

* a hypothesis grammar over the constructs the paper targets
  (correlated scalar subqueries, EXISTS / IN, aggregation with HAVING,
  outerjoins, CASE) on small NULL-rich integer tables, so equality is
  exact with no float-rounding escape hatch;
* the full TPC-H suite (plus the paper's Figure 4 formulation pairs)
  at a small scale factor.

The grammar sample is derandomized for the tier-1 run; setting
``REPRO_DIFF_DEEP=1`` switches to a randomized ≥200-example sweep for
CI.  Generated queries run on a ``batch_size=3`` database so every
operator crosses batch boundaries even on seven-row tables.
"""

import builtins
import datetime
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (CORRELATED, DECORRELATE_ONLY, FULL, NAIVE, Database,
                   DataType, ExecutionError, SubqueryReturnedMultipleRows)
from repro.executor import VectorizedExecutor, vectorized
from repro.executor.physical import ExecutionContext, PhysicalExecutor
from repro.feedback import tree_dict
from repro.governor import ResourceGovernor
from repro.physical.plan import PTopN, explain_physical
from repro.storage.columnar import DEFAULT_CHUNK_ROWS
from repro.tpch import (QUERIES, create_tpch_schema, generate_tpch,
                        paper_example_formulations)

DEEP = os.environ.get("REPRO_DIFF_DEEP", "").strip() not in ("", "0")
MAX_EXAMPLES = 250 if DEEP else 30

# -- schema and data -----------------------------------------------------------
#
# Integer-only columns: cross-engine equality is exact, never rounded.

T_COLS = ["t.grp", "t.val", "t.tag"]
S_COLS = ["s.ref", "s.amt"]
OPS = ["=", "<>", "<", "<=", ">", ">="]
AGGS = ["sum", "min", "max", "count", "avg"]


def build_db(t_rows, s_rows) -> Database:
    # batch_size=3 forces multi-batch execution even on tiny tables.
    db = Database(batch_size=3)
    db.create_table("t", [("id", DataType.INTEGER, False),
                          ("grp", DataType.INTEGER, True),
                          ("val", DataType.INTEGER, True),
                          ("tag", DataType.INTEGER, True)],
                    primary_key=("id",))
    db.create_table("s", [("sid", DataType.INTEGER, False),
                          ("ref", DataType.INTEGER, True),
                          ("amt", DataType.INTEGER, True)],
                    primary_key=("sid",))
    db.insert("t", [(i + 1, *row) for i, row in enumerate(t_rows)])
    db.insert("s", [(i + 1, *row) for i, row in enumerate(s_rows)])
    return db


nullable_int = st.one_of(st.none(), st.integers(0, 4))
t_rows_strategy = st.lists(st.tuples(nullable_int, nullable_int,
                                     nullable_int), max_size=7)
s_rows_strategy = st.lists(st.tuples(nullable_int, nullable_int),
                           max_size=7)

# -- query grammar -------------------------------------------------------------

literal = st.integers(0, 4).map(str)
t_col = st.sampled_from(T_COLS)
s_col = st.sampled_from(S_COLS)
op = st.sampled_from(OPS)
agg = st.sampled_from(AGGS)


#: A division that raises on the rows where ``t.val`` is 0.
DIVISION = "t.tag / t.val"


@st.composite
def guarded_division(draw):
    """A condition that divides only where its guard lets it: the row
    engine stops an AND at FALSE and an OR at TRUE, and so must the
    vectorized engine."""
    guard = draw(st.sampled_from(["t.val <> 0", "t.val is not null", ""]))
    if not guard:
        guard = f"{draw(t_col)} {draw(op)} {draw(literal)}"
    connector = draw(st.sampled_from([" and ", " or "]))
    return f"{guard}{connector}{DIVISION} {draw(op)} {draw(literal)}"


@st.composite
def scalar_expr(draw):
    """A select-list expression over t's columns."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(t_col)
    if kind == 1:
        arith = draw(st.sampled_from(["+", "-", "*"]))
        return f"{draw(t_col)} {arith} {draw(literal)}"
    if kind == 2:
        return (f"case when {draw(t_col)} {draw(op)} {draw(literal)} "
                f"then {draw(t_col)} else {draw(literal)} end")
    if kind == 3:
        return (f"case when {draw(guarded_division())} "
                f"then {draw(t_col)} else {draw(literal)} end")
    return (f"(select {draw(agg)}(s.amt) from s "
            f"where s.ref = {draw(t_col)})")


@st.composite
def predicate(draw):
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return f"{draw(t_col)} {draw(op)} {draw(literal)}"
    if kind == 1:
        return f"{draw(t_col)} {draw(op)} {draw(t_col)}"
    if kind == 2:
        negated = "not " if draw(st.booleans()) else ""
        return f"{draw(t_col)} is {negated}null"
    if kind == 3:
        return f"{draw(t_col)} in ({draw(literal)}, {draw(literal)})"
    if kind == 4:
        negated = "not " if draw(st.booleans()) else ""
        return (f"{negated}exists (select * from s "
                f"where s.ref = {draw(t_col)})")
    if kind == 5:
        negated = "not " if draw(st.booleans()) else ""
        return (f"{draw(t_col)} {negated}in "
                f"(select s.amt from s where s.ref = {draw(t_col)})")
    if kind == 6:
        return f"{DIVISION} {draw(op)} {draw(literal)}"
    return (f"{draw(t_col)} {draw(op)} (select {draw(agg)}(s.amt) "
            f"from s where s.ref = {draw(t_col)})")


@st.composite
def where_clause(draw):
    parts = draw(st.lists(predicate(), min_size=1, max_size=3))
    connector = draw(st.sampled_from([" and ", " or "]))
    return " where " + connector.join(f"({p})" for p in parts)


@st.composite
def query(draw):
    where = draw(where_clause()) if draw(st.booleans()) else ""
    shape = draw(st.integers(0, 4))
    if shape == 0:  # projection, optionally DISTINCT / ORDER+LIMIT
        # unique: the analyzer (correctly) flags duplicate output columns
        exprs = draw(st.lists(scalar_expr(), min_size=1, max_size=3,
                              unique=True))
        distinct = "distinct " if draw(st.booleans()) else ""
        sql = f"select {distinct}{', '.join(exprs)} from t{where}"
        if not distinct and draw(st.booleans()):
            # Ordering by every output column makes the LIMIT prefix a
            # deterministic multiset even when engines break ties
            # differently.
            keys = ", ".join(str(i + 1) for i in range(len(exprs)))
            sql += f" order by {keys} limit {draw(st.integers(0, 5))}"
        return sql
    if shape == 1:  # grouped aggregation, optional HAVING
        chosen = draw(agg)
        arg = "*" if chosen == "count" and draw(st.booleans()) else "t.val"
        having = ""
        if draw(st.booleans()):
            having = f" having {chosen}({arg}) {draw(op)} {draw(literal)}"
        return (f"select t.grp, {chosen}({arg}) from t{where} "
                f"group by t.grp{having}")
    if shape == 2:  # ungrouped (scalar) aggregation
        chosen = draw(st.lists(agg, min_size=1, max_size=2, unique=True))
        calls = ", ".join(f"{name}(t.val)" for name in chosen)
        return f"select {calls} from t{where}"
    if shape == 3:  # outerjoin, optionally aggregated above it
        join_kind = draw(st.sampled_from(["join", "left outer join"]))
        joined = (f"t {join_kind} s on s.ref = {draw(t_col)}")
        if draw(st.booleans()):
            return (f"select t.grp, count(s.sid), {draw(agg)}(s.amt) "
                    f"from {joined}{where} group by t.grp")
        return f"select t.id, t.val, s.amt from {joined}{where}"
    # correlated scalar subquery in the select list (Q17's shape)
    return (f"select t.id, (select {draw(agg)}(s.amt) from s "
            f"where s.ref = {draw(t_col)}) from t{where}")


ALL_MODES = (FULL, DECORRELATE_ONLY, CORRELATED)


def outcome(db: Database, sql: str, mode, engine=None):
    """The rows ``sql`` returns, or the class of the SQL data error it
    raises; any other exception is an engine bug and propagates."""
    try:
        return db.execute(sql, mode, engine=engine).rows
    except (ArithmeticError, ExecutionError) as error:
        return type(error)


def assert_engines_agree(db: Database, sql: str) -> None:
    """Tuple and vectorized agree under every mode on the rows, or on
    the error class.  Naive is compared only where it and the tuple
    engine both return rows: which error a statement raises, and whether
    a ``LIMIT`` stops before it, depends on evaluation order, which the
    naive interpreter does not share."""
    reference = outcome(db, sql, NAIVE)
    for mode in ALL_MODES:
        tuple_outcome = outcome(db, sql, mode, "tuple")
        vector_outcome = outcome(db, sql, mode, "vectorized")
        assert vector_outcome == tuple_outcome, \
            f"vectorized != tuple under {mode.name} on: {sql}"
        if isinstance(reference, list) and isinstance(tuple_outcome, list):
            assert Counter(tuple_outcome) == Counter(reference), \
                f"{mode.name} != naive on: {sql}"


@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=not DEEP,
          database=None)
@given(t_rows=t_rows_strategy, s_rows=s_rows_strategy, sql=query())
def test_generated_queries_agree(t_rows, s_rows, sql):
    assert_engines_agree(build_db(t_rows, s_rows), sql)


def test_regression_corpus():
    """Hand-picked shapes that exercised real divergences during
    development: empty inputs, all-NULL keys, guarded division,
    duplicate-heavy joins, zero-limit Top, errors past a LIMIT."""
    db = build_db([(None, None, None), (1, 2, 3), (1, None, 0),
                   (2, 0, 0), (None, 4, 1)],
                  [(None, None), (1, 1), (1, None), (2, 0), (4, 4)])
    corpus = [
        "select t.grp, sum(t.val), count(distinct t.tag) from t"
        " group by t.grp",
        "select count(*), count(t.val), avg(t.val) from t",
        "select t.id, s.amt from t left outer join s on s.ref = t.grp",
        "select t.grp, min(s.amt) from t left outer join s"
        " on s.ref = t.grp group by t.grp",
        # the oracle's first catch: local/global split below an outer
        # join turned count of an all-padded group into NULL
        "select t.grp, count(s.sid), sum(s.amt) from t"
        " left outer join s on s.ref = t.grp group by t.grp",
        "select t.id, (select sum(s.amt) from s where s.ref = t.grp)"
        " from t",
        "select t.id from t where exists"
        " (select * from s where s.ref = t.grp)",
        "select t.id from t where t.val not in"
        " (select s.amt from s where s.ref = t.grp)",
        "select case when t.val > 0 then t.tag / t.val else 0 end"
        " from t",
        "select distinct t.grp, t.val from t",
        "select t.val from t order by 1 limit 0",
        "select t.val from t where t.grp is null order by 1 limit 2",
        "select t.grp from t except all select s.ref from s",
        "select t.grp from t union all select s.ref from s",
        # a LIMIT that stops before the row that raises: the scan-fused
        # filter, then a filter above an aggregate
        "select t.id from t where t.tag / t.val > 0 limit 1",
        "select t.grp from t group by t.grp"
        " having sum(t.tag) / sum(t.val) > 0 limit 1",
    ]
    for sql in corpus:
        assert_engines_agree(db, sql)
    # Each of these returns rows on the row engine but divides by zero
    # when evaluated a batch at a time: a guarded division in an AND,
    # and a division over a whole batch where the row engine stops at
    # the LIMIT first (after a join, on a join predicate, inside a semi
    # probe).  The first must also need no re-run.
    db = build_db([(1, 0, 5), (2, 1, 4), (0, 2, 3), (1, 0, 1)],
                  [(1, 1), (2, 0), (0, 2)])
    corpus = [
        "select t.id, case when t.val <> 0 and t.tag / t.val > 1"
        " then 1 else 0 end from t",
        "select t.id, s.amt from t join s on s.ref = t.grp"
        " where t.tag / s.amt > 0 limit 1",
        "select t.id, s.amt from t join s on s.ref = t.grp"
        " and t.tag / s.amt > 0 limit 1",
        "select t.id from t where exists (select * from s"
        " where s.ref = t.grp and t.tag / s.amt > 0) limit 1",
    ]
    for sql in corpus:
        assert_engines_agree(db, sql)
        assert isinstance(outcome(db, sql, FULL, "vectorized"), list), sql
    vector_engine = VectorizedExecutor(db.storage, batch_size=3)
    for mode in ALL_MODES:  # batches alone, raising nothing
        plan = db.prepare(corpus[0], mode).plan
        list(vector_engine.prepare(plan).batches(
            ExecutionContext(None, db.storage)))
    # The row engine's AND goes on past a NULL conjunct, so the division
    # raises on the first row; a filter that drops that row before
    # dividing returns [(2,)].
    db = build_db([(None, 0, 1), (1, 1, 2)], [])
    for sql in ("select t.id from t where t.grp > 0 and t.tag / t.val > 0",
                "select t.id from t where t.grp > 5 and t.tag / t.val > 0"):
        assert_engines_agree(db, sql)
        assert outcome(db, sql, FULL, "vectorized") is ZeroDivisionError


def test_engines_agree_on_empty_tables():
    db = build_db([], [])
    for sql in ("select t.val from t",
                "select count(*), sum(t.val) from t",
                "select t.grp, sum(t.val) from t group by t.grp",
                "select t.id, s.amt from t left outer join s"
                " on s.ref = t.grp"):
        assert_engines_agree(db, sql)


# -- cross-input disjunctions --------------------------------------------------
#
# An OR of ANDs over both join inputs stays on the join, and each input
# is filtered first by the single-input OR it implies.  Branches mix
# local conjuncts of either side (comparisons, IS [NOT] NULL, IN lists
# holding NULL) with cross-input comparisons, so some branches have no
# conjunct local to a side and nothing is derived for it.

@st.composite
def side_conjunct(draw, columns):
    column = draw(st.sampled_from(columns))
    kind = draw(st.integers(0, 2))
    negated = "not " if draw(st.booleans()) else ""
    if kind == 0:
        return f"{column} {draw(op)} {draw(literal)}"
    if kind == 1:
        return f"{column} is {negated}null"
    values = draw(st.lists(st.one_of(literal, st.just("null")),
                           min_size=1, max_size=3))
    return f"{column} {negated}in ({', '.join(values)})"


@st.composite
def cross_input_or(draw):
    conjunct = st.one_of(
        side_conjunct(T_COLS), side_conjunct(S_COLS),
        st.builds(lambda a, o, b: f"{a} {o} {b}", t_col, op, s_col))
    branches = draw(st.lists(st.lists(conjunct, min_size=1, max_size=3),
                             min_size=2, max_size=3))
    return " or ".join("(" + " and ".join(b) + ")" for b in branches)


@st.composite
def cross_input_query(draw):
    join = draw(st.sampled_from(["t join s on s.ref = t.grp",
                                 "t left outer join s on s.ref = t.grp",
                                 "t, s"]))
    return f"select t.id, s.sid from {join} where {draw(cross_input_or())}"


@settings(max_examples=4 * MAX_EXAMPLES, deadline=None,
          derandomize=not DEEP, database=None)
@given(t_rows=t_rows_strategy, s_rows=s_rows_strategy,
       sql=cross_input_query())
def test_cross_input_or_agrees(t_rows, s_rows, sql):
    assert_engines_agree(build_db(t_rows, s_rows), sql)


def test_cross_input_or_corpus():
    db = build_db([(None, None, None), (1, 2, 3), (1, None, 0),
                   (2, 0, 0), (None, 4, 1), (4, 1, None)],
                  [(None, None), (1, 1), (1, None), (2, 0), (4, 4),
                   (None, 2)])
    for join in ("t join s on s.ref = t.grp",
                 "t left outer join s on s.ref = t.grp", "t, s"):
        for where in (
                # Q7's pair test
                "(t.val = 1 and s.amt = 2) or (t.val = 2 and s.amt = 1)",
                # Q19's shape: every branch local to both sides
                "(t.tag in (0, null) and t.val <= 2 and s.amt is null)"
                " or (t.tag = 1 and t.val is not null and s.amt >= 1)",
                # a branch with no t-local conjunct: nothing for t
                "(t.val is null and s.amt = 0) or (s.amt > t.tag)",
                "(t.grp not in (1, null) and s.amt < 3)"
                " or (t.val = 4 and s.amt is null) or (t.tag = s.amt)"):
            assert_engines_agree(
                db, f"select t.id, s.sid from {join} where {where}")


# -- surviving Apply: batched vs. per-row execution -----------------------------
#
# CORRELATED mode keeps every subquery as an Apply, and an index on
# ``s.ref`` lets the cost-based modes re-introduce it as an index-lookup
# join, so these statements put every inner shape the batched Apply
# executes (repro.executor.batched_apply) under every Apply kind — and,
# without the index, the correlated-scan form.  Besides rows, the
# engines must agree on EXPLAIN ANALYZE actuals: the batched path counts
# *logical* rows (a de-duplicated binding once per outer row sharing it).

APPLY_SHAPES = {
    # index seek (or correlated scan) under each Apply kind
    "seek_semi": "select t.id from t where exists"
                 " (select * from s where s.ref = t.grp and s.amt > t.val)",
    "seek_anti": "select t.id from t where not exists"
                 " (select * from s where s.ref = t.grp)",
    "seek_semi_predicate": "select t.id from t where t.val in"
                           " (select s.amt from s where s.ref = t.grp)",
    "seek_anti_predicate": "select t.id from t where t.val not in"
                           " (select s.amt from s where s.ref = t.grp)",
    "seek_outer": "select t.id, (select s.amt from s where s.sid = t.grp)"
                  " from t",
    # scalar aggregation: bindings that match nothing get the empty group
    "scalar_agg": "select t.id, (select count(*) from s"
                  " where s.ref = t.grp), (select sum(s.amt) from s"
                  " where s.ref = t.val) from t",
    "distinct_agg": "select t.id, (select count(distinct s.amt) from s"
                    " where s.ref = t.grp) from t",
    "vector_agg": "select t.id, (select count(*) from s"
                  " where s.ref = t.grp group by s.ref) from t",
    "topn": "select t.id, (select s.amt from s where s.ref = t.grp"
            " order by s.amt desc, s.sid limit 1) from t",
    # Max1row: raises whenever two s rows share a referenced ref
    "max1row": "select t.id, (select s.amt from s where s.ref = t.grp)"
               " from t",
    "union_all": "select t.id from t where 3 < (select sum(v) from"
                 " (select s.amt as v from s where s.ref = t.grp"
                 " union all select s2.sid as v from s s2"
                 " where s2.sid = t.id) as u)",
    "nested_apply": "select t.id, (select sum(s.amt) from s"
                    " where s.ref = t.grp and s.amt <"
                    " (select max(s2.amt) from s s2"
                    " where s2.ref = s.ref)) from t",
    # Section 2.4: guarded-out rows never reach the (raising) subquery
    "case_guard": "select t.id, case when t.val > 1"
                  " then (select count(*) from s where s.ref = t.grp)"
                  " else 0 end from t",
    "case_guard_max1row": "select t.id, case when t.tag = 0"
                          " then (select s.amt from s where s.ref = t.grp)"
                          " else t.val end from t",
    # a LIMIT above the Apply: an error past the limit must not surface
    "limit_above": "select t.id, (select s.amt from s where s.ref = t.grp)"
                   " from t limit 1",
}


def apply_db(t_rows, s_rows, batch_size, index_kind,
             chunk_rows=DEFAULT_CHUNK_ROWS) -> Database:
    db = Database(batch_size=batch_size, chunk_rows=chunk_rows)
    db.create_table("t", [("id", DataType.INTEGER, False),
                          ("grp", DataType.INTEGER, True),
                          ("val", DataType.INTEGER, True),
                          ("tag", DataType.INTEGER, True)],
                    primary_key=("id",))
    db.create_table("s", [("sid", DataType.INTEGER, False),
                          ("ref", DataType.INTEGER, True),
                          ("amt", DataType.INTEGER, True)],
                    primary_key=("sid",))
    if index_kind is not None:
        db.create_index("s_ref", "s", ["ref"], kind=index_kind)
    db.insert("t", [(i + 1, *row) for i, row in enumerate(t_rows)])
    db.insert("s", [(i + 1, *row) for i, row in enumerate(s_rows)])
    return db


def _trace(plan, profile):
    """Pre-order (actual rows, inner executions) per plan node."""
    tree = tree_dict(plan, profile)
    out = []

    def visit(node):
        out.append((node["op"], node["actual_rows"],
                    node.get("apply_bindings")))
        for child in node["children"]:
            visit(child)
    visit(tree)
    return out


def _profiled_run(executor, plan):
    profile = {}
    try:
        rows = executor.run_prepared(executor.prepare(plan),
                                     profile=profile)
    except SubqueryReturnedMultipleRows:
        return None, None
    return rows, _trace(plan, profile)


def assert_apply_engines_agree(db: Database, sql: str,
                               batch_size: int) -> None:
    try:
        reference = Counter(db.execute(sql, NAIVE).rows)
    except SubqueryReturnedMultipleRows:
        reference = None
    tuple_engine = PhysicalExecutor(db.storage)
    vector_engine = VectorizedExecutor(db.storage, batch_size=batch_size)
    for mode in ALL_MODES:
        plan = db.prepare(sql, mode).plan
        tuple_rows, tuple_trace = _profiled_run(tuple_engine, plan)
        vector_rows, vector_trace = _profiled_run(vector_engine, plan)
        assert vector_rows == tuple_rows, \
            f"vectorized != tuple under {mode.name} on: {sql}"
        if " limit " in sql:
            continue  # a LIMIT legitimately changes what gets evaluated
        assert (None if tuple_rows is None
                else Counter(tuple_rows)) == reference, \
            f"{mode.name} != naive on: {sql}"
        assert vector_trace == tuple_trace, \
            f"EXPLAIN ANALYZE actuals differ under {mode.name} on: {sql}"


# Few distinct values on purpose: bindings repeat within a batch (the
# de-duplication path) and NULL bindings are common.
binding = st.one_of(st.none(), st.integers(0, 2))
apply_t_rows = st.lists(st.tuples(binding, binding, binding), max_size=9)
apply_s_rows = st.lists(st.tuples(binding, st.one_of(st.none(),
                                                     st.integers(0, 4))),
                        max_size=9)


@settings(max_examples=4 * MAX_EXAMPLES, deadline=None,
          derandomize=not DEEP, database=None)
@given(t_rows=apply_t_rows, s_rows=apply_s_rows,
       shape=st.sampled_from(sorted(APPLY_SHAPES)),
       batch_size=st.sampled_from((1, 3, 1024)),
       index_kind=st.sampled_from((None, "hash", "ordered")))
def test_batched_apply_sweep(t_rows, s_rows, shape, batch_size, index_kind):
    db = apply_db(t_rows, s_rows, batch_size, index_kind)
    assert_apply_engines_agree(db, APPLY_SHAPES[shape], batch_size)


def test_batched_apply_grid():
    """Every shape on one duplicate-heavy, NULL-rich fixture, with and
    without the index, at every batch size."""
    t_rows = [(1, 2, 0), (1, 2, 1), (None, 0, 0), (2, None, 1), (1, 2, 0),
              (0, 1, 0), (2, 2, None), (None, None, None), (1, 0, 1)]
    s_rows = [(1, 3), (2, 0), (None, 4), (0, 1), (4, 4), (None, None),
              (3, 2)]
    duplicated = s_rows + [(1, 1), (1, None), (2, 2)]  # Max1row violations
    for rows in (s_rows, duplicated):
        for index_kind in (None, "hash", "ordered"):
            for batch_size in (1, 3, 1024):
                db = apply_db(t_rows, rows, batch_size, index_kind)
                for sql in APPLY_SHAPES.values():
                    assert_apply_engines_agree(db, sql, batch_size)


def test_limit_stops_before_a_later_max1row_violation():
    """The per-row Apply's re-batching used to drain a whole outer batch
    through the Apply before the Top above could stop: the violation at
    the third outer row surfaced although one row was asked for."""
    db = apply_db([(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                  [(0, 7), (2, 8), (2, 9)], 1024, "hash")
    sql = APPLY_SHAPES["limit_above"]
    for engine in ("tuple", "vectorized"):
        assert db.execute(sql, engine=engine).rows == [(1, 7)]
        with pytest.raises(SubqueryReturnedMultipleRows):
            db.execute(sql.replace(" limit 1", ""), engine=engine)


def test_limit_zero_pulls_its_offset_rows():
    """``LIMIT 0 OFFSET 2`` pulls two rows before it stops, as the tuple
    engine's ``islice`` does, so a select list that divides by zero
    raises on every engine; a bare ``LIMIT 0`` opens nothing."""
    raising = "select 1 / (t.id - t.id) from t limit 0 offset 2"
    twin = "select 1 / (t.id - t.id + 1) from t limit 0 offset 2"
    unopened = "select 1 / (t.id - t.id) from t limit 0"
    for batch_size in (1, 3, 1024):
        db = apply_db([(0, 0, 0)] * 4, [], batch_size, None)
        assert outcome(db, raising, NAIVE) is ZeroDivisionError
        for mode in ALL_MODES:
            for engine in ("tuple", "vectorized"):
                assert outcome(db, raising, mode, engine) \
                    is ZeroDivisionError, (batch_size, mode.name, engine)
                assert outcome(db, twin, mode, engine) == [], batch_size
                assert outcome(db, unopened, mode, engine) == [], batch_size


# -- nested loops, Sort and TopN on columns -----------------------------------
#
# A nested-loops join pairs each left batch with every materialized right
# row through ``match_rows``; Sort and TopN rank their key columns.  At
# every batch size the vectorized engine must give the tuple engine's
# rows (types included), EXPLAIN ANALYZE actuals and ``rows_examined``.

def _governed_run(executor, plan):
    profile = {}
    governor = ResourceGovernor()
    rows = executor.run_prepared(executor.prepare(plan), None, governor,
                                 profile=profile)
    return rows, _trace(plan, profile), governor.rows_examined


def assert_plan_engines_agree(storage, plan, label) -> list:
    """Vectorized = tuple on ``plan`` at batch sizes 1, 3 and 1024;
    returns the tuple engine's rows."""
    expected = _governed_run(PhysicalExecutor(storage), plan)
    for batch_size in (1, 3, 1024):
        actual = _governed_run(VectorizedExecutor(storage, batch_size), plan)
        assert (_typed(actual[0]), *actual[1:]) == \
            (_typed(expected[0]), *expected[1:]), \
            f"batch size {batch_size}: {label}"
    return expected[0]


def assert_columnar_engines_agree(db: Database, sql: str) -> None:
    """Vectorized = tuple under every mode, and tuple = naive (as
    multisets) where naive returns rows and no LIMIT picks among
    ties."""
    reference = outcome(db, sql, NAIVE)
    for mode in ALL_MODES:
        rows = assert_plan_engines_agree(
            db.storage, db.prepare(sql, mode).plan, f"{mode.name}: {sql}")
        if isinstance(reference, list) and " limit " not in sql:
            assert Counter(rows) == Counter(reference), sql


NESTED_LOOPS = [
    "select t.id, s.sid from t join s on t.val < s.amt",
    "select t.id, s.sid from t, s",
    "select t.id, s.sid, s.amt from t left outer join s on t.val < s.amt",
    "select t.id, s.sid from t left outer join s on t.tag is not null",
    "select t.id from t where exists (select * from s where s.amt > t.val)",
    "select t.id from t where exists (select * from s)",
    "select t.id from t where not exists"
    " (select * from s where s.amt >= t.val)",
    "select t.id from t where not exists (select * from s)",
]


def test_nested_loops_on_columns():
    """All four join kinds, with and without a predicate, NULLs in the
    predicate columns, LEFT OUTER padding, and an empty right side."""
    t_rows = [(1, 2, 3), (None, None, 0), (2, 0, None), (1, 4, 1),
              (3, 1, 1), (2, None, 2), (0, 3, 0)]
    s_rows = [(1, 3), (2, None), (None, 1), (1, 0), (4, 4)]
    for s in (s_rows, []):
        db = build_db(t_rows, s)
        for sql in NESTED_LOOPS:
            assert_columnar_engines_agree(db, sql)
    plan = build_db(t_rows, s_rows).prepare(NESTED_LOOPS[3], FULL).plan
    assert "NestedLoops[left outer]" in explain_physical(plan)


def test_nested_loops_output_batches_release_like_a_row_source():
    """The join's output goes out in ``batch_size`` batches, the short
    last one only once the left input is exhausted, as a re-batched row
    stream did.  The Sort above holds the six joined rows beside the two
    right rows, and beside the aggregate's three groups (11) unless one
    batch holds all six, which then leaves after the aggregate let go
    (8)."""
    db = build_db([(1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 0, 0)],
                  [(1, 1), (2, 2)])
    plan = db.prepare("select a.g, s.sid from (select t.grp as g,"
                      " count(*) as n from t group by t.grp) as a, s"
                      " order by s.sid, a.g", FULL).plan
    assert "NestedLoops[inner]" in explain_physical(plan)
    for batch_size, peak in ((1, 11), (3, 11), (1024, 8)):
        governor = ResourceGovernor()
        VectorizedExecutor(db.storage, batch_size).run(plan, None, governor)
        assert governor.peak_rows_buffered == peak, batch_size


def test_semi_predicate_raising_past_the_first_match_is_rerun():
    """The tuple engine's semi probe stops at the first match, so the
    division by the second ``s`` row's zero is never reached; the
    vectorized join evaluates every pair, raises, and the statement's
    re-run on the tuple engine settles it."""
    sql = ("select t.id from t where exists (select * from s"
           " where s.amt >= t.val and t.tag / s.amt > 0)")
    db = build_db([(1, 0, 4)], [(1, 2), (1, 0)])
    plan = db.prepare(sql, FULL).plan
    assert "NestedLoops[left semi]" in explain_physical(plan)
    with pytest.raises(ZeroDivisionError):  # the batches alone raise
        list(VectorizedExecutor(db.storage).prepare(plan).batches(
            ExecutionContext(None, db.storage)))
    assert_columnar_engines_agree(db, sql)
    assert outcome(db, sql, FULL, "vectorized") == [(1,)]


def sort_db() -> Database:
    """40 rows: ``g`` ties every 8th row, ``x`` mixes 1 and 1.0 and
    holds NULLs, so equal keys span batches at every batch size."""
    db = Database()
    db.create_table("k", [("id", DataType.INTEGER, False),
                          ("g", DataType.INTEGER, False),
                          ("x", DataType.FLOAT, True)],
                    primary_key=("id",))
    db.insert("k", [(n, n % 5, None if n % 7 == 3
                     else (1 if n % 3 else 1.0) if n % 2 else n / 4)
                    for n in range(40)])
    return db


ORDERED = [
    "select k.id, k.x from k order by k.x",
    "select k.id, k.g from k order by k.g desc",
    "select k.id, k.g, k.x from k order by k.g desc, k.x",
    "select k.id, k.g, k.x from k order by k.x desc, k.g",
    "select k.id, k.g from k order by k.g limit 4",
    "select k.id, k.g, k.x from k order by k.g, k.x desc limit 7 offset 3",
    "select k.id, k.x from k order by k.x desc limit 30 offset 5",
    "select k.id, k.g from k order by k.g, k.x limit 5 offset 1000",
]


def test_sort_and_top_n_on_columns():
    """Ties across batches, ``1``/``1.0`` ties kept in input order,
    NULLs first ascending and last descending, mixed ASC/DESC keys and
    an offset beyond the row count."""
    db = sort_db()
    for sql in ORDERED:
        assert_columnar_engines_agree(db, sql)
    assert outcome(db, ORDERED[-1], FULL, "vectorized") == []
    # The optimizer sorts fully when the offset passes the estimate; a
    # hand-made TopN past the row count, and one keeping every row.
    top = db.prepare(ORDERED[5], FULL).plan
    assert isinstance(top, PTopN)
    for count, offset in ((5, 1000), (40, 0), (3, 38)):
        assert_plan_engines_agree(
            db.storage, PTopN(top.child, top.keys, count, offset),
            (count, offset))
    ones = [[x for _, x in db.execute(sql, engine="vectorized").rows
             if x == 1] for sql in (ORDERED[0], "select k.id, k.x from k")]
    assert _typed(ones[:1]) == _typed(ones[1:])  # in input order


# -- NULL-free kernels and the aggregate fold, chosen per batch -----------------
#
# 160 rows in batches of 32 (chunks of 64): NULLs sit in the fourth batch
# only, so the C-level kernels and the NULL-aware row path alternate
# within one statement.  ``g`` makes 4 groups per batch (each folded as
# one list), ``h`` 32 (folded row by row); groups with ``id % 4 == 3``
# never hold a value.  ``x`` mixes 1 and 1.0, which MIN/MAX must keep in
# first-seen order.

def fold_db() -> Database:
    db = Database(batch_size=32, chunk_rows=64)
    db.create_table("k", [("id", DataType.INTEGER, False),
                          ("g", DataType.INTEGER, False),
                          ("h", DataType.INTEGER, False),
                          ("i", DataType.INTEGER, True),
                          ("f", DataType.FLOAT, True),
                          ("x", DataType.FLOAT, True),
                          ("z", DataType.INTEGER, True),
                          ("d", DataType.DATE, False)],
                    primary_key=("id",))
    rows = []
    for n in range(160):
        value = n % 4 != 3 and not (96 <= n < 128 and n % 3 == 0)
        rows.append((n, n % 4, n % 40, n % 7 if value else None,
                     n / 8 + 0.1 if value else None,
                     (1 if n % 3 else 1.0) if value else None,
                     0 if value and n % 5 == 0 and n % 7 < 3 else n % 5 + 1,
                     datetime.date(2020, 1, 31) + datetime.timedelta(n)))
    db.insert("k", rows)
    return db


FOLD_CORPUS = [
    "select k.id, k.i + 1, 2 - k.i, k.i * 3, k.i * k.f, k.f - k.i,"
    " k.f + k.f, k.i < k.f, 2 > k.i, k.i = 2, k.f <> k.i from k",
    "select k.id, k.d + interval '1' month, k.d - interval '3' day from k",
    "select k.g, sum(k.i), avg(k.f), min(k.x), max(k.x), count(k.i),"
    " count(distinct k.i), count(*), sum(k.i * k.f), avg(k.i * k.f)"
    " from k group by k.g",
    "select k.h, sum(k.i), avg(k.f), min(k.x), max(k.x), count(k.i),"
    " count(distinct k.i), count(*), sum(k.i * k.f), min(k.f), max(k.i)"
    " from k group by k.h",
    "select sum(k.i), avg(k.f), min(k.x), max(k.x), count(k.i),"
    " count(distinct k.f), count(*), max(k.d) from k",
    "select k.g, k.h, sum(k.f), count(distinct k.x) from k"
    " where k.i > 1 group by k.g, k.h",
    # the division's NULL rows and zero divisors all fail ``k.i > 2``
    "select k.id from k where k.i > 2 and k.id / k.z > 0",
    "select k.id from k where k.i > 2 and k.f < 15.0 and k.id / k.z >= 1",
]


def _typed(rows):
    """Rows with each value's type, so 1 and 1.0 differ."""
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def test_kernels_and_folds_switch_per_batch():
    db = fold_db()
    for sql in FOLD_CORPUS:
        assert_engines_agree(db, sql)
        expected = outcome(db, sql, FULL, "tuple")
        actual = outcome(db, sql, FULL, "vectorized")
        assert isinstance(expected, list) and expected, sql
        assert _typed(actual) == _typed(expected), sql
    # a zero divisor behind a conjunct it passes: both engines raise
    sql = "select k.id from k where k.i >= 0 and k.id / k.z > 0"
    assert_engines_agree(db, sql)
    assert outcome(db, sql, FULL, "vectorized") is ZeroDivisionError
    # MIN/MAX keep the first of the equal 1 and 1.0 of each group
    by_h = {row[0]: row[3:5] for row in
            db.execute(FOLD_CORPUS[3], engine="vectorized").rows}
    assert _typed([by_h[0], by_h[1]]) == _typed([(1.0, 1.0), (1, 1)])
    assert by_h[3] == (None, None)


# -- TPC-H corpus --------------------------------------------------------------

@pytest.fixture(scope="module")
def tpch_db():
    db = Database(batch_size=256)
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.001, seed=7)
    return db


@pytest.fixture(scope="module")
def tiny_tpch_db():
    """Smallest instance, for the quadratic naive oracle."""
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.0001, seed=11)
    return db


class TestTpchCorpus:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_vectorized_bit_identical_to_tuple(self, tpch_db, name):
        sql = QUERIES[name]
        for mode in ALL_MODES:
            reference = tpch_db.execute(sql, mode, engine="tuple")
            result = tpch_db.execute(sql, mode, engine="vectorized")
            assert result.rows == reference.rows, \
                f"{name} under {mode.name}"
            assert result.names == reference.names

    # Same subset as test_tpch.TestQueryCorrectness: the remaining
    # queries are intractable under naive (cross-product) evaluation.
    NAIVE_FEASIBLE = ("Q1", "Q4", "Q6", "Q11", "Q12", "Q13", "Q14",
                      "Q15", "Q16", "Q17", "Q19", "Q22")

    @pytest.mark.parametrize("name", NAIVE_FEASIBLE)
    def test_vectorized_agrees_with_naive(self, tiny_tpch_db, name):
        reference = tiny_tpch_db.execute(QUERIES[name], NAIVE)
        result = tiny_tpch_db.execute(QUERIES[name], FULL,
                                      engine="vectorized")
        assert _rounded(result.rows) == _rounded(reference.rows)

    def test_sum_folds_like_tuple_under_compensated_sum(self, tpch_db,
                                                          monkeypatch):
        """CPython 3.12's builtin ``sum`` compensates float rounding; the
        vectorized SUM/AVG must keep the tuple engine's left fold."""
        monkeypatch.setattr(vectorized, "sum", _compensated_sum,
                            raising=False)
        sql = QUERIES["Q1"]
        reference = tpch_db.execute(sql, FULL, engine="tuple")
        result = tpch_db.execute(sql, FULL, engine="vectorized")
        assert result.rows == reference.rows

    def test_paper_formulations_bit_identical(self, tpch_db):
        for name, sql in paper_example_formulations().items():
            reference = tpch_db.execute(sql, FULL, engine="tuple")
            result = tpch_db.execute(sql, FULL, engine="vectorized")
            assert result.rows == reference.rows, name


def _compensated_sum(values, start=0):
    """Neumaier summation, as CPython 3.12's builtin ``sum`` does over
    floats."""
    values = list(values)
    if not any(isinstance(v, float) for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def _rounded(rows, digits=6):
    return Counter(
        tuple(round(v, digits) if isinstance(v, float) else v
              for v in row)
        for row in rows)
