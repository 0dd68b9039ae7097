"""Materialized views must be invisible to query results.

For every query the rewrite can touch — exact-group, coarser-group,
global-aggregate, residual-predicate and parameterized forms — the
views-on answer must be bit-identical to the views-off answer across
all three engines and all three execution modes, *including after
commits have folded deltas into the view backings*.  A second view
carries a WHERE over the nullable column (BETWEEN, IN lists holding
NULL, IS [NOT] NULL, OR/NOT, arithmetic), so maintenance must drop
exactly the delta rows the defining query's filter drops.  Hypothesis drives
NULL-rich base data and random delta batches; the integer-only value
domain keeps every stored partial sum exact, so "bit-identical" is a
meaningful claim (float partial sums re-associate and are documented
as approximate, see ``repro.matview.maintenance``).
"""

import os
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (CORRELATED, DECORRELATE_ONLY, FULL, NAIVE, Database,
                   DataType)

DEEP = os.environ.get("REPRO_DIFF_DEEP", "").strip() not in ("", "0")
MAX_EXAMPLES = 40 if DEEP else 8

ALL_MODES = (FULL, DECORRELATE_ONLY, CORRELATED)

VIEW_SQL = ("SELECT g, h, count(*) AS n, count(v) AS nv, sum(v) AS s, "
            "avg(v) AS a, min(v) AS lo, max(v) AS hi "
            "FROM t GROUP BY g, h")

#: Aggregate queries the view can answer, plus shapes it must refuse.
CORPUS = (
    # exact grouping
    "select t.g, t.h, count(*), sum(t.v), avg(t.v) from t"
    " group by t.g, t.h",
    # coarsening: re-aggregate stored partials
    "select t.g, count(*), count(t.v), sum(t.v), avg(t.v),"
    " min(t.v), max(t.v) from t group by t.g",
    "select t.h, max(t.v) from t group by t.h order by 1",
    # global aggregate (empty-input COUNT must stay 0)
    "select count(*), count(t.v), sum(t.v), avg(t.v) from t",
    "select count(*), sum(t.v) from t where t.g = 2 and t.h = 0",
    # residual predicates over group columns
    "select t.g, sum(t.v) from t where t.h <= 1 group by t.g",
    # shapes the view cannot answer: must silently take the base plan
    "select t.v, count(*) from t group by t.v",
    "select t.g, sum(t.v) from t where t.v > 0 group by t.g",
)

#: The filtered view's WHERE.  Every conjunct meets NULL ``v`` through
#: a different 3VL path; the matcher consumes the view's conjuncts only
#: when a query repeats them verbatim.
FILTER = ("(v BETWEEN -20 AND 30 OR v IN (1, NULL, -45)"
          " OR v NOT IN (2, NULL) OR v IS NULL)"
          " AND (v IS NOT NULL OR NOT (g = 2))"
          " AND (v IS NULL OR (v * 2 - h < 40 AND NOT (- v > 45)))")

FILTERED_VIEW_SQL = ("SELECT g, h, count(*) AS n, count(v) AS nv, "
                     "sum(v) AS s, min(v) AS lo, max(v) AS hi "
                     f"FROM t WHERE {FILTER} GROUP BY g, h")

#: Queries only the filtered view can answer.
FILTERED_CORPUS = (
    f"select t.g, count(*), sum(t.v), min(t.v), max(t.v) from t"
    f" where {FILTER} group by t.g",
    f"select count(*), count(t.v), avg(t.v) from t where {FILTER}",
    f"select t.g, t.h, sum(t.v) from t where {FILTER} and t.h = 1"
    f" group by t.g, t.h",
)

PARAM_SQL = "select t.g, count(*), sum(t.v) from t where t.h = ?" \
            " group by t.g order by 1"

row = st.tuples(st.integers(0, 3), st.integers(0, 2),
                st.one_of(st.none(), st.integers(-50, 50)))
rows_strategy = st.lists(row, min_size=0, max_size=25)
delta_strategy = st.lists(row, min_size=1, max_size=10)


def build_pair(rows):
    """Two identical databases: one with both views, one without."""
    dbs = []
    for with_view in (False, True):
        db = Database(batch_size=3, chunk_rows=4)
        db.create_table("t", [("g", DataType.INTEGER, False),
                              ("h", DataType.INTEGER, False),
                              ("v", DataType.INTEGER, True)])
        if rows:
            db.insert("t", rows)
        if with_view:
            db.matviews.create("mv", VIEW_SQL)
            db.matviews.create("mv_f", FILTERED_VIEW_SQL)
        dbs.append(db)
    return dbs[0], dbs[1]


def _row_key(row):
    return tuple((value is None, value) for value in row)


def sorted_rows(rows):
    """Canonical order for comparing unordered aggregate output: the
    rewrite re-aggregates view backing rows, so group *order* follows
    the backing layout — contents must still match exactly."""
    return sorted(rows, key=_row_key)


def assert_identical(plain: Database, viewed: Database, sql: str,
                     params=None) -> None:
    reference = Counter(plain.execute(sql, NAIVE, params=params).rows)
    for mode in ALL_MODES:
        expected = sorted_rows(plain.execute(sql, mode, params=params,
                                             engine="tuple").rows)
        for engine in ("tuple", "vectorized"):
            got = sorted_rows(viewed.execute(sql, mode, params=params,
                                             engine=engine).rows)
            assert got == expected, \
                f"views-on {engine} != views-off under {mode.name}: {sql}"
    naive_viewed = Counter(viewed.execute(sql, NAIVE, params=params).rows)
    assert naive_viewed == reference, f"naive disagrees on: {sql}"


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(rows=rows_strategy)
def test_rewrite_is_invisible(rows):
    plain, viewed = build_pair(rows)
    for sql in CORPUS + FILTERED_CORPUS:
        assert_identical(plain, viewed, sql)
    for value in (0, 1, 2):
        assert_identical(plain, viewed, PARAM_SQL, params=[value])


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(rows=rows_strategy, deltas=st.lists(delta_strategy, min_size=1,
                                           max_size=3))
def test_incremental_maintenance_is_invisible(rows, deltas):
    plain, viewed = build_pair(rows)
    for delta in deltas:
        for db in (plain, viewed):
            with db.session() as session:
                session.begin()
                session.insert("t", delta)
                session.commit()
    assert viewed.matviews.status()["maintained_commits"] == len(deltas)
    for sql in CORPUS + FILTERED_CORPUS:
        assert_identical(plain, viewed, sql)
    # Each incrementally maintained backing must equal a full recompute.
    for view in ("mv", "mv_f"):
        maintained = sorted(viewed.storage.get(view).rows, key=_row_key)
        viewed.matviews.refresh(view)
        assert sorted(viewed.storage.get(view).rows,
                      key=_row_key) == maintained, view


def test_filtered_corpus_is_answered_by_the_filtered_view():
    """Guards the suite against passing vacuously: every filtered query
    must really be rewritten to scan ``mv_f``."""
    _, viewed = build_pair([(0, 0, 1), (2, 1, None), (3, 2, -50)])
    for sql in FILTERED_CORPUS:
        payload = viewed.explain(sql, format="dict")
        assert payload["matview"]["view"] == "mv_f", sql


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(rows=rows_strategy, delta=delta_strategy)
def test_autocommit_inserts_maintain_the_view(rows, delta):
    plain, viewed = build_pair(rows)
    plain.insert("t", delta)
    viewed.insert("t", delta)
    for sql in CORPUS[:4] + FILTERED_CORPUS[:1]:
        assert_identical(plain, viewed, sql)
