"""Encoding differential harness for columnar storage.

The columnar layer must be invisible: for every combination of forced
per-column encoding (plain / dictionary / RLE), vectorized batch size
and chunk size, all three engines must return
exactly what they returned before — the vectorized engine bit-identical
to the tuple engine, both agreeing with the naive interpreter up to row
order.  Hypothesis drives NULL-rich inputs (the zone-map NULL rules and
the type-strict encodings earn their keep there); a fixed corpus pins
the historical divergences, including the all-padded-group outer-join
aggregate.
"""

import os
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (CORRELATED, DECORRELATE_ONLY, FULL, NAIVE, Database,
                   DataType)

DEEP = os.environ.get("REPRO_DIFF_DEEP", "").strip() not in ("", "0")
MAX_EXAMPLES = 120 if DEEP else 25

ENCODINGS = ("plain", "dict", "rle")
ALL_MODES = (FULL, DECORRELATE_ONLY, CORRELATED)

#: Queries covering the paths the columnar layer touches: plain scans,
#: zone-prunable filters (literal comparisons, IS NULL), grouped and
#: scalar aggregation, outer joins (incl. the all-padded-group
#: regression) and correlated subqueries.
CORPUS = (
    "select t.id, t.grp, t.val, t.tag from t",
    "select t.val from t where t.grp = 1",
    "select t.val from t where t.grp > 2 and t.val <= 3",
    "select t.id from t where t.val is null",
    "select t.id from t where t.val is not null and t.tag <> 0",
    "select t.grp, count(*), sum(t.val) from t group by t.grp",
    "select count(t.val), min(t.tag), max(t.grp) from t",
    "select t.id, s.amt from t join s on s.ref = t.grp",
    # the oracle's first catch: an all-padded group must count 0, not NULL
    "select t.grp, count(s.sid), sum(s.amt) from t"
    " left outer join s on s.ref = t.grp group by t.grp",
    "select t.id, (select sum(s.amt) from s where s.ref = t.grp) from t",
    "select t.grp from t where exists"
    " (select * from s where s.ref = t.grp) order by 1 limit 3",
)


def build_db(t_rows, s_rows, *, t_kinds, s_kinds, batch_size=3,
             chunk_rows=4) -> Database:
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
    db.insert("t", [(i + 1, *row) for i, row in enumerate(t_rows)])
    db.insert("s", [(i + 1, *row) for i, row in enumerate(s_rows)])
    db.storage.get("t").force_encodings(t_kinds)
    db.storage.get("s").force_encodings(s_kinds)
    return db


def assert_engines_agree(db: Database, sql: str) -> None:
    reference = Counter(db.execute(sql, NAIVE).rows)
    for mode in ALL_MODES:
        tuple_rows = db.execute(sql, mode, engine="tuple").rows
        vector_rows = db.execute(sql, mode, engine="vectorized").rows
        assert vector_rows == tuple_rows, \
            f"vectorized != tuple under {mode.name} on: {sql}"
        assert Counter(tuple_rows) == reference, \
            f"{mode.name} != naive on: {sql}"


nullable_int = st.one_of(st.none(), st.integers(0, 4))
t_rows_strategy = st.lists(st.tuples(nullable_int, nullable_int,
                                     nullable_int), max_size=12)
s_rows_strategy = st.lists(st.tuples(nullable_int, nullable_int),
                           max_size=9)
kind = st.sampled_from(ENCODINGS)


@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=not DEEP,
          database=None)
@given(t_rows=t_rows_strategy, s_rows=s_rows_strategy,
       t_kinds=st.tuples(kind, kind, kind, kind),
       s_kinds=st.tuples(kind, kind, kind),
       batch_size=st.sampled_from((1, 3, 7)),
       chunk_rows=st.sampled_from((2, 4, 16)),
       sql=st.sampled_from(CORPUS))
def test_encoding_sweep(t_rows, s_rows, t_kinds, s_kinds, batch_size,
                        chunk_rows, sql):
    db = build_db(t_rows, s_rows, t_kinds=t_kinds, s_kinds=s_kinds,
                  batch_size=batch_size, chunk_rows=chunk_rows)
    assert_engines_agree(db, sql)


# -- deterministic grid ---------------------------------------------------------

#: NULL-rich rows: every column has NULLs, one group is all-NULL, one
#: group exists only on the outer side (all-padded after the outer join).
NULL_RICH_T = [(None, None, None), (1, 2, None), (1, None, 0),
               (2, 0, 0), (None, 4, 1), (3, 1, None), (3, 3, 3),
               (2, None, None), (4, 2, 2)]
NULL_RICH_S = [(None, None), (1, 1), (1, None), (2, 0), (4, 4),
               (None, 3), (2, None)]


def test_uniform_encoding_grid_on_null_rich_input():
    """Every encoding on the NULL-rich fixture — the full corpus, all
    three engines."""
    for enc in ENCODINGS:
        db = build_db(NULL_RICH_T, NULL_RICH_S,
                      t_kinds=(enc,) * 4, s_kinds=(enc,) * 3)
        for sql in CORPUS:
            assert_engines_agree(db, sql)


def test_mixed_encodings_on_empty_and_tiny_tables():
    for t_rows, s_rows in (([], []), ([(1, 1, 1)], []),
                           ([], [(1, 1)])):
        db = build_db(t_rows, s_rows,
                      t_kinds=("rle", "dict", "plain", "rle"),
                      s_kinds=("dict", "rle", "plain"))
        for sql in CORPUS:
            assert_engines_agree(db, sql)


def test_forced_encodings_survive_further_writes():
    """Writes after ``force_encodings`` seal new chunks with freshly
    chosen encodings; the re-encoded old chunks keep their data."""
    db = build_db(NULL_RICH_T, NULL_RICH_S,
                  t_kinds=("rle",) * 4, s_kinds=("dict",) * 3)
    db.insert("t", [(100 + i, i % 2, i, None) for i in range(6)])
    for sql in CORPUS:
        assert_engines_agree(db, sql)
