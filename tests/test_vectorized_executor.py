"""Unit tests for the vectorized batch engine's building blocks.

The differential oracle (test_differential.py) establishes end-to-end
agreement; this module pins the engine's own contracts — batch helpers,
batch-boundary behavior, error paths, and the engine-specific execution
decisions that the oracle can only observe indirectly.
"""

import pytest

from repro import Database, DataType, ExecutionError, ResourceExhausted
from repro.errors import SubqueryReturnedMultipleRows
from repro.executor import Batch, VectorizedExecutor
from repro.executor.vectorized import (batch_rows, columns_to_batches,
                                       rows_to_batches, take_batch)


def make_db(batch_size=4) -> Database:
    db = Database(batch_size=batch_size)
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.INTEGER, True)],
                    primary_key=("a",))
    db.insert("t", [(i, i % 3 if i % 4 else None) for i in range(1, 11)])
    return db


class TestBatchHelpers:
    def test_take_batch_full_selection_is_identity(self):
        batch = Batch([[1, 2, 3], [4, 5, 6]], 3)
        assert take_batch(batch, [0, 1, 2]) is batch

    def test_take_batch_selects_rows(self):
        batch = Batch([[1, 2, 3], [4, 5, 6]], 3)
        taken = take_batch(batch, [0, 2])
        assert taken.columns == [[1, 3], [4, 6]]
        assert taken.nrows == 2

    def test_batch_rows_zero_columns_keeps_cardinality(self):
        assert batch_rows(Batch([], 3)) == [(), (), ()]

    def test_rows_to_batches_chunks(self):
        batches = list(rows_to_batches(iter([(1,), (2,), (3,)]), 1, 2))
        assert [b.nrows for b in batches] == [2, 1]
        assert batches[0].columns == [[1, 2]]

    def test_rows_to_batches_zero_columns(self):
        batches = list(rows_to_batches(iter([(), (), ()]), 0, 2))
        assert [(b.columns, b.nrows) for b in batches] == [([], 2),
                                                           ([], 1)]

    def test_columns_to_batches_single_batch_shares_columns(self):
        cols = [[1, 2], [3, 4]]
        (only,) = columns_to_batches(cols, 2, 10)
        assert only.columns is cols

    def test_columns_to_batches_slices(self):
        batches = list(columns_to_batches([[1, 2, 3, 4, 5]], 5, 2))
        assert [b.columns[0] for b in batches] == [[1, 2], [3, 4], [5]]

    def test_columns_to_batches_empty(self):
        assert list(columns_to_batches([[]], 0, 4)) == []


class TestEngineContracts:
    def test_batch_size_must_be_positive(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            VectorizedExecutor(db.storage, batch_size=0)

    def test_database_rejects_unknown_default_engine(self):
        with pytest.raises(ValueError):
            Database(default_engine="columnar")

    def test_execute_rejects_unknown_engine(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.execute("select a from t", engine="columnar")

    def test_default_engine_is_used(self):
        db = Database(default_engine="vectorized", batch_size=3)
        db.create_table("t", [("a", DataType.INTEGER, False)],
                        primary_key=("a",))
        db.insert("t", [(i,) for i in range(5)])
        assert sorted(db.execute("select a from t").rows) == \
            [(i,) for i in range(5)]

    def test_results_cross_batch_boundaries(self):
        # 10 rows, batch_size 4: scan yields 4+4+2.
        db = make_db(batch_size=4)
        rows = db.execute("select a from t where b is not null",
                          engine="vectorized").rows
        reference = db.execute("select a from t where b is not null",
                               engine="tuple").rows
        assert rows == reference

    def test_batch_size_one_degenerates_to_row_at_a_time(self):
        db = make_db(batch_size=1)
        sql = "select b, count(*) from t group by b"
        assert db.execute(sql, engine="vectorized").rows == \
            db.execute(sql, engine="tuple").rows

    def test_max1row_violation_raises(self):
        db = make_db()
        sql = "select (select b from t) from t"
        with pytest.raises(SubqueryReturnedMultipleRows):
            db.execute(sql, engine="vectorized")

    def test_governor_row_budget_enforced_per_batch(self):
        db = make_db(batch_size=2)
        with pytest.raises(ResourceExhausted):
            db.execute("select a from t", engine="vectorized",
                       row_budget=3)

    def test_parameters_bind_in_vector_expressions(self):
        db = make_db()
        stmt = db.prepare("select a from t where a > ?",
                          engine="vectorized")
        assert len(stmt.execute([8]).rows) == 2
        assert len(stmt.execute([0]).rows) == 10

    def test_prepared_statement_reports_engine(self):
        db = make_db()
        stmt = db.prepare("select a from t", engine="vectorized")
        assert "vectorized" in repr(stmt)

    def test_naive_mode_ignores_engine(self):
        db = make_db()
        rows = db.execute("select a from t", mode="naive",
                          engine="vectorized").rows
        assert sorted(rows) == [(i,) for i in range(1, 11)]


class TestOperatorPaths:
    """Shapes chosen to land on specific _prepare_* implementations."""

    def _db(self):
        db = Database(batch_size=3)
        db.create_table("l", [("id", DataType.INTEGER, False),
                              ("k", DataType.INTEGER, True),
                              ("v", DataType.INTEGER, True)],
                        primary_key=("id",))
        db.create_table("r", [("id", DataType.INTEGER, False),
                              ("k", DataType.INTEGER, True),
                              ("w", DataType.INTEGER, True)],
                        primary_key=("id",))
        db.insert("l", [(1, 1, 10), (2, 1, 20), (3, 2, 30), (4, None, 40),
                        (5, 3, None), (6, 2, 60), (7, 1, 70)])
        db.insert("r", [(1, 1, 100), (2, 2, 200), (3, 2, 201),
                        (4, None, 300), (5, 5, 500)])
        return db

    def _agree(self, db, sql):
        vec = db.execute(sql, engine="vectorized")
        ref = db.execute(sql, engine="tuple")
        assert vec.rows == ref.rows, sql
        return vec.rows

    def test_hash_join_null_keys_never_match(self):
        rows = self._agree(
            self._db(),
            "select l.id, r.id from l, r where l.k = r.k")
        assert all(pair[0] != 4 for pair in rows)  # l.k NULL row

    def test_left_outer_join_pads_unmatched(self):
        rows = self._agree(
            self._db(),
            "select l.id, r.w from l left outer join r on r.k = l.k")
        padded = [r for r in rows if r[1] is None and r[0] in (4, 5)]
        assert len(padded) == 2

    def test_distinct_aggregates(self):
        self._agree(self._db(),
                    "select l.k, count(distinct l.v), sum(l.v) from l"
                    " group by l.k")

    def test_union_all_and_except_all(self):
        db = self._db()
        self._agree(db, "select l.k from l union all select r.k from r")
        self._agree(db, "select l.k from l except all select r.k from r")

    def test_order_by_limit_offset(self):
        self._agree(self._db(),
                    "select l.v from l order by l.v limit 3")

    def test_in_list_and_case(self):
        self._agree(self._db(),
                    "select case when l.v > 20 then l.k else 0 end"
                    " from l where l.k in (1, 2)")

    def test_scalar_aggregate_on_empty_input(self):
        db = self._db()
        rows = self._agree(
            db, "select count(*), sum(l.v) from l where l.k = 99")
        assert rows == [(0, None)]

    def test_correlated_subquery_runs_batched_inner(self):
        from repro import CORRELATED
        from repro.executor.batched_apply import compile_batched_apply
        from repro.physical import PNLApply

        db = self._db()
        sql = ("select l.id, (select sum(r.w) from r where r.k = l.k)"
               " from l")
        node = db.prepare(sql, CORRELATED).plan
        while not isinstance(node, PNLApply):
            (node,) = node.children
        # A correlated equality over a scan hashes the bindings and
        # scans r once per outer batch.
        assert compile_batched_apply(db.storage, node) is not None
        assert db.execute(sql, CORRELATED, engine="vectorized").rows == \
            db.execute(sql, CORRELATED, engine="tuple").rows
        self._agree(db, sql)

    def test_limit_above_apply_does_not_surface_a_later_error(self):
        # Regression: rows_to_batches drained a whole batch of outer rows
        # through the Apply before the Top could stop, so the Max1row
        # violation of the *second* outer row failed a LIMIT 1 query on
        # the vectorized engine only.
        db = Database(batch_size=1024)
        db.create_table("t", [("a", DataType.INTEGER, False)],
                        primary_key=("a",))
        db.create_table("s", [("x", DataType.INTEGER, False),
                              ("y", DataType.INTEGER, False)])
        db.insert("t", [(1,), (2,)])
        db.insert("s", [(1, 0), (2, 5), (2, 6)])
        sql = "select a, (select y from s where x = a) from t limit 1"
        for engine in ("tuple", "vectorized"):
            assert db.execute(sql, engine=engine).rows == [(1, 0)]
            with pytest.raises(SubqueryReturnedMultipleRows):
                db.execute(sql.replace(" limit 1", ""), engine=engine)

