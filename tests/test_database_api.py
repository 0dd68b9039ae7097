"""Tests for the public Database facade and the plan printers."""

import pytest

from repro import (CORRELATED, DECORRELATE_ONLY, FULL, MODES, NAIVE,
                   Database, DataType, QueryResult)
from repro.algebra import plan_signature
from repro.errors import BindError, CatalogError, ExecutionError
from repro.physical import explain_physical


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("a", DataType.INTEGER, False),
                                ("b", DataType.VARCHAR, True)],
                          primary_key=("a",))
    database.insert("t", [(1, "x"), (2, None), (3, "z")])
    return database


class TestDatabaseFacade:
    def test_modes_registry(self):
        assert set(MODES) == {"full", "decorrelate_only", "correlated",
                              "naive"}
        assert MODES["full"] is FULL

    def test_query_result_api(self, db):
        result = db.execute("select a, b from t order by a")
        assert isinstance(result, QueryResult)
        assert result.names == ["a", "b"]
        assert len(result) == 3
        assert list(result) == [(1, "x"), (2, None), (3, "z")]
        assert result == [(1, "x"), (2, None), (3, "z")]
        assert "3 rows" in repr(result)

    def test_create_table_tuple_forms(self):
        database = Database()
        database.create_table("u", [("x", DataType.INTEGER),
                                    ("y", DataType.VARCHAR, False)])
        database.insert("u", [(None, "ok")])
        with pytest.raises(ExecutionError):
            database.insert("u", [(1, None)])  # y NOT NULL

    def test_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.create_table("t", [("x", DataType.INTEGER)])

    def test_insert_returns_count(self, db):
        assert db.insert("t", [(10, "a"), (11, "b")]) == 2

    def test_explain_has_both_sections(self, db):
        text = db.explain("select a from t where a > 1")
        assert "-- logical (normalized) --" in text
        assert "-- physical --" in text
        assert "TableScan(t; 1 of 2 columns)" in text

    def test_explain_naive_mode_logical_only(self, db):
        text = db.explain("select a from t", NAIVE)
        assert "-- physical --" not in text

    def test_explain_with_costs(self, db):
        text = db.explain("select a from t where a > 1", costs=True)
        assert "-- estimates --" in text
        assert "cost:" in text and "rows:" in text
        cost_line = [l for l in text.splitlines()
                     if l.startswith("cost:")][0]
        assert float(cost_line.split(":")[1]) > 0

    def test_plan_returns_physical(self, db):
        plan = db.plan("select a from t")
        assert "TableScan" in explain_physical(plan)

    def test_unknown_table_error(self, db):
        with pytest.raises(CatalogError):
            db.execute("select * from missing")

    def test_bind_error_propagates(self, db):
        with pytest.raises(BindError):
            db.execute("select missing_col from t")

    def test_secondary_index_used_in_plans(self, db):
        # enough rows that a seek beats the scan in the cost model
        db.insert("t", [(i, f"v{i}") for i in range(100, 400)])
        db.create_index("ix_b", "t", ["b"])
        plan = db.plan("select a from t where b = 'x'")
        assert "IndexSeek" in explain_physical(plan)

    def test_ordered_index_kind(self, db):
        db.create_index("ix_ord", "t", ["b"], kind="ordered")
        result = db.execute("select a from t where b = 'z'")
        assert result.rows == [(3,)]

    def test_empty_select_no_from(self, db):
        result = db.execute("select 1 as one, 'a' as letter")
        assert result.rows == [(1, "a")]
        assert result.names == ["one", "letter"]

    def test_drop_table(self, db):
        db.drop_table("t")
        assert "t" not in db.table_names()
        with pytest.raises(CatalogError):
            db.execute("select * from t")

    def test_table_names_and_statistics(self, db):
        assert db.table_names() == ["t"]
        stats = db.table_statistics("t")
        assert stats.row_count == 3
        assert stats.column("a").distinct_count == 3


class TestPlanSignatures:
    def test_signature_normalizes_column_ids(self, db):
        sql = "select a from t where a > 1"
        first = plan_signature(db._binder.bind(__import__(
            "repro.sql", fromlist=["parse"]).parse(sql)).rel)
        second = plan_signature(db._binder.bind(__import__(
            "repro.sql", fromlist=["parse"]).parse(sql)).rel)
        assert first == second  # fresh column ids, same signature

    def test_signature_distinguishes_structures(self, db):
        from repro.sql import parse
        a = plan_signature(db._binder.bind(
            parse("select a from t where a > 1")).rel)
        b = plan_signature(db._binder.bind(
            parse("select a from t where a > 2")).rel)
        assert a != b


class TestExplainStability:
    def test_explain_deterministic(self, db):
        sql = """select a from t
                 where a in (select a from t where b is not null)"""
        import re
        first = re.sub(r"#\d+", "#x", db.explain(sql))
        second = re.sub(r"#\d+", "#x", db.explain(sql))
        assert first == second
