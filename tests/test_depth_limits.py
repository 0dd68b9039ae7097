"""Depth caps: pathological nesting must yield clear errors, never a raw
RecursionError, while reasonable nesting keeps working."""

import pytest

from repro import Database, DataType, PlanError, SqlSyntaxError
from repro.algebra.relational import ConstantScan, Select
from repro.algebra.scalar import Literal
from repro.core.normalize import (MAX_PLAN_DEPTH, check_plan_depth,
                                  normalize, tree_depth)
from repro.sql import classify_statement
from repro.sql.parser import MAX_NESTING_DEPTH, parse


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("a", DataType.INTEGER, False)],
                          primary_key=("a",))
    database.insert("t", [(i,) for i in range(5)])
    return database


def deep_parens(levels):
    return "select " + "(" * levels + "1" + ")" * levels + " from t"


def deep_subqueries(levels):
    sql = "select a from t"
    for _ in range(levels):
        sql = f"select a from ({sql}) as s"
    return sql


class TestParserCap:
    @pytest.mark.parametrize("build", [deep_parens, deep_subqueries])
    def test_pathological_nesting_is_a_syntax_error(self, build):
        with pytest.raises(SqlSyntaxError) as info:
            parse(build(MAX_NESTING_DEPTH + 10))
        assert "depth" in str(info.value)

    def test_cap_fires_before_the_interpreter_limit(self):
        # The guarantee under test: deeper than any cap, the parser must
        # still produce SqlSyntaxError rather than RecursionError.
        with pytest.raises(SqlSyntaxError):
            parse(deep_parens(500))

    def test_deep_not_chain_capped(self):
        sql = "select a from t where " + "not " * (MAX_NESTING_DEPTH + 10) \
              + "a > 0"
        with pytest.raises(SqlSyntaxError):
            parse(sql)

    def test_deep_unary_minus_chain_capped(self):
        with pytest.raises(SqlSyntaxError):
            parse("select " + "- " * (MAX_NESTING_DEPTH + 10) + "a from t")

    def test_unary_plus_chain_is_iterative(self):
        # '+' is a no-op, parsed with a loop: no depth to exhaust.
        ast = parse("select " + "+ " * 300 + "a from t")
        assert ast is not None

    def test_moderate_nesting_still_parses_and_runs(self, db):
        result = db.execute(deep_subqueries(10))
        assert sorted(result.rows) == [(i,) for i in range(5)]
        assert db.execute(deep_parens(10)).rows[0] == (1,)

    def test_error_carries_position(self):
        with pytest.raises(SqlSyntaxError) as info:
            parse(deep_parens(MAX_NESTING_DEPTH + 10))
        assert info.value.line is not None


class TestNormalizerCap:
    def deep_tree(self, levels):
        rel = ConstantScan([], [()])
        for _ in range(levels):
            rel = Select(rel, Literal(True))
        return rel

    def test_tree_depth_is_iterative(self):
        # Must survive trees far deeper than the recursion limit.
        assert tree_depth(self.deep_tree(5000)) == 5001

    def test_check_plan_depth_rejects_beyond_limit(self):
        with pytest.raises(PlanError) as info:
            check_plan_depth(self.deep_tree(MAX_PLAN_DEPTH + 1))
        assert "nested" in str(info.value)

    def test_normalize_rejects_pathological_trees(self):
        with pytest.raises(PlanError):
            normalize(self.deep_tree(MAX_PLAN_DEPTH + 50))

    def test_normalize_accepts_reasonable_trees(self):
        out = normalize(self.deep_tree(MAX_PLAN_DEPTH - 20))
        assert out is not None


class TestPlanCacheKeyHardening:
    def test_unparsable_sql_falls_back_to_raw_text(self):
        broken = "select 'oops"  # unterminated string → SqlSyntaxError
        assert classify_statement(broken).key == broken

    def test_valid_sql_is_canonicalized(self):
        a = classify_statement("SELECT  a   FROM t").key
        b = classify_statement("select a from t").key
        assert a == b

    def test_non_syntax_bugs_are_not_swallowed(self):
        # The old bare `except Exception` hid genuine lexer/driver bugs;
        # only SqlSyntaxError may trigger the raw-text fallback.
        with pytest.raises(Exception) as info:
            classify_statement(None).key
        assert not isinstance(info.value, SqlSyntaxError)
