"""Resource governor: timeouts, row/memory budgets, optimizer budgets,
execution statistics and graceful plan degradation."""

from collections import Counter

import pytest

from repro import (CORRELATED, FULL, NAIVE, Database, DataType,
                   OptimizerBudget, OptimizerBudgetExceeded, QueryTimeout,
                   ReproError, ResourceError, ResourceExhausted,
                   ResourceGovernor)
from repro.core.optimizer import Optimizer


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("a", DataType.INTEGER, False),
                                ("b", DataType.INTEGER, False)],
                          primary_key=("a",))
    database.create_table("u", [("uk", DataType.INTEGER, False),
                                ("ua", DataType.INTEGER, False)],
                          primary_key=("uk",))
    database.insert("t", [(i, i % 17) for i in range(500)])
    database.insert("u", [(i, i % 23) for i in range(300)])
    return database


JOIN_AGG = """
    select b, count(*) from t
    where exists (select * from u where ua = b)
    group by b order by b
"""


class TestErrorHierarchy:
    def test_governor_errors_are_repro_errors(self):
        assert issubclass(QueryTimeout, ResourceError)
        assert issubclass(ResourceExhausted, ResourceError)
        assert issubclass(OptimizerBudgetExceeded, ResourceError)
        assert issubclass(ResourceError, ReproError)

    def test_governor_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            ResourceGovernor(timeout=-1.0)
        with pytest.raises(ValueError):
            ResourceGovernor(row_budget=0)
        with pytest.raises(ValueError):
            ResourceGovernor(memory_budget=-5)


class TestTimeout:
    @pytest.mark.parametrize("mode", [FULL, NAIVE, CORRELATED])
    def test_zero_timeout_raises_deterministically(self, db, mode):
        for _ in range(3):  # deterministic, not a race
            with pytest.raises(QueryTimeout):
                db.execute("select a from t where b >= 0", mode,
                           timeout=0.0)

    def test_timeout_reports_limit_and_elapsed(self, db):
        with pytest.raises(QueryTimeout) as info:
            db.execute("select a from t", timeout=0.0)
        assert info.value.timeout == 0.0
        assert info.value.elapsed >= 0.0

    def test_generous_timeout_passes(self, db):
        result = db.execute(JOIN_AGG, FULL, timeout=60.0)
        assert not result.degraded
        assert len(result) > 0


class TestRowBudget:
    def test_scan_exceeding_budget_raises(self, db):
        with pytest.raises(ResourceExhausted) as info:
            db.execute("select a from t", row_budget=10)
        assert info.value.resource == "row"
        assert info.value.limit == 10

    def test_budget_covers_correlated_rescans(self, db):
        # Correlated execution rescans the inner table per outer row, so
        # the budget trips long before the (small) result materializes.
        sql = "select a from t where b = (select min(uk) from u where ua = b)"
        with pytest.raises(ResourceExhausted):
            db.execute(sql, CORRELATED, row_budget=2000)

    def test_naive_mode_is_governed_too(self, db):
        with pytest.raises(ResourceExhausted):
            db.execute("select a from t", NAIVE, row_budget=10)

    def test_sufficient_budget_passes_and_reports(self, db):
        result = db.execute("select a from t", row_budget=10_000)
        assert len(result) == 500
        assert result.stats.governed
        assert 500 <= result.stats.rows_examined <= 10_000

    def test_explain_analyze_is_governed_like_the_query(self, db):
        # EXPLAIN ANALYZE executes the query: same budget, same verdict.
        sql = "select count(*) from t t1, t t2 where t1.a < t2.a"
        with pytest.raises(ResourceExhausted):
            db.execute(sql, row_budget=10)
        with pytest.raises(ResourceExhausted) as info:
            db.execute("EXPLAIN ANALYZE " + sql, row_budget=10)
        assert info.value.limit == 10
        with pytest.raises(ResourceExhausted):
            db.prepare(sql).execute(row_budget=10)
        with pytest.raises(QueryTimeout):
            db.execute("explain analyze " + sql, timeout=0.0)
        # Plain EXPLAIN executes nothing, so a row budget cannot trip.
        assert db.execute("EXPLAIN " + sql, row_budget=10).rows


class TestMemoryBudget:
    def test_sort_buffer_exceeds_budget(self, db):
        with pytest.raises(ResourceExhausted) as info:
            db.execute("select a from t order by b", memory_budget=100)
        assert info.value.resource == "memory"

    def test_hash_join_build_exceeds_budget(self, db):
        with pytest.raises(ResourceExhausted):
            db.execute("select t.a from t, u where t.a = u.uk",
                       memory_budget=50)

    def test_aggregation_groups_exceed_budget(self, db):
        # 500 distinct groups > 100-row budget.
        with pytest.raises(ResourceExhausted):
            db.execute("select a, count(*) from t group by a",
                       memory_budget=100)

    def test_peak_accounting_releases_buffers(self, db):
        result = db.execute("select a from t order by b",
                            memory_budget=10_000)
        assert len(result) == 500
        assert 500 <= result.stats.peak_rows_buffered <= 10_000

    def test_small_aggregate_fits_small_budget(self, db):
        # 17 groups fit comfortably although 500 rows flow through.
        result = db.execute("select b, count(*) from t group by b",
                            memory_budget=100)
        assert len(result) == 17


class TestOptimizerBudget:
    def test_optimizer_raises_budget_exceeded_directly(self, db):
        governor = ResourceGovernor(
            optimizer_budget=OptimizerBudget(max_rule_applications=1))
        governor.start()
        optimizer = Optimizer(db._stats_provider, db._index_provider,
                              governor=governor)
        from repro.core.normalize import normalize
        from repro.sql import parse
        bound = db._binder.bind(parse(JOIN_AGG))
        with pytest.raises(OptimizerBudgetExceeded):
            optimizer.optimize(normalize(bound.rel))

    def test_execute_degrades_instead_of_failing(self, db):
        reference = Counter(db.execute(JOIN_AGG, NAIVE).rows)
        result = db.execute(
            JOIN_AGG, FULL,
            optimizer_budget=OptimizerBudget(max_rule_applications=1))
        assert result.degraded
        assert "OptimizerBudgetExceeded" in result.stats.fallback_reason
        assert Counter(result.rows) == reference

    def test_memo_group_cap_degrades(self, db):
        reference = Counter(db.execute(JOIN_AGG, NAIVE).rows)
        result = db.execute(
            JOIN_AGG, FULL,
            optimizer_budget=OptimizerBudget(max_memo_groups=1))
        assert result.degraded
        assert Counter(result.rows) == reference

    def test_explain_shows_the_degraded_rung_execute_runs(self, db):
        budget = OptimizerBudget(max_rule_applications=1)
        rendered = "\n".join(row[0] for row in db.execute(
            "EXPLAIN " + JOIN_AGG, optimizer_budget=budget))
        assert "-- physical --" in rendered  # the heuristic rung
        assert "-- degraded --" in rendered
        assert "OptimizerBudgetExceeded" in rendered
        # ... and an undegraded rendering has no such section.
        assert "degraded" not in db.explain(JOIN_AGG)
        assert "degraded" not in db.explain(JOIN_AGG, format="dict")

    def test_degraded_plan_never_enters_cache(self, db):
        db.plan_cache.invalidate()
        before = len(db.plan_cache)
        result = db.execute(
            JOIN_AGG, FULL,
            optimizer_budget=OptimizerBudget(max_rule_applications=1))
        assert result.degraded
        assert len(db.plan_cache) == before
        # Re-running without the handicap caches a fully optimized plan.
        clean = db.execute(JOIN_AGG, FULL)
        assert not clean.degraded
        assert len(db.plan_cache) == before + 1


class TestStats:
    def test_ungoverned_queries_still_report_elapsed(self, db):
        result = db.execute("select a from t limit 5")
        assert not result.stats.governed
        assert result.stats.elapsed_seconds >= 0.0
        assert not result.stats.degraded
        assert result.stats.fallback_reason is None

    def test_governed_stats_cover_optimizer_and_execution(self, db):
        db.plan_cache.invalidate()  # force a fresh, governed optimization
        result = db.execute(JOIN_AGG, FULL, timeout=60.0,
                            row_budget=10**9, memory_budget=10**9)
        stats = result.stats
        assert stats.governed
        assert stats.rule_applications > 0
        assert stats.memo_groups > 0
        assert stats.rows_examined > 0
        assert stats.timeout == 60.0

    def test_explicit_governor_is_honored(self, db):
        governor = ResourceGovernor(row_budget=10)
        with pytest.raises(ResourceExhausted):
            db.execute("select a from t", governor=governor)
        assert governor.rows_examined > 10


class TestPreparedStatements:
    def test_prepared_execute_accepts_limits(self, db):
        statement = db.prepare("select a from t where b = ?")
        result = statement.execute([3], timeout=60.0, row_budget=10_000)
        assert result.stats.governed
        with pytest.raises(QueryTimeout):
            statement.execute([3], timeout=0.0)

    def test_prepared_budget_violation_is_per_execution(self, db):
        statement = db.prepare("select a from t")
        with pytest.raises(ResourceExhausted):
            statement.execute(row_budget=10)
        assert len(statement.execute()) == 500  # unharmed afterwards
