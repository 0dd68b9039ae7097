"""Plan cache behaviour: hits, LRU, DDL invalidation, staleness."""

import sys

import pytest

from repro import Database, DataType, PlanCache, SqlSyntaxError
from repro.plancache import CachedPlan
from repro.sql import classify_statement
from repro.stats_version import StatsSnapshot, capture, drifted


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.VARCHAR, False)],
                    primary_key=("a",))
    db.insert("t", [(1, "x"), (2, "y"), (3, "z")])
    return db


def normalize_sql_key(sql):
    return classify_statement(sql).key


def count_lexer_calls(monkeypatch) -> list:
    """Swap ``tokenize`` for a recording wrapper in every ``repro``
    namespace that imported it; returns the list the calls land in."""
    from repro.sql.lexer import tokenize
    calls = []

    def recording(text):
        calls.append(text)
        return tokenize(text)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, "tokenize", None) is tokenize):
            monkeypatch.setattr(module, "tokenize", recording)
    return calls


class TestKeyNormalization:
    def test_whitespace_and_case_insensitive(self):
        assert normalize_sql_key("SELECT  a FROM t") == \
            normalize_sql_key("select a\nfrom t")

    def test_distinct_statements_have_distinct_keys(self):
        assert normalize_sql_key("select 1") != normalize_sql_key("select 2")

    def test_string_literals_are_case_sensitive(self):
        assert normalize_sql_key("select 'A'") != \
            normalize_sql_key("select 'a'")

    def test_unlexable_text_falls_back_to_raw(self):
        assert normalize_sql_key("select $$$") == "select $$$"


class TestHitsAndMisses:
    def test_repeat_execution_hits(self):
        db = make_db()
        db.execute("select a from t")
        assert db.plan_cache.stats.misses == 1
        db.execute("select a from t")
        db.execute("SELECT a FROM t")  # same statement modulo lexing
        assert db.plan_cache.stats.hits == 2
        assert db.plan_cache.stats.misses == 1

    @pytest.mark.parametrize("first, again, lexable", [
        ("select a from t where a > 1",
         "SELECT a\n  FROM t   WHERE a > 1", True),
        ("-- c\nEXPLAIN ANALYZE select a from t",
         "-- c\nexplain analyze\n  SELECT a FROM t", True),
        # ``/* */`` is not a comment in this dialect, and ``$`` does not
        # lex: both must surface the parser's / lexer's real error.
        ("/* c */ refresh materialized view v",
         "/* c */ refresh materialized view v", False),
        ("select $$$", "select $$$", False),
    ])
    def test_statement_is_lexed_once(self, monkeypatch, first, again,
                                     lexable):
        """A cache hit runs the lexer exactly once and a miss at most
        twice, whatever the statement kind; the cached answer equals the
        freshly compiled one."""
        db = make_db()
        calls = count_lexer_calls(monkeypatch)

        def stable(result):  # EXPLAIN ANALYZE reports its elapsed time
            return [row for row in result.rows
                    if not str(row[0]).startswith("elapsed:")]

        if not lexable:
            for sql in (first, again):
                del calls[:]
                with pytest.raises(SqlSyntaxError):
                    db.execute(sql)
                assert len(calls) <= 2
            assert len(db.plan_cache) == 0
            return
        fresh = db.execute(first)
        assert 1 <= len(calls) <= 2
        assert db.plan_cache.stats.misses == 1
        del calls[:]
        cached = db.execute(again)
        assert len(calls) == 1
        assert db.plan_cache.stats.hits == 1
        assert db.plan_cache.stats.misses == 1
        assert stable(cached) == stable(fresh)

    def test_lexed_statement_is_released_before_execution(self, monkeypatch):
        """Execution must not hold the statement's tokens and key alive:
        a long query would carry them through every collection it
        triggers (on the benchmark that moved a full-collection pause
        from one TPC-H query into another)."""
        import weakref

        import repro.database as database
        db = make_db()
        lexed = []
        classify = database.classify_statement
        run_entry = database.Database._run_entry

        def classifying(sql):
            statement = classify(sql)
            lexed.append(weakref.ref(statement))
            return statement

        def running(self, *args, **kwargs):
            assert lexed and all(ref() is None for ref in lexed)
            return run_entry(self, *args, **kwargs)

        monkeypatch.setattr(database, "classify_statement", classifying)
        monkeypatch.setattr(database.Database, "_run_entry", running)
        assert db.execute("select a from t").rows == [(1,), (2,), (3,)]

    def test_modes_do_not_share_entries(self):
        db = make_db()
        db.execute("select a from t", mode="full")
        db.execute("select a from t", mode="naive")
        assert db.plan_cache.stats.misses == 2

    def test_engines_do_not_share_entries(self):
        # Regression: with the engine missing from the cache key, a
        # vectorized execute() after a tuple execute() of the same
        # statement replayed the tuple executable — same key,
        # incompatible executable type.
        db = make_db()
        first = db.execute("select a from t", engine="tuple")
        second = db.execute("select a from t", engine="vectorized")
        assert db.plan_cache.stats.misses == 2
        assert second.rows == first.rows
        db.execute("select a from t", engine="tuple")
        db.execute("select a from t", engine="vectorized")
        assert db.plan_cache.stats.hits == 2

    def test_prepared_statement_skips_replanning(self):
        db = make_db()
        stmt = db.prepare("select a from t where a = ?")
        assert db.plan_cache.stats.misses == 1
        for value in (1, 2, 3):
            stmt.execute((value,))
        assert db.plan_cache.stats.misses == 1
        assert db.plan_cache.stats.hits == 3

    def test_unknown_mode_name_rejected(self):
        db = make_db()
        with pytest.raises(ValueError, match="unknown execution mode"):
            db.execute("select a from t", mode="turbo")


class TestLRU:
    def test_eviction_beyond_capacity(self):
        db = make_db(plan_cache_capacity=2)
        db.execute("select 1 from t")
        db.execute("select 2 from t")
        db.execute("select 3 from t")
        assert len(db.plan_cache) == 2
        assert db.plan_cache.stats.evictions == 1
        # Oldest entry (select 1) was evicted: re-running it misses.
        misses = db.plan_cache.stats.misses
        db.execute("select 1 from t")
        assert db.plan_cache.stats.misses == misses + 1

    def test_touch_on_hit_protects_entry(self):
        db = make_db(plan_cache_capacity=2)
        db.execute("select 1 from t")
        db.execute("select 2 from t")
        db.execute("select 1 from t")  # touch: now `select 2` is LRU
        db.execute("select 3 from t")  # evicts `select 2`
        hits = db.plan_cache.stats.hits
        db.execute("select 1 from t")
        assert db.plan_cache.stats.hits == hits + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestDDLInvalidation:
    """Every DDL verb must force a replan of cached statements."""

    def _prime(self, db):
        db.execute("select a from t")
        assert len(db.plan_cache) == 1

    def test_create_table(self):
        db = make_db()
        self._prime(db)
        db.create_table("u", [("x", DataType.INTEGER)])
        assert len(db.plan_cache) == 0

    def test_drop_table(self):
        db = make_db()
        db.create_table("u", [("x", DataType.INTEGER)])
        self._prime(db)
        db.drop_table("u")
        assert len(db.plan_cache) == 0

    def test_create_index_triggers_replan_to_better_plan(self):
        db = make_db()
        db.insert("t", [(i, f"k{i}") for i in range(10, 200)])
        stmt = db.prepare("select a from t where b = ?")
        assert "IndexSeek" not in db.explain("select a from t where b = ?")
        assert stmt.execute(("k42",)).rows == [(42,)]
        db.create_index("ix_t_b", "t", ["b"])
        # The prepared handle transparently picks up the new index.
        assert "IndexSeek" in db.explain("select a from t where b = ?")
        assert stmt.execute(("k42",)).rows == [(42,)]

    def test_create_view(self):
        db = make_db()
        self._prime(db)
        db.create_view("v", "select a from t")
        assert len(db.plan_cache) == 0

    def test_drop_view(self):
        db = make_db()
        db.create_view("v", "select a from t")
        self._prime(db)
        db.drop_view("v")
        assert len(db.plan_cache) == 0

    def test_catalog_version_bumps_on_every_verb(self):
        db = Database()
        versions = [db.catalog.version]
        db.create_table("t", [("a", DataType.INTEGER)])
        versions.append(db.catalog.version)
        db.create_index("ix", "t", ["a"])
        versions.append(db.catalog.version)
        db.create_view("v", "select a from t")
        versions.append(db.catalog.version)
        db.drop_view("v")
        versions.append(db.catalog.version)
        db.drop_table("t")
        versions.append(db.catalog.version)
        assert versions == sorted(set(versions)), versions

    def test_drop_and_recreate_table_replans(self):
        db = make_db()
        db.execute("select a, b from t")
        db.drop_table("t")
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, False)])
        db.insert("t", [(7, 70)])
        result = db.execute("select a, b from t")
        assert result.rows == [(7, 70)]
        assert db.plan_cache.stats.invalidations >= 1


class TestStaleness:
    def test_bulk_load_triggers_reoptimization(self):
        db = make_db()
        db.execute("select count(*) from t")  # planned against 3 rows
        db.insert("t", [(i, "w") for i in range(100, 400)])
        result = db.execute("select count(*) from t")
        assert result.scalar() == 303
        assert db.plan_cache.stats.stale == 1

    def test_small_drift_keeps_plan(self):
        db = make_db()
        db.insert("t", [(i, "w") for i in range(100, 200)])
        db.execute("select count(*) from t")
        db.insert("t", [(500, "w")])  # ~1% growth: below threshold
        db.execute("select count(*) from t")
        assert db.plan_cache.stats.stale == 0
        assert db.plan_cache.stats.hits == 1

    def test_drift_helper_relative_threshold(self):
        snapshot = capture(lambda name: {"t": 100}[name], ["t"])
        assert isinstance(snapshot, StatsSnapshot)
        assert not drifted(snapshot, lambda name: 120, threshold=0.5)
        assert drifted(snapshot, lambda name: 151, threshold=0.5)
        assert drifted(snapshot, lambda name: 20, threshold=0.5)

    def test_empty_table_snapshot_trips_on_first_insert(self):
        snapshot = capture(lambda name: 0, ["t"])
        assert drifted(snapshot, lambda name: 2, threshold=0.5)
        assert not drifted(snapshot, lambda name: 0, threshold=0.5)


class TestPlanCacheUnit:
    def _entry(self, sql_key="k", mode="full", version=0,
               tables=frozenset(), engine="tuple"):
        return CachedPlan(
            sql_key=sql_key, mode_name=mode, catalog_version=version,
            names=["a"], types=[DataType.INTEGER], parameters=(),
            plan=None, rel=None, executable=None,
            snapshot=StatsSnapshot({}), engine=engine, table_names=tables)

    def test_key_includes_engine(self):
        cache = PlanCache()
        cache.put(self._entry("q", engine="tuple"))
        assert cache.get("q", "full", 0, engine="vectorized") is None
        assert cache.get("q", "full", 0, engine="tuple") is not None

    def test_targeted_invalidation_by_table(self):
        cache = PlanCache()
        cache.put(self._entry("q1", tables=frozenset({"t"})))
        cache.put(self._entry("q2", tables=frozenset({"u"})))
        cache.put(self._entry("q3", tables=frozenset({"t", "u"})))
        removed = cache.invalidate("T")
        assert removed == 2
        assert len(cache) == 1
        assert cache.stats.invalidations == 2

    def test_full_invalidation(self):
        cache = PlanCache()
        cache.put(self._entry("q1"))
        cache.put(self._entry("q2"))
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_stats_reset(self):
        cache = PlanCache()
        cache.get("nope", "full", 0)
        assert cache.stats.misses == 1
        cache.stats.reset()
        assert cache.stats.misses == 0
