"""Materialized aggregate views: DDL, rewrite, maintenance, selection.

Covers the `repro.matview` subsystem end to end through the public
Database API: CREATE/DROP/REFRESH MATERIALIZED VIEW statements, the
transparent rewrite (exact-group, coarser-group, residual-predicate and
empty-group forms, all checked bit-identical against the base-table
plan), per-commit incremental maintenance, DDL invalidation, the
plan-cache-mining advisor, and the session-level gating rules.
"""

import datetime

import pytest

from repro import (FULL, NAIVE, CatalogError, Database, DataType,
                   MatViewError, TransactionError)
from repro.matview import (AggSpec, MatViewDef, auto_materialize,
                           canonicalize, local_aggregate, match_rewrite,
                           merge, recommend, where_filter)
from repro.sql import classify_statement, parse


def fresh_db(**kwargs):
    db = Database(**kwargs)
    db.create_table("t", [("g", DataType.INTEGER, False),
                          ("h", DataType.INTEGER, False),
                          ("c", DataType.INTEGER, True)])
    db.insert("t", [(i % 5, i % 10, None if i % 7 == 0 else i)
                    for i in range(100)])
    return db


def both_ways(db, sql, params=None):
    """(base-plan rows, possibly-rewritten rows) for the same query."""
    base = db.execute(sql, FULL, params=params, use_matviews=False)
    rewritten = db.execute(sql, FULL, params=params)
    return base.rows, rewritten.rows


# -- DDL surface ---------------------------------------------------------------


class TestMatViewDdl:
    def test_classify_statement_detects_matview_ddl(self):
        def split_matview_ddl(sql):
            return classify_statement(sql).matview

        create = split_matview_ddl(
            "CREATE MATERIALIZED VIEW mv AS SELECT g, count(*) AS n "
            "FROM t GROUP BY g")
        assert create is not None and create.kind == "create"
        assert create.name == "mv"
        assert split_matview_ddl("DROP MATERIALIZED VIEW mv").kind == "drop"
        assert (split_matview_ddl("REFRESH MATERIALIZED VIEW mv").kind
                == "refresh")
        assert split_matview_ddl("SELECT 1") is None
        assert split_matview_ddl("CREATE VIEW v AS SELECT 1") is None

    def test_create_drop_refresh_roundtrip(self):
        db = fresh_db()
        result = db.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT g, count(*) AS n, "
            "sum(c) AS s FROM t GROUP BY g")
        assert result.rows == [("created materialized view mv",)]
        assert db.catalog.has_matview("mv")
        assert db.execute("REFRESH MATERIALIZED VIEW mv").rows == \
            [("refreshed materialized view mv",)]
        assert db.matviews.status()["refreshes"] == 1
        assert db.execute("DROP MATERIALIZED VIEW mv").rows == \
            [("dropped materialized view mv",)]
        assert not db.catalog.has_matview("mv")

    def test_backing_table_stores_local_aggregate_form(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "avg(c) AS a FROM t GROUP BY g")
        backing = db.catalog.get_table("mv")
        names = [col.name for col in backing.columns]
        # AVG decomposes into carried SUM and COUNT columns (§3.3).
        assert names == ["g", "cnt_star", "sum_c", "cnt_c"]
        assert backing.primary_key == ("g",)

    def test_create_validates_definition(self):
        db = fresh_db()
        for bad in [
                "SELECT count(*) AS n FROM t",              # no GROUP BY
                "SELECT g FROM t GROUP BY g",               # no aggregate
                "SELECT g, count(distinct c) AS n FROM t GROUP BY g",
                "SELECT g, count(*) AS n FROM t GROUP BY g HAVING g > 1",
                "SELECT g, count(*) AS n FROM t WHERE c > ? GROUP BY g",
                "SELECT g, count(*) AS n FROM t GROUP BY g LIMIT 2",
        ]:
            with pytest.raises(MatViewError):
                db.matviews.create("mv", bad)
        with pytest.raises(MatViewError):
            db.matviews.create("mv", "SELECT g, sum(c + 1) AS s "
                               "FROM t GROUP BY g")

    def test_name_clashes_rejected_in_both_directions(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        with pytest.raises(CatalogError):
            db.matviews.create("t", "SELECT g, count(*) AS n FROM t "
                               "GROUP BY g")
        with pytest.raises(CatalogError):
            db.create_table("mv", [("x", DataType.INTEGER, False)])
        with pytest.raises(CatalogError):
            db.create_view("mv", "SELECT g FROM t")

    def test_insert_into_matview_rejected(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        with pytest.raises(CatalogError):
            db.insert("mv", [(1, 2, 3, 4)])
        with db.session() as session:
            session.begin()
            with pytest.raises(CatalogError):
                session.insert("mv", [(1, 2, 3, 4)])
            session.rollback()

    def test_drop_base_table_cascades(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        db.drop_table("t")
        assert not db.catalog.has_matview("mv")
        assert not db.catalog.has_table("mv")

    def test_drop_table_refuses_matview_name(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        with pytest.raises(CatalogError):
            db.drop_table("mv")

    def test_matview_ddl_rejected_inside_transaction(self):
        db = fresh_db()
        with db.session() as session:
            session.begin()
            with pytest.raises(TransactionError):
                session.execute("CREATE MATERIALIZED VIEW mv AS "
                                "SELECT g, count(*) AS n FROM t GROUP BY g")
            session.rollback()


# -- rewrite -------------------------------------------------------------------


REWRITE_QUERIES = [
    # exact grouping
    "SELECT g, h, count(*) AS n, sum(c) AS s, avg(c) AS a, "
    "min(c) AS lo, max(c) AS hi FROM t GROUP BY g, h ORDER BY g, h",
    # coarser grouping: re-aggregates stored partials
    "SELECT g, count(*) AS n, sum(c) AS s, avg(c) AS a FROM t "
    "GROUP BY g ORDER BY g",
    "SELECT h, count(c) AS nc, max(c) AS hi FROM t GROUP BY h ORDER BY h",
    # global aggregate over the view
    "SELECT count(*) AS n, sum(c) AS s, avg(c) AS a FROM t",
    # aggregate subset / reordered outputs
    "SELECT avg(c) AS a, g FROM t GROUP BY g ORDER BY g",
]


class TestRewrite:
    def view_db(self):
        db = fresh_db()
        db.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT g, h, count(*) AS n, "
            "count(c) AS nc, sum(c) AS s, avg(c) AS a, min(c) AS lo, "
            "max(c) AS hi FROM t GROUP BY g, h")
        return db

    @pytest.mark.parametrize("sql", REWRITE_QUERIES)
    def test_rewritten_results_bit_identical(self, sql):
        db = self.view_db()
        before = db.matviews.status()["rewrites"]
        base, rewritten = both_ways(db, sql)
        assert base == rewritten
        assert db.matviews.status()["rewrites"] > before

    def test_empty_group_counts_are_zero_not_null(self):
        db = self.view_db()
        sql = "SELECT count(*) AS n, count(c) AS nc, sum(c) AS s " \
              "FROM t WHERE g = 42"
        base, rewritten = both_ways(db, sql)
        assert base == rewritten == [(0, 0, None)]

    def test_residual_predicate_on_group_columns(self):
        db = self.view_db()
        sql = "SELECT g, sum(c) AS s FROM t WHERE h < 4 " \
              "GROUP BY g ORDER BY g"
        base, rewritten = both_ways(db, sql)
        assert base == rewritten

    def test_parameterized_residual(self):
        db = self.view_db()
        sql = "SELECT g, count(*) AS n FROM t WHERE h = ? " \
              "GROUP BY g ORDER BY g"
        for value in (0, 3, 99):
            base, rewritten = both_ways(db, sql, params=[value])
            assert base == rewritten

    def test_explain_surfaces_rewrite(self):
        db = self.view_db()
        sql = "SELECT g, sum(c) AS s FROM t GROUP BY g"
        rendered = db.explain(sql)
        assert "-- materialized view --" in rendered
        assert "rewritten to scan mv" in rendered
        payload = db.explain(sql, format="dict")
        assert payload["matview"]["view"] == "mv"
        assert "FROM \"mv\"" in payload["matview"]["sql"]
        analyzed = db.explain(sql, analyze=True)
        assert "-- materialized view --" in analyzed

    def test_explain_without_view_has_no_matview_section(self):
        db = fresh_db()
        rendered = db.explain("SELECT g, sum(c) AS s FROM t GROUP BY g")
        assert "-- materialized view --" not in rendered
        payload = db.explain("SELECT g, sum(c) AS s FROM t GROUP BY g",
                             format="dict")
        assert "matview" not in payload

    def test_non_matching_queries_untouched(self):
        db = self.view_db()
        before = db.matviews.status()["rewrites"]
        # filter on a non-group column: the view cannot answer it
        db.execute("SELECT g, sum(c) AS s FROM t WHERE c > 50 GROUP BY g")
        # grouping finer than anything stored
        db.execute("SELECT c, count(*) AS n FROM t GROUP BY c")
        assert db.matviews.status()["rewrites"] == before

    def test_rewrite_disabled_per_query(self):
        db = self.view_db()
        sql = "SELECT g, sum(c) AS s FROM t GROUP BY g"
        before = db.matviews.status()["rewrites"]
        db.execute(sql, use_matviews=False)
        assert db.matviews.status()["rewrites"] == before
        # The raw plan is cached apart from the rewritten one.
        db.execute(sql)
        assert db.matviews.status()["rewrites"] == before + 1
        db.execute(sql, use_matviews=False)
        assert db.matviews.status()["rewrites"] == before + 1

    def test_all_engines_and_modes_agree_through_the_view(self):
        db = self.view_db()
        sql = "SELECT g, count(*) AS n, avg(c) AS a FROM t " \
              "GROUP BY g ORDER BY g"
        expected = db.execute(sql, FULL, use_matviews=False).rows
        for engine in ("tuple", "vectorized"):
            assert db.execute(sql, FULL, engine=engine).rows == expected
        assert db.execute(sql, NAIVE).rows == expected

    def test_smallest_matching_view_wins(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv_fine AS SELECT g, h, "
                   "count(*) AS n FROM t GROUP BY g, h")
        db.execute("CREATE MATERIALIZED VIEW mv_coarse AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        payload = db.explain("SELECT g, count(*) AS n FROM t GROUP BY g",
                             format="dict")
        assert payload["matview"]["view"] == "mv_coarse"


# -- incremental maintenance ---------------------------------------------------


class TestMaintenance:
    def test_commit_folds_delta_into_view(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n, sum(c) AS s, min(c) AS lo, "
                   "max(c) AS hi FROM t GROUP BY g")
        with db.session() as session:
            session.begin()
            session.insert("t", [(2, 0, 1000), (9, 0, -5), (9, 0, None)])
            session.commit()
        assert db.matviews.status()["maintained_commits"] == 1
        incremental = sorted(
            db.execute("SELECT * FROM mv", use_matviews=False).rows)
        db.execute("REFRESH MATERIALIZED VIEW mv")
        recomputed = sorted(
            db.execute("SELECT * FROM mv", use_matviews=False).rows)
        assert incremental == recomputed

    def test_autocommit_insert_maintains_too(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        db.insert("t", [(0, 0, 7)])
        rows = dict(db.execute("SELECT * FROM mv",
                               use_matviews=False).rows)
        assert rows[0] == 21  # 20 seed rows in group 0, plus this one

    def test_rolled_back_transaction_leaves_view_untouched(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        before = sorted(db.execute("SELECT * FROM mv",
                                   use_matviews=False).rows)
        with db.session() as session:
            session.begin()
            session.insert("t", [(0, 0, 7)])
            session.rollback()
        after = sorted(db.execute("SELECT * FROM mv",
                                  use_matviews=False).rows)
        assert before == after
        assert db.matviews.status()["maintained_commits"] == 0

    def test_staged_writes_bypass_view_rewrites(self):
        db = fresh_db()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        sql = "SELECT g, count(*) AS n FROM t GROUP BY g ORDER BY g"
        with db.session() as session:
            session.begin()
            session.insert("t", [(0, 0, 7), (0, 1, 8)])
            staged = session.execute(sql).rows
            # Read-your-own-writes: the staged rows must be visible,
            # which the (not yet maintained) view could not provide.
            assert dict(staged)[0] == 22
            session.rollback()

    def test_create_sees_rows_committed_before_it(self):
        db = fresh_db()
        db.insert("t", [(4, 9, 123)])
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "count(*) AS n FROM t GROUP BY g")
        base = dict(db.execute("SELECT g, count(*) AS n FROM t GROUP BY g",
                               use_matviews=False).rows)
        view = dict((r[0], r[1]) for r in db.execute(
            "SELECT * FROM mv", use_matviews=False).rows)
        assert base == view

    def test_date_plus_interval_filter_maintained_like_refresh(self):
        db = Database()
        db.create_table("ev", [("g", DataType.INTEGER, False),
                               ("d", DataType.DATE, True),
                               ("x", DataType.INTEGER, True)])
        start = datetime.date(2020, 1, 25)
        db.insert("ev", [(i % 3, start + datetime.timedelta(days=i), i)
                         for i in range(20)])
        where = ("d + INTERVAL '3' DAY > DATE '2020-02-01' AND "
                 "d + INTERVAL '1' MONTH <= DATE '2020-03-05'")
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, count(*) "
                   f"AS n, sum(x) AS s FROM ev WHERE {where} GROUP BY g")
        delta = [(0, datetime.date(2020, 1, 29), 100),   # fails 1st
                 (1, datetime.date(2020, 1, 30), 200),   # passes both
                 (2, datetime.date(2020, 2, 6), 300),    # fails 2nd
                 (2, None, 400),                          # NULL date
                 (4, datetime.date(2020, 2, 1), 500)]    # new group
        with db.session() as session:
            session.begin()
            session.insert("ev", delta)
            session.commit()
        assert db.matviews.status()["maintained_commits"] == 1
        incremental = sorted(db.storage.get("mv").rows)
        db.execute("REFRESH MATERIALIZED VIEW mv")
        assert sorted(db.storage.get("mv").rows) == incremental
        sql = (f"SELECT g, count(*) AS n, sum(x) AS s FROM ev "
               f"WHERE {where} GROUP BY g ORDER BY g")
        assert db.explain(sql, format="dict")["matview"]["view"] == "mv"
        base, rewritten = both_ways(db, sql)
        assert base == rewritten
        assert dict((g, n) for g, n, _ in base)[4] == 1


# -- library-level pieces ------------------------------------------------------


class TestLibraryApi:
    def test_canonicalize_fingerprint(self):
        query = parse("SELECT g, count(*) AS n, sum(c) AS s FROM t "
                          "WHERE h = 3 GROUP BY g")
        fingerprint = canonicalize(query)
        assert fingerprint.table == "t"
        assert fingerprint.group_cols == ("g",)
        assert AggSpec("count_star", None) in fingerprint.aggregates
        assert AggSpec("sum", "c") in fingerprint.aggregates
        assert len(fingerprint.conjuncts) == 1

    def test_match_rewrite_rejects_uncovered_shapes(self):
        view = MatViewDef.from_sql(
            "mv", "SELECT g, sum(c) AS s FROM t GROUP BY g")
        covered = canonicalize(parse(
            "SELECT g, sum(c) AS s FROM t GROUP BY g"))
        assert match_rewrite(covered, view) is not None
        for sql in [
                "SELECT g, sum(c) AS s FROM u GROUP BY g",   # other table
                "SELECT h, sum(c) AS s FROM t GROUP BY h",   # other group
                "SELECT g, min(c) AS m FROM t GROUP BY g",   # unsupported
                "SELECT g, sum(c) AS s FROM t WHERE c > 1 GROUP BY g",
        ]:
            fingerprint = canonicalize(parse(sql))
            assert match_rewrite(fingerprint, view) is None

    def test_local_aggregate_merge_matches_recompute(self):
        view = MatViewDef.from_sql(
            "mv", "SELECT g, count(*) AS n, sum(c) AS s, avg(c) AS a, "
            "min(c) AS lo, max(c) AS hi FROM t "
            "WHERE c IS NULL OR c - h BETWEEN -10 AND 60 GROUP BY g")
        db = fresh_db()
        base = db.catalog.get_table("t")
        seed = list(db.storage.get("t").rows)
        # kept, kept (NULL c), kept, dropped (c - h = 98), new group
        delta = [(0, 0, 55), (7, 1, None), (7, 2, -3), (0, 2, 100),
                 (9, 0, 1)]
        db.matviews.create("mv", view.sql)
        current = list(db.storage.get("mv").rows)
        where = where_filter(db.catalog, view)
        assert where is not None
        partials = local_aggregate(view, base, delta, where)
        assert sorted(partials) == [(0,), (7,), (9,)]
        assert partials[(0,)]["cnt_star"] == 1
        merged = merge(view, view.backing_def(base), current, partials)
        db.insert("t", [row for row in delta])
        db.execute("REFRESH MATERIALIZED VIEW mv")
        assert sorted(merged) == sorted(db.storage.get("mv").rows)
        assert len(seed) + len(delta) == len(db.storage.get("t").rows)


# -- advisor -------------------------------------------------------------------


class TestAdvisor:
    def hot_db(self):
        db = fresh_db()
        for _ in range(4):
            db.execute("SELECT g, sum(c) AS s FROM t WHERE h = ? "
                       "GROUP BY g", params=[1])
        return db

    def test_recommend_generalizes_parameters_into_grouping(self):
        db = self.hot_db()
        recs = recommend(db)
        assert len(recs) == 1
        assert recs[0].table == "t"
        assert recs[0].hits >= 3
        # The parameterized h-predicate folds into the view's GROUP BY.
        assert 'GROUP BY "g", "h"' in recs[0].sql

    def test_min_hits_threshold(self):
        db = fresh_db()
        db.execute("SELECT g, sum(c) AS s FROM t GROUP BY g")
        assert recommend(db) == []  # one compile, no repeat traffic

    def test_auto_materialize_creates_and_serves(self):
        db = self.hot_db()
        created = auto_materialize(db)
        assert [r.name for r in created] == ["mv_auto_1"]
        assert db.matviews.status()["auto_created"] == 1
        sql = "SELECT g, sum(c) AS s FROM t WHERE h = ? GROUP BY g " \
              "ORDER BY g"
        base, rewritten = both_ways(db, sql, params=[1])
        assert base == rewritten
        # Satisfied workload: nothing further to recommend.
        assert recommend(db) == []

    def test_non_aggregate_traffic_ignored(self):
        db = fresh_db()
        for _ in range(5):
            db.execute("SELECT g, h FROM t WHERE g = 1")
        assert recommend(db) == []


# -- plan-cache interactions ---------------------------------------------------


class TestPlanCacheIntegration:
    def test_create_and_drop_invalidate_cached_plans(self):
        db = fresh_db()
        sql = "SELECT g, sum(c) AS s FROM t GROUP BY g ORDER BY g"
        expected = db.execute(sql).rows  # cached, no view yet
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "sum(c) AS s FROM t GROUP BY g")
        before = db.matviews.status()["rewrites"]
        assert db.execute(sql).rows == expected
        assert db.matviews.status()["rewrites"] == before + 1
        db.execute("DROP MATERIALIZED VIEW mv")
        assert db.execute(sql).rows == expected
        assert db.matviews.status()["rewrites"] == before + 1

    def test_snapshot_predating_view_recompiles_without_rewrite(self):
        db = fresh_db()
        sql = "SELECT g, sum(c) AS s FROM t GROUP BY g ORDER BY g"
        snapshot = db.storage.snapshot()  # pinned before the view exists
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT g, "
                   "sum(c) AS s FROM t GROUP BY g")
        db.execute(sql)  # caches the rewritten plan
        pinned = db.execute(sql, snapshot=snapshot)
        live = db.execute(sql)
        assert pinned.rows == live.rows

    def test_hits_counter_increments(self):
        db = fresh_db()
        sql = "SELECT g, sum(c) AS s FROM t GROUP BY g"
        for _ in range(3):
            db.execute(sql)
        entries = [e for e in db.plan_cache.entries()
                   if e.fingerprint is not None]
        assert entries and max(e.hits for e in entries) >= 2
