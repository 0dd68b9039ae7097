"""Concurrency soak for materialized-view maintenance.

Eight threads hammer one database: query threads run Q17-shaped
aggregates (both engines, rewritten through the view whenever it
exists), writer threads churn commits into the base table, and a DDL
thread drops and recreates the view throughout.  Invariants:

* **in-flight**: inside a read-only transaction, the rewritten answer
  must be bit-identical to the base-table answer over the *same pinned
  snapshot* — maintenance installs view versions in the same atomic
  install as their base tables, so no snapshot may ever see them
  disagree;
* **at rest**: after the churn, views-on results equal views-off
  results for every engine, and the incrementally maintained backing
  equals a full recompute.

Run under ``REPRO_RACE=1`` (the CI concurrency-stress job does) to
validate every lock acquisition against the declared hierarchy.
"""

import os
import threading
from collections import Counter

from repro import Database, DataType, TransactionConflict

THREADS_QUERY = 4
THREADS_WRITE = 3  # + 1 DDL thread = 8 total
STRESS = int(os.environ.get("REPRO_STRESS", "0") or "0")
ROUNDS = (60 if STRESS else 20)

VIEW_SQL = ("SELECT g, h, count(*) AS n, sum(v) AS s, avg(v) AS a "
            "FROM t GROUP BY g, h")

QUERIES = [
    "select g, count(*), sum(v), avg(v) from t group by g order by g",
    "select g, h, count(*), sum(v) from t group by g, h order by g, h",
    "select count(*), sum(v) from t",
    "select g, sum(v) from t where h = 1 group by g order by g",
]


def build_db() -> Database:
    db = Database()
    db.create_table("t", [("pk", DataType.INTEGER, False),
                          ("g", DataType.INTEGER, False),
                          ("h", DataType.INTEGER, False),
                          ("v", DataType.INTEGER, True)],
                    primary_key=("pk",))
    db.insert("t", [(i, i % 5, i % 3, None if i % 11 == 0 else i)
                    for i in range(200)])
    db.matviews.create("mv", VIEW_SQL)
    return db


def test_concurrent_maintenance_soak():
    db = build_db()
    errors: list = []
    stop = threading.Event()

    def query_worker(worker_id):
        try:
            for round_no in range(ROUNDS * 2):
                sql = QUERIES[(worker_id + round_no) % len(QUERIES)]
                engine = ("tuple", "vectorized")[round_no % 2]
                # Pin one snapshot: rewritten and base plans must agree
                # exactly on it, mid-churn and mid-DDL alike.
                with db.session(default_engine=engine) as session:
                    session.begin()
                    rewritten = session.execute(sql).rows
                    base = session.execute(
                        sql, use_matviews=False).rows
                    session.rollback()
                assert rewritten == base, (
                    f"snapshot disagreement on {sql!r} ({engine}): "
                    f"{rewritten} != {base}")
        except BaseException as exc:  # noqa: BLE001 - report to main
            errors.append(exc)
            stop.set()

    def write_worker(worker_id):
        try:
            base = (worker_id + 1) * 1_000_000
            for round_no in range(ROUNDS):
                if stop.is_set():
                    return
                rows = [(base + 10 * round_no + j,
                         (worker_id + j) % 5, j % 3,
                         None if j == 2 else worker_id + j)
                        for j in range(4)]
                while True:  # first-committer-wins: retry conflicts
                    try:
                        with db.session() as session:
                            session.begin()
                            session.insert("t", rows)
                            session.commit()
                        break
                    except TransactionConflict:
                        continue
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
            stop.set()

    def ddl_worker():
        try:
            for _ in range(ROUNDS // 2):
                if stop.is_set():
                    return
                db.matviews.drop("mv")
                db.matviews.create("mv", VIEW_SQL)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
            stop.set()

    threads = ([threading.Thread(target=query_worker, args=(i,))
                for i in range(THREADS_QUERY)]
               + [threading.Thread(target=write_worker, args=(i,))
                  for i in range(THREADS_WRITE)]
               + [threading.Thread(target=ddl_worker)])
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "soak thread hung"
    assert not errors, f"soak raised: {errors[0]!r}"

    # At rest: views-on == views-off serially, on both engines, and the
    # maintained backing equals a fresh recompute.
    for sql in QUERIES:
        expected = db.execute(sql, use_matviews=False).rows
        for engine in ("tuple", "vectorized"):
            got = db.execute(sql, engine=engine).rows
            assert got == expected, mismatch(
                f"at-rest views-on vs views-off on {sql!r}", engine,
                expected, got)
    maintained = sorted(db.storage.get("mv").rows)
    db.matviews.refresh("mv")
    refreshed = sorted(db.storage.get("mv").rows)
    assert refreshed == maintained, mismatch(
        "maintained vs refreshed backing of mv", "maintenance", refreshed,
        maintained)
    status = db.matviews.status()
    assert status["maintained_commits"] > 0, (
        f"no maintained commits (engine: maintenance); status {status}; "
        f"backing rows {refreshed}")


def mismatch(what: str, engine: str, expected: list, actual: list) -> str:
    """An assertion message that names the rows on either side only."""
    missing = Counter(expected) - Counter(actual)
    extra = Counter(actual) - Counter(expected)
    return (f"{what} ({engine}): expected {expected}, actual {actual}; "
            f"only expected {sorted(missing.elements(), key=repr)}, "
            f"only actual {sorted(extra.elements(), key=repr)}")


def test_commit_blocked_by_concurrent_refresh_stays_correct():
    """REFRESH holds the view writer lock; a simultaneous commit must
    wait for it and still fold its delta in exactly once."""
    db = build_db()
    barrier = threading.Barrier(2)
    errors: list = []

    def refresher():
        try:
            barrier.wait()
            for _ in range(10):
                db.matviews.refresh("mv")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def committer():
        try:
            barrier.wait()
            for i in range(10):
                db.insert("t", [(5_000_000 + i, i % 5, i % 3, i)])
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=refresher),
               threading.Thread(target=committer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors, f"raised: {errors[0]!r}"
    maintained = sorted(db.storage.get("mv").rows)
    db.matviews.refresh("mv")
    assert sorted(db.storage.get("mv").rows) == maintained
