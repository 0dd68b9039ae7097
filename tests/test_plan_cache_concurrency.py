"""Concurrency hammer for the plan cache.

Regression for the unguarded-OrderedDict races the single-threaded cache
had: concurrent get (LRU ``move_to_end``) and put (insert + evict) used
to corrupt the dict or raise ``RuntimeError: OrderedDict mutated during
iteration``.  The locked cache must survive a sustained multi-thread
mix of hits, misses, inserts and invalidations with consistent counters
and the capacity invariant intact.
"""

import threading

from repro import Database, DataType
from repro.plancache import CachedPlan, PlanCache
from repro.stats_version import StatsSnapshot

THREADS = 8
OPS_PER_THREAD = 400


def make_entry(i: int, catalog_version: int = 0) -> CachedPlan:
    return CachedPlan(
        sql_key=f"select-{i}", mode_name="full",
        catalog_version=catalog_version, names=["a"], types=[None],
        parameters=(), plan=None, rel=None, executable=None,
        snapshot=StatsSnapshot({}), table_names=frozenset({"t"}))


def test_hammer_get_put_invalidate():
    cache = PlanCache(capacity=32)
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def worker(seed: int) -> None:
        try:
            barrier.wait()
            for step in range(OPS_PER_THREAD):
                i = (seed * OPS_PER_THREAD + step) % 64
                op = (seed + step) % 10
                if op < 4:
                    cache.get(f"select-{i}", "full", 0)
                elif op < 8:
                    cache.put(make_entry(i))
                elif op == 8:
                    len(cache)
                else:
                    cache.invalidate("t" if step % 2 else None)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,))
               for n in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors
    assert len(cache) <= 32
    stats = cache.stats
    assert stats.hits + stats.misses > 0
    assert stats.hit_rate == stats.hits / (stats.hits + stats.misses)


def test_hammer_through_database_execute():
    """End-to-end: concurrent sessions running the same query set must
    share cached plans without corruption and converge to a high hit
    rate."""
    db = Database()
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.INTEGER, False)],
                    primary_key=("a",))
    db.insert("t", [(i, i % 5) for i in range(100)])
    queries = [
        "select a from t where b = 1 order by a",
        "select b, count(*) from t group by b order by b",
        "select a from t where a < 10 order by a",
        "select max(a) from t",
    ]
    expected = {sql: db.execute(sql).rows for sql in queries}
    db.plan_cache.stats.reset()  # measure the hit rate after warm-up

    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def worker(seed: int) -> None:
        try:
            barrier.wait()
            session = db.session()
            for step in range(60):
                sql = queries[(seed + step) % len(queries)]
                result = session.execute(sql)
                assert result.rows == expected[sql]
            session.close()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,))
               for n in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    stats = db.plan_cache.stats
    assert stats.hit_rate >= 0.9


def test_hammer_feedback_invalidation_never_corrupts_execution():
    """Feedback staleness flags race against executions: workers hammer
    skewed queries on a feedback-enabled database (low threshold, so
    plans are flagged stale and replanned constantly) while a churn
    thread keeps dropping the corrections — which makes the fresh plans
    misestimate again and re-trips the invalidation.  Flagging must
    never evict a plan out from under an in-flight execution: every
    result stays correct, no thread ever errors."""
    db = Database(feedback=True, q_error_threshold=1.5)
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.INTEGER, True)],
                    primary_key=("a",))
    # Heavy skew: equality estimates are ~13x off, far past threshold.
    db.insert("t", [(i, 0 if i < 150 else i) for i in range(200)])
    queries = [
        "select a from t where b = 0 order by a",
        "select count(*) from t where b = 0",
        "select b, count(*) from t where b = 0 group by b",
        "select max(a) from t where b = 0",
    ]
    expected = {sql: db.execute(sql).rows for sql in queries}

    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS + 1)
    done = threading.Event()

    def worker(seed: int) -> None:
        try:
            barrier.wait()
            for step in range(60):
                sql = queries[(seed + step) % len(queries)]
                result = db.execute(sql)
                assert result.rows == expected[sql]
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def churn() -> None:
        try:
            barrier.wait()
            while not done.is_set():
                db.corrections.invalidate()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,))
               for n in range(THREADS)]
    churner = threading.Thread(target=churn)
    for t in threads:
        t.start()
    churner.start()
    for t in threads:
        t.join(timeout=60)
    done.set()
    churner.join(timeout=10)
    assert not errors, errors
    # The loop actually fired: plans were flagged stale and discarded.
    assert db.feedback.plans_invalidated > 0
    assert db.plan_cache.stats.feedback_stale > 0


def test_hammer_text_keys():
    """The exact-text front cache is written under the entry lock and
    read without it: concurrent readers and writers (more threads than
    cores, a short switch interval) never see a wrong key, never fail,
    and never leave more texts than the capacity."""
    import sys

    cache = PlanCache(capacity=8)
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)
    interval = sys.getswitchinterval()

    def worker(seed: int) -> None:
        try:
            barrier.wait()
            for step in range(OPS_PER_THREAD):
                i = (seed * 7 + step) % 24
                key = cache.text_key(f"select {i}")
                if key is None:
                    cache.remember_text(f"select {i}", ("key", i))
                elif key != ("key", i):
                    raise AssertionError((i, key))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(cache._text_keys) <= 8
