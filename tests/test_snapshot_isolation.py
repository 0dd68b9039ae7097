"""Snapshot isolation, attacked two ways.

1. A hypothesis-driven interleaving test: random schedules of staged and
   autocommit inserts, DDL, begin/commit/rollback and reads across three
   sessions are replayed against a trivial Python shadow model.  The
   database's answer to every read must match the model exactly — the
   reader never sees uncommitted data, a pinned snapshot never moves,
   and read-your-own-writes holds inside a transaction.

2. A differential multi-thread TPC-H replay: eight concurrent sessions
   each run a query workload against a static database, and every single
   result must be bit-identical (values *and* row order) to the serial
   replay of the same workload.  Any torn read, stale cache entry or
   cross-engine race shows up as a diff.
"""

import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database, DataType
from repro.tpch import QUERIES, create_tpch_schema, generate_tpch

# -- 1. model-checked interleavings ------------------------------------------------

OPS = st.lists(
    st.sampled_from(["w_insert", "o_insert", "begin", "commit", "rollback",
                     "read_r", "read_w", "read_g", "ddl"]),
    min_size=4, max_size=24)

#: Counts ``t``'s rows in group 0 of the non-unique indexed column ``g``:
#: the read goes through an index seek, so it sees the index buckets of
#: whichever version (pinned, staged or committed) the session reads.
SEEK_SQL = "select count(*) from t where g = 0"
PRELOAD = 12  # enough rows that the optimizer picks the seek


def _t_rows(next_key, n):
    return [(k, k % 3) for k in (next(next_key) for _ in range(n))]


def _group0(rows):
    return sum(1 for _, g in rows if g == 0)


@given(ops=OPS, index_kind=st.sampled_from(["hash", "ordered"]))
@settings(max_examples=40, deadline=None)
# Staged rows land in index buckets the committed version shares: the
# reader's seek must not see them, before or after a second batch.
@example(ops=["begin", "w_insert", "read_g", "w_insert", "read_g",
              "commit", "read_g"], index_kind="hash")
@example(ops=["begin", "w_insert", "read_g", "w_insert", "read_g",
              "commit", "read_g"], index_kind="ordered")
def test_interleavings_match_shadow_model(ops, index_kind):
    db = Database()
    db.create_table("t", [("k", DataType.INTEGER, False),
                          ("g", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.create_table("u", [("k", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.create_index("ix_t_g", "t", ["g"], kind=index_kind)
    writer = db.session()
    other = db.session()
    reader = db.session()

    next_key = iter(range(10_000))
    preload = _t_rows(next_key, PRELOAD)
    db.insert("t", preload)
    # shadow model: committed row counts, and t's rows with g = 0
    committed = {"t": PRELOAD, "u": 0, "g0": _group0(preload)}
    snap = None                       # writer's pinned counts at begin()
    pending_t = pending_g0 = 0        # rows the writer has staged into t
    ddl_seq = iter(range(10_000))

    def seek_count(session):
        assert "IndexSeek(t;" in session.explain(SEEK_SQL), index_kind
        return session.execute(SEEK_SQL).scalar()

    try:
        for op in ops:
            if op == "w_insert":
                rows = _t_rows(next_key, 2)
                writer.insert("t", rows)
                if writer.in_transaction:
                    pending_t += len(rows)
                    pending_g0 += _group0(rows)
                else:
                    committed["t"] += len(rows)
                    committed["g0"] += _group0(rows)
            elif op == "o_insert":
                # Autocommit from a different session, different table —
                # visible to new snapshots immediately, invisible to the
                # writer's pinned one.
                rows = [(next(next_key),) for _ in range(3)]
                other.insert("u", rows)
                committed["u"] += len(rows)
            elif op == "begin":
                if not writer.in_transaction:
                    writer.begin()
                    snap = dict(committed)
                    pending_t = pending_g0 = 0
            elif op == "commit":
                if writer.in_transaction:
                    writer.commit()
                    committed["t"] += pending_t
                    committed["g0"] += pending_g0
                    snap, pending_t, pending_g0 = None, 0, 0
            elif op == "rollback":
                if writer.in_transaction:
                    writer.rollback()
                    snap, pending_t, pending_g0 = None, 0, 0
            elif op == "read_r":
                # The reader autocommits: every statement pins a fresh
                # snapshot and must see exactly the committed state.
                for table in ("t", "u"):
                    got = reader.execute(
                        f"select count(*) from {table}").scalar()
                    assert got == committed[table], (op, table, ops)
            elif op == "read_w":
                base = snap if writer.in_transaction else committed
                got_t = writer.execute("select count(*) from t").scalar()
                got_u = writer.execute("select count(*) from u").scalar()
                extra = pending_t if writer.in_transaction else 0
                assert got_t == base["t"] + extra, (op, ops)
                assert got_u == base["u"], (op, ops)
            elif op == "read_g":
                # Both sides of the writer's transaction, through the seek.
                assert seek_count(reader) == committed["g0"], (op, ops)
                base = snap if writer.in_transaction else committed
                extra = pending_g0 if writer.in_transaction else 0
                assert seek_count(writer) == base["g0"] + extra, (op, ops)
            elif op == "ddl":
                # DDL autocommits (from a session with no open txn) and
                # must not disturb anyone's pinned snapshot or the data.
                if not writer.in_transaction:
                    other.create_index(f"ix_u_{next(ddl_seq)}", "u", ["k"])
    finally:
        writer.close(); other.close(); reader.close()


def test_pinned_snapshot_survives_concurrent_ddl_and_inserts():
    """A transaction's reads are frozen even while another session
    inserts into the same table (the txn holds no lock until it
    writes)."""
    db = Database()
    db.create_table("t", [("k", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.insert("t", [(i,) for i in range(5)])
    txn = db.session()
    txn.begin()
    assert txn.execute("select count(*) from t").scalar() == 5
    with db.session() as background:
        background.insert("t", [(100,), (101,)])
        background.create_index("ix_t_k", "t", ["k"])
    # Still the world as of begin(), despite two installs since.
    assert txn.execute("select count(*) from t").scalar() == 5
    txn.commit()
    assert txn.execute("select count(*) from t").scalar() == 7
    txn.close()


def _scan_actuals(analysis: dict) -> dict:
    """``{leaf label: actual rows}`` of an EXPLAIN ANALYZE dict tree."""
    found, stack = {}, [analysis["plan"]]
    while stack:
        node = stack.pop()
        stack.extend(node["children"])
        if not node["children"]:
            found[node["op"]] = node["actual_rows"]
    return found


def test_explain_analyze_reads_the_transaction_view():
    """EXPLAIN ANALYZE runs the query the session would run: over the
    pinned snapshot plus the transaction's own staged rows."""
    db = Database()
    db.create_table("t", [("k", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.insert("t", [(i,) for i in range(1000)])
    with db.session() as s:
        s.begin()
        s.insert("t", [(5000,), (5001,)])
        sql = "select count(*) from t"
        assert s.execute(sql).scalar() == 1002
        lines = [row[0] for row in s.execute("explain analyze " + sql)]
        scan = "TableScan(t; 0 of 1 columns)"  # count(*) reads no column
        assert any(scan in line and "actual=1002" in line
                   for line in lines), lines
        via_api = s.explain(sql, analyze=True, format="dict")
        assert _scan_actuals(via_api) == {scan: 1002}
        # Another session still sees the committed 1000.
        with db.session() as other:
            assert _scan_actuals(other.explain(
                sql, analyze=True, format="dict")) == {scan: 1000}
        s.rollback()


def test_explain_follows_the_sessions_rewrite_decision():
    """While a transaction holds staged writes its statements are not
    rewritten to a (commit-maintained) materialized view — and EXPLAIN,
    plain or ANALYZE, shows that same base-table plan."""
    db = Database()
    db.create_table("t", [("g", DataType.INTEGER, False),
                          ("v", DataType.INTEGER, False)])
    db.insert("t", [(i % 4, i) for i in range(40)])
    db.execute("CREATE MATERIALIZED VIEW mv AS "
               "SELECT g, count(*) AS n FROM t GROUP BY g")
    sql = "SELECT g, count(*) AS n FROM t GROUP BY g"
    with db.session() as s:
        assert "matview" in s.explain(sql, format="dict")
        s.begin()
        assert "matview" in s.explain(sql, format="dict")  # nothing staged
        s.insert("t", [(0, 100), (0, 101)])
        staged = dict(s.execute(sql).rows)
        assert staged[0] == 12
        assert "matview" not in s.explain(sql, format="dict")
        analysis = s.explain(sql, analyze=True, format="dict")
        assert "matview" not in analysis
        assert _scan_actuals(analysis) == {"TableScan(t; 1 of 2 columns)": 42}
        rendered = "\n".join(r[0] for r in s.execute("EXPLAIN " + sql))
        assert "-- materialized view --" not in rendered
        s.commit()
        assert "matview" in s.explain(sql, analyze=True, format="dict")
        assert dict(s.execute(sql).rows) == staged


# -- 2. differential multi-thread TPC-H replay -------------------------------------

REPLAY_QUERIES = ["Q1", "Q3", "Q4", "Q6", "Q12", "Q14"]
THREADS = 8
ROUNDS = 3


@pytest.fixture(scope="module")
def tpch_db():
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.0005, seed=13)
    return db


def test_concurrent_replay_bit_identical_to_serial(tpch_db):
    db = tpch_db
    engines = ("tuple", "vectorized")

    def workload(seed: int) -> list:
        """The exact statement sequence thread ``seed`` will run."""
        plan = []
        for round_no in range(ROUNDS):
            for i, name in enumerate(REPLAY_QUERIES):
                engine = engines[(seed + round_no + i) % len(engines)]
                plan.append((name, engine))
        return plan

    serial = {}
    for seed in range(THREADS):
        for name, engine in workload(seed):
            if (name, engine) not in serial:
                serial[(name, engine)] = db.execute(
                    QUERIES[name], engine=engine).rows

    failures: list[str] = []
    barrier = threading.Barrier(THREADS)

    def replay(seed: int) -> None:
        try:
            barrier.wait()
            with db.session() as session:
                for name, engine in workload(seed):
                    rows = session.execute(QUERIES[name],
                                           engine=engine).rows
                    if rows != serial[(name, engine)]:
                        failures.append(
                            f"thread {seed}: {name}/{engine} diverged")
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(f"thread {seed}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=replay, args=(seed,))
               for seed in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not failures, failures
