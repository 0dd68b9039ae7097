"""Durability: WAL framing, recovery, checkpoints, and the offline CLI.

The crash schedules driven through fault injection live in
tests/test_durability_chaos.py; randomized interleavings with arbitrary
crash offsets live in tests/test_durability_properties.py.  This file
covers the deterministic contracts:

* the record frame (length + CRC32) round-trips and rejects corruption;
* torn-tail truncation restores exactly the committed prefix, for a cut
  at *every* byte offset of a real multi-record log;
* DDL and commits replay across reopen; checkpoints rotate the log and
  recovery layers the remaining records on top;
* the in-memory default (``path=None``) is byte-for-byte unaffected.
"""

from __future__ import annotations

import datetime
import os

import pytest

from repro import Database, DataType, DurabilityError
from repro.catalog.statistics import CardinalityCorrection
from repro.durability import (CHECKPOINT_FILENAME, WAL_FILENAME,
                              read_wal, scan_records)
from repro.durability.__main__ import main as durability_cli
from repro.durability.wal import (HEADER_BYTES, WriteAheadLog,
                                  decode_frame, encode_record)
from repro.errors import CatalogError, ExecutionError
from repro.stats_version import StatsSnapshot

COLUMNS = [("id", DataType.INTEGER), ("name", DataType.VARCHAR),
           ("born", DataType.DATE)]


def make_db(path, **kwargs):
    db = Database(path=str(path), **kwargs)
    db.create_table("t", COLUMNS, primary_key=["id"])
    return db


def row(i):
    return (i, f"name-{i}", datetime.date(2020, 1, 1 + (i % 28)))


def ids(db):
    return [r[0] for r in db.execute("select id from t order by id").rows]


# -- record framing ------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        record = {"lsn": 7, "kind": "commit",
                  "writes": {"t": [[1, "a", {"__date__": "2020-01-02"}]]}}
        data = encode_record(record)
        decoded = decode_frame(data)
        assert decoded is not None
        parsed, consumed = decoded
        assert parsed == record
        assert consumed == len(data)

    def test_flipped_byte_rejected(self):
        data = bytearray(encode_record({"lsn": 1, "kind": "commit"}))
        for position in range(len(data)):
            corrupt = bytearray(data)
            corrupt[position] ^= 0xFF
            assert decode_frame(bytes(corrupt)) is None, (
                f"corruption at byte {position} went undetected")

    def test_scan_stops_at_first_bad_frame(self):
        good = encode_record({"lsn": 1, "kind": "commit"})
        also_good = encode_record({"lsn": 2, "kind": "commit"})
        records, valid = scan_records(good + also_good + b"\x01garbage")
        assert [r["lsn"] for r in records] == [1, 2]
        assert valid == len(good) + len(also_good)

    def test_scan_rejects_non_record_json(self):
        # A checksum-valid frame whose payload is not a WAL record must
        # terminate the scan, not crash it or be silently replayed.
        good = encode_record({"lsn": 1, "kind": "commit"})
        from repro.durability.wal import frame_record
        stray = frame_record(b"[1,2,3]")
        records, valid = scan_records(good + stray)
        assert [r["lsn"] for r in records] == [1]
        assert valid == len(good)

    def test_wal_appender_tracks_good_boundary(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        first = wal.append({"lsn": 1, "kind": "commit"})
        second = wal.append({"lsn": 2, "kind": "commit"})
        assert second > first == wal.size - (second - first)
        wal.close()
        records, valid, total = read_wal(path)
        assert [r["lsn"] for r in records] == [1, 2]
        assert valid == total == second


# -- basic persistence ---------------------------------------------------------------


class TestPersistence:
    def test_commits_survive_reopen(self, tmp_path):
        db = make_db(tmp_path)
        db.insert("t", [row(1), row(2)])
        with db.session() as session:
            session.begin()
            session.insert("t", [row(3)])
            session.commit()
        db.close()
        reopened = Database(path=str(tmp_path))
        assert ids(reopened) == [1, 2, 3]
        # Rows round-trip bit-identically, dates included.
        assert reopened.execute(
            "select born from t where id = 1").scalar() == row(1)[2]
        reopened.close()

    def test_ddl_replays(self, tmp_path):
        db = make_db(tmp_path)
        db.create_table("gone", [("x", DataType.INTEGER)])
        db.create_index("ix_t_name", "t", ["name"])
        db.create_view("v", "select id from t where id > 1")
        db.create_view("doomed", "select id from t")
        db.drop_view("doomed")
        db.drop_table("gone")
        db.insert("t", [row(1), row(2)])
        db.close()
        reopened = Database(path=str(tmp_path))
        assert reopened.table_names() == ["t"]
        assert reopened.catalog.has_index("ix_t_name")
        assert not reopened.catalog.has_view("doomed")
        assert [r[0] for r in reopened.execute(
            "select id from v order by id").rows] == [2]
        reopened.close()

    def test_uncommitted_transaction_not_replayed(self, tmp_path):
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        session = db.session()
        session.begin()
        session.insert("t", [row(2)])
        # "Crash" with the transaction open: nothing was logged for it.
        db.close()
        reopened = Database(path=str(tmp_path))
        assert ids(reopened) == [1]
        reopened.close()

    def test_failed_insert_logs_nothing(self, tmp_path):
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        before = db.durability_status()["wal_bytes"]
        with pytest.raises(ExecutionError):
            db.insert("t", [row(1)])  # primary-key violation
        assert db.durability_status()["wal_bytes"] == before
        db.close()
        reopened = Database(path=str(tmp_path))
        assert ids(reopened) == [1]
        reopened.close()

    def test_ddl_error_messages_match_in_memory(self, tmp_path):
        durable = make_db(tmp_path)
        memory = Database()
        memory.create_table("t", COLUMNS, primary_key=["id"])
        cases = [
            lambda db: db.create_table("t", COLUMNS),
            lambda db: db.drop_table("missing"),
            lambda db: db.drop_view("missing"),
            lambda db: db.create_index("ix", "missing", ["id"]),
            lambda db: db.create_index("ix", "t", ["nope"]),
        ]
        for case in cases:
            with pytest.raises(CatalogError) as durable_error:
                case(durable)
            with pytest.raises(CatalogError) as memory_error:
                case(memory)
            assert str(durable_error.value) == str(memory_error.value)
        durable.close()

    def test_in_memory_default_untouched(self, tmp_path):
        db = Database()
        db.create_table("t", COLUMNS)
        db.insert("t", [row(1)])
        assert db.durability_status() is None
        assert not db.durable
        assert db.storage.wal is None
        with pytest.raises(DurabilityError):
            db.checkpoint()
        db.close()  # no-op, must not raise
        assert os.listdir(tmp_path) == []


# -- torn tails ----------------------------------------------------------------------


class TestTornTail:
    def test_truncation_at_every_byte_offset(self, tmp_path):
        """Cut the log at every possible byte and reopen.

        The committed prefix is tracked independently (WAL end offset
        per commit), so this asserts recovery's exact contract: a cut
        at offset k keeps precisely the commits whose record ended at
        or before k — at record boundaries and mid-byte alike.
        """
        db = make_db(tmp_path)
        boundaries = [(db.durability_status()["wal_bytes"], [])]
        committed = []
        for i in range(1, 6):
            db.insert("t", [row(i)])
            committed = committed + [i]
            boundaries.append(
                (db.durability_status()["wal_bytes"], committed))
        db.close()
        wal_path = tmp_path / WAL_FILENAME
        full = wal_path.read_bytes()
        assert boundaries[-1][0] == len(full)
        ddl_end = boundaries[0][0]
        for cut in range(ddl_end, len(full) + 1):
            wal_path.write_bytes(full[:cut])
            expected = max(ids for end, ids in boundaries if end <= cut)
            reopened = Database(path=str(tmp_path))
            assert ids(reopened) == expected, f"cut at byte {cut}"
            status = reopened.durability_status()
            assert status["recovery"]["truncated_bytes"] == (
                cut - max(end for end, _ in boundaries if end <= cut))
            # The torn tail was physically truncated: the file is again
            # exactly the valid prefix.
            assert os.path.getsize(wal_path) + status[
                "recovery"]["truncated_bytes"] == cut
            reopened.close()

    def test_append_after_torn_truncation_continues_cleanly(self, tmp_path):
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        db.close()
        wal_path = tmp_path / WAL_FILENAME
        wal_path.write_bytes(wal_path.read_bytes() + b"\xde\xad\xbe")
        reopened = Database(path=str(tmp_path))
        assert ids(reopened) == [1]
        reopened.insert("t", [row(2)])
        reopened.close()
        final = Database(path=str(tmp_path))
        assert ids(final) == [1, 2]
        final.close()


# -- checkpoints ---------------------------------------------------------------------


class TestCheckpoints:
    def test_manual_checkpoint_rotates_log(self, tmp_path):
        db = make_db(tmp_path)
        db.insert("t", [row(1), row(2)])
        status = db.durability_status()
        assert status["wal_bytes"] > 0
        assert db.checkpoint() is True
        status = db.durability_status()
        assert status["wal_bytes"] == 0
        assert status["last_checkpoint_lsn"] > 0
        db.insert("t", [row(3)])
        db.close()
        reopened = Database(path=str(tmp_path))
        assert ids(reopened) == [1, 2, 3]
        report = reopened.durability_status()["recovery"]
        assert report["checkpoint_lsn"] == status["last_checkpoint_lsn"]
        assert report["replayed_records"] == 1  # only the post-ckpt insert
        reopened.close()

    def test_size_trigger_checkpoints_automatically(self, tmp_path):
        db = make_db(tmp_path, checkpoint_bytes=256)
        for i in range(1, 30):
            db.insert("t", [row(i)])
        status = db.durability_status()
        assert status["last_checkpoint_lsn"] > 0
        assert status["wal_bytes"] < 256 * 4  # the log keeps rotating
        db.close()
        reopened = Database(path=str(tmp_path))
        assert ids(reopened) == list(range(1, 30))
        reopened.close()

    def test_checkpoint_preserves_corrections(self, tmp_path):
        db = make_db(tmp_path)
        db.insert("t", [row(1), row(2)])
        db.corrections.record(CardinalityCorrection(
            table="t", predicate_key="b>3", estimated_rows=10.0,
            actual_rows=2, q_error=5.0,
            snapshot=StatsSnapshot({"t": 2})))
        assert db.checkpoint() is True
        db.close()
        reopened = Database(path=str(tmp_path))
        restored = reopened.corrections.lookup("t", "b>3")
        assert restored is not None
        assert restored.actual_rows == 2
        assert restored.q_error == 5.0
        reopened.close()

    def test_stale_wal_records_skipped_after_checkpoint(self, tmp_path):
        """A crash between checkpoint publication and WAL reset leaves
        stale records in the log; replay must skip them by LSN."""
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        wal_before = (tmp_path / WAL_FILENAME).read_bytes()
        assert db.checkpoint() is True
        db.close()
        # Re-impose the pre-checkpoint log: every record is <= the
        # checkpoint LSN and must not be applied twice.
        (tmp_path / WAL_FILENAME).write_bytes(wal_before)
        reopened = Database(path=str(tmp_path))
        assert ids(reopened) == [1]
        assert reopened.durability_status()[
            "recovery"]["replayed_records"] == 0
        reopened.close()

    def test_checkpoint_while_busy_writer_is_skipped(self, tmp_path):
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        lock = db.storage.writer_lock("t")
        assert lock.acquire()
        try:
            assert db._durability.checkpoint(db, force=True,
                                             lock_timeout=0.05) is False
        finally:
            lock.release()
        assert db.checkpoint() is True
        db.close()


# -- one applier: live DDL = WAL replay = checkpoint load ----------------------------

MV_SQL = "SELECT g, count(*) AS n, sum(v) AS s FROM t GROUP BY g"


def populate(db):
    """One object of every kind, so each DDL below has something to
    collide with, drop or build on."""
    db.create_table("t", [("id", DataType.INTEGER, False),
                          ("g", DataType.INTEGER, False),
                          ("v", DataType.INTEGER)], primary_key=["id"])
    db.create_table("u", [("k", DataType.INTEGER, False)])
    db.insert("t", [(i, i % 3, None if i % 5 == 0 else i)
                    for i in range(30)])
    db.insert("u", [(i,) for i in range(4)])
    db.create_index("ix_t_g", "t", ["g"])
    db.create_view("big", "select id, g from t where v > 20")
    db.execute("CREATE MATERIALIZED VIEW mv AS " + MV_SQL)


#: kind -> (a DDL that succeeds, one that is doomed to a CatalogError)
DDL_KINDS = {
    "create_table": (
        lambda db: db.create_table(
            "w", [("a", DataType.DATE), ("b", DataType.VARCHAR, False)],
            primary_key=["b"], unique_keys=[["a", "b"]]),
        lambda db: db.create_table("t", [("x", DataType.INTEGER)])),
    "create_index": (
        lambda db: db.create_index("ix_t_v", "t", ["v", "g"], "ordered"),
        lambda db: db.create_index("ix_t_g", "t", ["v"])),
    "create_view": (
        lambda db: db.create_view("small", "select id from big where g = 1"),
        lambda db: db.create_view("big", "select id from t")),
    "drop_view": (lambda db: db.drop_view("big"),
                  lambda db: db.drop_view("mv")),
    "drop_table": (lambda db: db.drop_table("t"),  # cascades to mv
                   lambda db: db.drop_table("big")),
    "create_matview": (
        lambda db: db.execute("CREATE MATERIALIZED VIEW mv2 AS SELECT g, "
                              "min(v) AS lo FROM t WHERE v > 3 GROUP BY g"),
        lambda db: db.execute("CREATE MATERIALIZED VIEW u AS " + MV_SQL)),
    "drop_matview": (
        lambda db: db.execute("DROP MATERIALIZED VIEW mv"),
        lambda db: db.execute("DROP MATERIALIZED VIEW t")),
}


def observable_state(db):
    """Catalog, storage and query answers — everything a DDL can move."""
    catalog = db.catalog
    tables = sorted(catalog.tables(), key=lambda t: t.name)
    state = {
        "tables": [t.to_dict() for t in tables],
        "indexes": sorted(
            (ix.name, ix.table_name, ix.column_names, ix.kind,
             db.storage.get(ix.table_name).index(ix.name) is not None)
            for ix in catalog.indexes()),
        "views": catalog.views(),
        "matviews": [(v.name, v.table, v.sql) for v in catalog.matviews()],
        "rows": {t.name: sorted(db.storage.get(t.name).rows, key=repr)
                 for t in tables},
    }
    queries = ["select g, v from t where g = 2 order by v",
               "select id from big order by id",
               MV_SQL + " ORDER BY g",
               "select k from u order by k"]
    state["answers"] = []
    for sql in queries:
        try:
            state["answers"].append(db.execute(sql).rows)
        except CatalogError as exc:  # its table was the one dropped
            state["answers"].append(str(exc))
    return state


class TestOneApplier:
    @pytest.mark.parametrize("kind", sorted(DDL_KINDS))
    def test_live_replayed_and_checkpointed_ddl_agree(self, tmp_path, kind):
        ddl = DDL_KINDS[kind][0]
        for name, checkpoint in (("wal", False), ("ckpt", True)):
            memory = Database()
            live = Database(path=str(tmp_path / name))
            for db in (memory, live):
                populate(db)
                ddl(db)
            expected = observable_state(memory)
            assert observable_state(live) == expected
            if checkpoint:
                assert live.checkpoint() is True
            live.close()
            reopened = Database(path=str(tmp_path / name))
            report = reopened.durability_status()["recovery"]
            assert (report["replayed_records"] == 0) is checkpoint
            assert observable_state(reopened) == expected
            # Recovered objects are live ones: a commit still maintains
            # the views and probes the indexes it should.
            if reopened.catalog.has_table("t"):
                for db in (memory, reopened):
                    db.insert("t", [(100, 2, 77)])
                assert observable_state(reopened) == observable_state(memory)
            reopened.close()

    @pytest.mark.parametrize("kind", sorted(DDL_KINDS))
    def test_doomed_ddl_logs_nothing(self, tmp_path, kind):
        doomed = DDL_KINDS[kind][1]
        durable = Database(path=str(tmp_path))
        memory = Database()
        for db in (durable, memory):
            populate(db)
        before = os.path.getsize(tmp_path / WAL_FILENAME)
        state = observable_state(durable)
        with pytest.raises(CatalogError) as durable_error:
            doomed(durable)
        with pytest.raises(CatalogError) as memory_error:
            doomed(memory)
        assert str(durable_error.value) == str(memory_error.value)
        assert os.path.getsize(tmp_path / WAL_FILENAME) == before
        assert observable_state(durable) == state
        durable.close()


# -- the offline inspector -----------------------------------------------------------


class TestInspectorCli:
    def test_summary_and_records(self, tmp_path, capsys):
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        db.checkpoint()
        db.create_view("v", "select id from t")
        db.insert("t", [row(2)])
        db.close()
        assert durability_cli([str(tmp_path), "--records"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: lsn=" in out
        assert "2 record(s)" in out
        assert "create_view" in out
        assert "commit" in out

    def test_reports_torn_tail(self, tmp_path, capsys):
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        db.close()
        wal_path = tmp_path / WAL_FILENAME
        wal_path.write_bytes(wal_path.read_bytes() + b"\x00\x01")
        assert durability_cli([str(tmp_path)]) == 0
        assert "TORN TAIL of 2 byte(s)" in capsys.readouterr().out

    def test_reports_corrupt_checkpoint(self, tmp_path, capsys):
        db = make_db(tmp_path)
        db.insert("t", [row(1)])
        db.checkpoint()
        db.close()
        ckpt = tmp_path / CHECKPOINT_FILENAME
        data = bytearray(ckpt.read_bytes())
        data[HEADER_BYTES + 2] ^= 0xFF
        ckpt.write_bytes(bytes(data))
        assert durability_cli([str(tmp_path)]) == 0
        assert "CORRUPT" in capsys.readouterr().out
