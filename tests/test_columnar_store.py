"""Unit tests for the native columnar storage layer.

Covers the encoding implementations (round-trip fidelity, including the
type-strict ``1`` vs ``1.0`` distinction), the seal-time encoding
heuristics, the :class:`ColumnStore` chunk/tail life cycle, the
:class:`RowView` row façade, and the per-chunk cache-invalidation
contract: writes touch only the tail, sealed chunks — and their decoded
columns — are shared across copy-on-write versions.
"""

import gc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CORRELATED, FULL, NAIVE, Database, DataType
from repro.catalog import ColumnStats, build_histogram
from repro.faultinject import fail_always, fail_at, is_active
from repro.physical.plan import explain_physical
from repro.storage import ColumnStore, RowView, StoredTable
from repro.storage.columnar import (DictColumn, PlainColumn, RLEColumn,
                                    choose_encoding, compute_zone,
                                    encode_column, seal_chunk)

# -- encodings ------------------------------------------------------------------

mixed_values = st.lists(
    st.one_of(st.none(), st.integers(-3, 3), st.booleans(),
              st.floats(allow_nan=False, allow_infinity=False,
                        width=16),
              st.sampled_from(["a", "bb", ""])),
    max_size=40)


class TestEncodings:
    @settings(max_examples=60, deadline=None, database=None)
    @given(values=mixed_values,
           kind=st.sampled_from(["plain", "dict", "rle"]))
    def test_round_trip_is_bit_identical(self, values, kind):
        encoded = encode_column(values, kind)
        decoded = encoded.decode()
        assert len(encoded) == len(values)
        assert [(v.__class__, v) for v in decoded] \
            == [(v.__class__, v) for v in values]

    def test_equal_but_differently_typed_values_stay_apart(self):
        # 1 == 1.0 == True in Python; the encodings must not merge them.
        values = [1, 1.0, True, 1, 1.0, True]
        for kind in ("dict", "rle"):
            decoded = encode_column(values, kind).decode()
            assert [type(v) for v in decoded] == [int, float, bool] * 2

    def test_dict_column_shares_slots(self):
        column = encode_column(["a", "b", "a", "a", "b"], "dict")
        assert isinstance(column, DictColumn)
        assert column.values == ["a", "b"]
        assert column.codes == [0, 1, 0, 0, 1]

    def test_rle_column_groups_runs(self):
        column = encode_column([7, 7, 7, None, None, 8], "rle")
        assert isinstance(column, RLEColumn)
        assert column.runs == [(7, 3), (None, 2), (8, 1)]

    def test_unhashable_values_fall_back_to_plain(self):
        values = [[1], [2]] * 10
        assert choose_encoding(values) == "plain"
        assert isinstance(encode_column(values, "dict"), PlainColumn)

    def test_choose_encoding_heuristics(self):
        # clustered: few runs relative to rows -> RLE
        assert choose_encoding([1] * 20 + [2] * 20) == "rle"
        # low NDV but unclustered -> dictionary
        assert choose_encoding([0, 1] * 20) == "dict"
        # high NDV -> plain
        assert choose_encoding(list(range(64))) == "plain"
        # tiny slices are never worth the indirection
        assert choose_encoding([1] * 15) == "plain"


class TestZoneComputation:
    def test_min_max_and_null_count(self):
        zone = compute_zone([3, None, 1, 9, None])
        assert (zone.min, zone.max) == (1, 9)
        assert zone.null_count == 2 and zone.nrows == 5

    def test_all_null_slice(self):
        zone = compute_zone([None, None])
        assert zone.min is None and zone.max is None
        assert zone.null_count == 2

    def test_incomparable_values_keep_exact_null_count(self):
        zone = compute_zone([1, "a", None, 2])
        assert zone.min is None and zone.max is None
        assert zone.null_count == 1 and zone.nrows == 4


# -- the store ------------------------------------------------------------------

def rows_of(store: ColumnStore) -> RowView:
    """The store read as whole row tuples."""
    return RowView(store, range(store.ncols))


class TestColumnStore:
    def build(self, nrows=10, chunk_rows=4) -> ColumnStore:
        store = ColumnStore(2, chunk_rows=chunk_rows)
        for i in range(nrows):
            store.append((i, i % 3))
        return store

    @staticmethod
    def short_chunk_store() -> ColumnStore:
        """Chunks of 4, 2 (sealed by hand) and 4 rows, then 3 in the
        tail: a short chunk breaks "position // chunk_rows"."""
        store = ColumnStore(2, chunk_rows=4)
        for i in range(6):
            store.append((i, i % 3))
        store.seal_tail()
        for i in range(6, 13):
            store.append((i, i % 3))
        return store

    def test_append_seals_full_chunks(self):
        store = self.build(10, chunk_rows=4)
        assert len(store) == 10
        assert [chunk.nrows for chunk in store.chunks] == [4, 4]
        assert [unit.nrows for unit in store.scan_units()] == [4, 4, 2]

    def test_row_addressing_across_chunks_and_tail(self):
        rows = rows_of(self.build(10, chunk_rows=4))
        for i in range(10):
            assert rows[i] == (i, i % 3)
        with pytest.raises(IndexError):
            rows[10]
        assert list(rows) == [(i, i % 3) for i in range(10)]
        assert self.build(10).columns([0, 1]) == \
            [list(range(10)), [i % 3 for i in range(10)]]

    def test_columns_at_gathers_in_probe_order(self):
        store = self.build(10, chunk_rows=4)
        positions = [9, 0, 4, 4, 3, 8, 7]  # tail, sealed, repeats
        assert store.columns_at(positions, [0, 1]) == \
            [positions, [p % 3 for p in positions]]
        assert store.columns_at([], [0, 1]) == [[], []]
        assert self.build(3, chunk_rows=4).columns_at([2, 0], [0, 1]) \
            == [[2, 0], [2, 0]]

    def test_columns_at_with_a_manually_sealed_short_chunk(self):
        # The gather must fall back to the chunk start offsets, clones
        # included, below and above the direct-lookup threshold.
        store = self.short_chunk_store()
        assert [chunk.nrows for chunk in store.chunks] == [4, 2, 4]
        for target in (store, store.clone()):
            for positions in (list(range(12, -1, -1)),
                              list(range(12, -1, -1)) * 2):
                assert target.columns_at(positions, [1, 0]) == \
                    [[p % 3 for p in positions], positions]

    def test_columns_at_matches_the_appended_rows(self):
        """One chunk, only a tail, chunks and a tail, and a manually
        sealed short chunk: any column subset, in any order, at any
        positions (repeats included), fewer or more of them than the
        direct-lookup threshold, gathers the rows as appended."""
        short = self.short_chunk_store()
        stores = [self.build(4, chunk_rows=4), self.build(3, chunk_rows=4),
                  self.build(10, chunk_rows=4), self.build(11, chunk_rows=3),
                  short, short.clone()]
        # scattered (short runs), ascending (one run per chunk), and long
        # runs beside one-position ones
        probes = ([9, 0, 4, 4, 3, 12, 8, 7, 2, 1], list(range(13)),
                  [0, 1, 2, 3] * 3 + [4, 8],
                  [9, 0, 4, 4, 3, 12, 8, 7, 2, 1] * 2,
                  list(range(13)) * 2, [0, 1, 2, 3] * 5 + [4, 8])
        for store in stores:
            appended = [(i, i % 3) for i in range(len(store))]
            for probe in probes:
                positions = [p for p in probe if p < len(store)]
                rows = [appended[p] for p in positions]
                for which in ([0, 1], [1], [1, 0], [0, 0], []):
                    assert store.columns_at(positions, which) == \
                        [[row[p] for row in rows] for p in which], which
            assert store.columns_at([], [1, 0]) == [[], []]
            assert store.columns([1]) == [store.columns([0, 1])[1]]

    def test_force_encodings_round_trips(self):
        store = self.build(10, chunk_rows=4)
        store.force_encodings(["rle", "dict"])
        assert all(chunk.encodings == ("plain", "dict")
                   or chunk.encodings == ("rle", "dict")
                   for chunk in store.chunks)
        assert list(rows_of(store)) == [(i, i % 3) for i in range(10)]

    def test_force_encodings_validates(self):
        store = self.build(4, chunk_rows=4)
        with pytest.raises(ValueError):
            store.force_encodings(["plain"])       # wrong arity
        with pytest.raises(ValueError):
            store.force_encodings(["plain", "lz4"])  # unknown kind

    def test_clone_shares_sealed_chunks_and_copies_tail(self):
        store = self.build(10, chunk_rows=4)
        clone = store.clone()
        assert all(a is b for a, b in zip(store.chunks, clone.chunks))
        clone.append((99, 0))
        assert len(store) == 10 and len(clone) == 11
        assert rows_of(store)[9] == (9, 0)
        assert rows_of(clone)[10] == (99, 0)

    def test_zone_maps_cover_tail(self):
        store = self.build(10, chunk_rows=4)
        tail_unit = store.scan_units()[-1]
        assert (tail_unit.zones[0].min, tail_unit.zones[0].max) == (8, 9)


# -- the row façade -------------------------------------------------------------

class TestRowView:
    def table(self) -> StoredTable:
        db = Database(chunk_rows=4)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, True)],
                        primary_key=("a",))
        db.insert("t", [(i, i * 10) for i in range(10)])
        return db.storage.get("t")

    def test_sequence_protocol(self):
        rows = self.table().rows
        assert isinstance(rows, RowView)
        assert len(rows) == 10
        assert rows[0] == (0, 0)
        assert rows[-1] == (9, 90)
        assert rows[3:6] == [(3, 30), (4, 40), (5, 50)]
        assert list(rows) == [(i, i * 10) for i in range(10)]
        with pytest.raises(IndexError):
            rows[10]

    def test_equality_against_lists_and_tuples(self):
        rows = self.table().rows
        expected = [(i, i * 10) for i in range(10)]
        assert rows == expected
        assert rows == tuple(expected)
        assert not (rows == expected[:-1])
        assert rows != expected[:-1]

    def test_column_subset_views(self):
        """A view builds tuples of only its stored columns, in its order,
        across sealed chunks and the tail; no columns yield ``()``."""
        table = self.table()
        for which in ([1], [1, 0], [0, 0], []):
            view = table.row_view(which)
            expected = [tuple((i, i * 10)[p] for p in which)
                        for i in range(10)]
            assert len(view) == 10
            assert list(view) == expected
            assert [view[i] for i in range(-10, 10)] == expected * 2
            assert view[2:9:3] == expected[2:9:3]
            with pytest.raises(IndexError):
                view[10]


# -- columns are the one stored form -------------------------------------------

def row_tuple_lists(store: ColumnStore) -> int:
    """How many lists of tuples ``store`` holds (RLE runs aside): row
    tuples are built by readers, never kept."""
    found, seen, stack = 0, set(), [store]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (RLEColumn, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, list) and any(isinstance(v, tuple) for v in obj):
            found += 1
        elif isinstance(obj, (list, tuple, dict)) or \
                type(obj).__module__.startswith("repro.storage"):
            stack.extend(gc.get_referents(obj))
    return found


class TestColumnsAreTheStoredForm:
    """``StoredTable.statistics()`` reads one stored column at a time,
    never row tuples, and computes what a per-column pass over the
    inserted rows computes; no reader leaves row tuples behind."""

    @staticmethod
    def row(i):
        return (i,
                None if i % 7 == 0 else ("x" if i % 2 else "y"),
                None if i % 32 < 8 else (i // 16) * 3)

    def database(self) -> tuple[Database, list[tuple]]:
        db = Database(chunk_rows=32)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.VARCHAR, True),
                              ("c", DataType.INTEGER, True)])
        rows = [self.row(i) for i in range(64)]
        db.insert("t", rows)                     # two full chunks
        short = [self.row(i) for i in range(64, 69)]
        db.insert("t", short)
        db.storage.get("t").seal()               # a short chunk
        tail = [self.row(i) for i in range(69, 72)]
        db.insert("t", tail)                     # and a tail
        return db, rows + short + tail

    @staticmethod
    def reference(names, rows) -> dict:
        out = {}
        for position, name in enumerate(names):
            values = [row[position] for row in rows]
            non_null = [v for v in values if v is not None]
            out[name] = ColumnStats(
                len(set(non_null)), len(values) - len(non_null),
                min(non_null) if non_null else None,
                max(non_null) if non_null else None,
                build_histogram(non_null, 16))
        return out

    def test_statistics_equal_a_per_column_reference(self, monkeypatch):
        db, rows = self.database()
        table = db.storage.get("t")
        store = table._store
        assert [chunk.nrows for chunk in store.chunks] == [32, 32, 5]
        assert len(table) == 72
        assert {kind for chunk in store.chunks
                for kind in chunk.encodings} == {"plain", "dict", "rle"}

        def no_rows(self):
            raise AssertionError("statistics iterated the row façade")
        monkeypatch.setattr(RowView, "__iter__", no_rows)
        monkeypatch.setattr(RowView, "__getitem__", no_rows)
        stats = table.statistics()
        assert stats.row_count == 72
        assert stats.columns == self.reference(["a", "b", "c"], rows)
        assert stats.column("b").null_count == 11
        assert stats.column("c").null_count == 24

    def test_readers_keep_no_row_tuples(self):
        db, rows = self.database()
        db.create_index("t_a", "t", ["a"], kind="hash")
        table = db.storage.get("t")
        table.statistics()
        seek = "select t.a, (select max(u.b) from t u where u.a = t.c) from t"
        assert "IndexSeek" in explain_physical(
            db.prepare(seek, CORRELATED).plan)
        for sql, mode in ((seek, CORRELATED), ("select * from t", FULL),
                          ("select t.b from t", FULL),
                          ("select count(*) from t", FULL),
                          ("select t.b, t.a from t", NAIVE)):
            db.execute(sql, mode, engine="tuple")
        assert list(table.rows) == rows and table.rows[70] == rows[70]
        assert row_tuple_lists(table._store) == 0


# -- per-chunk cache invalidation -----------------------------------------------

class TestPerChunkCaches:
    """Writes must invalidate only the tail: sealed chunks keep their
    decoded columns across copy-on-write installs, so a write-heavy
    interleaving never re-decodes cold data."""

    def make_db(self) -> Database:
        db = Database(chunk_rows=4)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, True)],
                        primary_key=("a",))
        db.insert("t", [(i, i % 3) for i in range(8)])
        return db

    def test_sealed_chunk_caches_survive_writes(self):
        db = self.make_db()
        # Warm the per-chunk caches via both engines.
        db.execute("select t.a, t.b from t", FULL, engine="vectorized")
        db.execute("select t.a, t.b from t", FULL, engine="tuple")
        before = db.storage.get("t")._store
        warmed_chunks = list(before.chunks)
        warmed_columns = [chunk.column(0) for chunk in warmed_chunks]

        # Write-heavy interleaving: every insert installs a new version.
        for i in range(8, 20):
            db.insert("t", [(i, i % 3)])
            rows = db.execute("select t.a from t order by 1", FULL).rows
            assert rows == [(j,) for j in range(i + 1)]

        after = db.storage.get("t")._store
        # The original sealed chunks are the very same objects...
        assert after.chunks[:len(warmed_chunks)] == warmed_chunks
        # ...and their decoded columns were never dropped: identical
        # list objects.
        for chunk, column in zip(after.chunks, warmed_columns):
            assert chunk.column(0) is column

    def test_new_chunks_sealed_from_interleaved_tail(self):
        db = self.make_db()
        for i in range(8, 20):
            db.insert("t", [(i, i % 3)])
        store = db.storage.get("t")._store
        assert [chunk.nrows for chunk in store.chunks] == [4] * 5
        assert list(rows_of(store)) == [(i, i % 3) for i in range(20)]


# -- decode fault site ----------------------------------------------------------

class TestDecodeFaults:
    """``columnar.decode`` fires on the first touch of a sealed chunk's
    column; recovery falls back across engines with correct rows."""

    SQL = "select t.b, count(*) from t group by t.b"

    def fresh(self) -> Database:
        db = Database(chunk_rows=8)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, True)],
                        primary_key=("a",))
        db.insert("t", [(i, i % 5) for i in range(40)])
        return db

    def test_one_shot_decode_fault_recovers(self):
        expected = Counter(self.fresh().execute(self.SQL, NAIVE).rows)
        db = self.fresh()  # cold caches: the reference must not warm them
        with fail_at("columnar.decode", n=1) as (trigger,):
            result = db.execute(self.SQL, FULL)
        assert trigger.fired
        assert not is_active()
        assert Counter(result.rows) == expected

    def test_persistent_decode_fault_surfaces(self):
        from repro import InjectedFault
        db = self.fresh()
        with fail_always("columnar.decode"):
            with pytest.raises(InjectedFault):
                db.execute(self.SQL, FULL)
