"""Unit tests for the catalog and the in-memory storage engine."""

import pytest

from repro.algebra import (Column, ColumnRef, Comparison, DataType, Get,
                           Literal, Select)
from repro.catalog import (Catalog, ColumnDef, IndexDef, TableDef,
                           compute_table_stats)
from repro.core.optimizer import Estimator
from repro.errors import CatalogError, ExecutionError
from repro.storage import Storage, StoredTable
from repro.storage.index import HashIndex, OrderedIndex


def people_def():
    return TableDef(
        "people",
        [ColumnDef("id", DataType.INTEGER, nullable=False),
         ColumnDef("name", DataType.VARCHAR, nullable=False),
         ColumnDef("age", DataType.INTEGER, nullable=True)],
        primary_key=("id",))


class TestCatalog:
    def test_create_and_get(self):
        catalog = Catalog()
        catalog.create_table(people_def())
        assert catalog.get_table("people").name == "people"
        assert catalog.get_table("PEOPLE").name == "people"  # case-insensitive

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table(people_def())
        with pytest.raises(CatalogError):
            catalog.create_table(people_def())

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().get_table("nope")

    def test_key_column_must_exist(self):
        with pytest.raises(CatalogError):
            TableDef("t", [ColumnDef("a", DataType.INTEGER)],
                     primary_key=("b",))

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(CatalogError):
            TableDef("t", [ColumnDef("a", DataType.INTEGER),
                           ColumnDef("a", DataType.INTEGER)])

    def test_indexes(self):
        catalog = Catalog()
        catalog.create_table(people_def())
        catalog.create_index(IndexDef("ix_age", "people", ("age",)))
        assert [ix.name for ix in catalog.indexes_on("people")] == ["ix_age"]
        with pytest.raises(CatalogError):
            catalog.create_index(IndexDef("ix_bad", "people", ("nope",)))

    def test_drop_table_removes_indexes(self):
        catalog = Catalog()
        catalog.create_table(people_def())
        catalog.create_index(IndexDef("ix_age", "people", ("age",)))
        catalog.drop_table("people")
        assert not catalog.has_table("people")
        with pytest.raises(CatalogError):
            catalog.get_index("ix_age")

    def test_invalid_index_kind(self):
        with pytest.raises(CatalogError):
            IndexDef("ix", "t", ("a",), kind="btree-ish")


class TestStoredTable:
    def test_insert_tuple_and_dict(self):
        table = StoredTable(people_def())
        table.insert((1, "alice", 30))
        table.insert({"id": 2, "name": "bob"})
        assert list(table.rows) == [(1, "alice", 30), (2, "bob", None)]

    def test_not_null_enforced(self):
        table = StoredTable(people_def())
        with pytest.raises(ExecutionError):
            table.insert((1, None, 5))

    def test_type_checked(self):
        table = StoredTable(people_def())
        with pytest.raises(ExecutionError):
            table.insert((1, "alice", "not an int"))

    def test_primary_key_enforced(self):
        table = StoredTable(people_def())
        table.insert((1, "alice", 30))
        with pytest.raises(ExecutionError):
            table.insert((1, "bob", 31))

    def test_wrong_width_rejected(self):
        table = StoredTable(people_def())
        with pytest.raises(ExecutionError):
            table.insert((1, "x"))

    def test_unknown_dict_column_rejected(self):
        table = StoredTable(people_def())
        with pytest.raises(ExecutionError):
            table.insert({"id": 1, "name": "x", "nope": 2})

    def test_key_lookup_index_on_pk(self):
        table = StoredTable(people_def())
        table.insert((1, "alice", 30))
        table.insert((2, "bob", 31))
        index = table.key_lookup_index(["id"])
        assert index is not None
        assert index.lookup((2,)) == [1]

    def test_secondary_index_maintained(self):
        table = StoredTable(people_def())
        table.insert((1, "alice", 30))
        table.add_index(IndexDef("ix_age", "people", ("age",)))
        table.insert((2, "bob", 30))
        index = table.index("ix_age")
        assert sorted(index.lookup((30,))) == [0, 1]

    def test_statistics(self):
        table = StoredTable(people_def())
        table.insert_many([(1, "a", 10), (2, "b", 20), (3, "c", None)])
        stats = table.statistics()
        assert stats.row_count == 3
        age = stats.column("age")
        assert age.distinct_count == 2
        assert age.null_count == 1
        assert age.min_value == 10 and age.max_value == 20

    def test_statistics_cache_invalidated_on_insert(self):
        table = StoredTable(people_def())
        table.insert((1, "a", 10))
        assert table.statistics().row_count == 1
        table.insert((2, "b", 20))
        assert table.statistics().row_count == 2

    def test_statistics_survive_small_inserts(self, monkeypatch):
        """Statistics are recomputed only when the table's size drifts
        beyond the plan cache's threshold from the size they describe."""
        from repro.storage import table as table_module
        computed = []
        compute = table_module.compute_table_stats

        def counting(*args):
            computed.append(args[-1])
            return compute(*args)

        monkeypatch.setattr(table_module, "compute_table_stats", counting)
        table = StoredTable(people_def())
        table.insert_many([(i, f"p{i}", i) for i in range(10)])
        cached = table.statistics()
        table.insert((10, "one more", 10))
        assert table.statistics() is cached  # 11 vs 10: no drift
        assert computed == [10]
        table.insert_many([(i, f"p{i}", i) for i in range(11, 16)])
        assert table.statistics().row_count == 16  # 16 vs 10 drifted
        assert computed == [10, 16]

    def test_statistics_of_an_empty_table_are_recomputed(self):
        table = StoredTable(people_def())
        assert table.statistics().row_count == 0
        table.insert((1, "a", 10))
        assert table.statistics().row_count == 1


class TestIndexes:
    def test_hash_index_null_never_matches(self):
        index = HashIndex([0])
        index.rebuild([(None, "x"), (1, "y")])
        assert index.lookup((None,)) == []
        assert index.lookup((1,)) == [1]
        # A key containing NULL is not stored at all: under copy-on-write
        # a mostly-NULL column would otherwise copy one huge bucket per
        # commit.
        assert len(index) == 1 and (None,) not in index._buckets

    def test_ordered_index_range_scan(self):
        index = OrderedIndex([0])
        index.rebuild([(key,) for key in [5, 1, 3, None, 2, 4]])
        in_order = [p for p in index.range_scan()]
        assert in_order == [1, 4, 2, 5, 0]  # positions of 1,2,3,4,5
        assert list(index.range_scan(low=(2,), high=(4,))) == [4, 2, 5]
        assert list(index.range_scan(low=(2,), high=(4,),
                                     low_inclusive=False,
                                     high_inclusive=False)) == [2]

    def test_ordered_index_lookup(self):
        index = OrderedIndex([0])
        index.rebuild([(3,), (3,), (4,)])
        assert sorted(index.lookup((3,))) == [0, 1]
        assert index.lookup((None,)) == []


    @pytest.mark.parametrize("index_type", [HashIndex, OrderedIndex])
    def test_lookup_many_agrees_with_lookup(self, index_type):
        index = index_type([1, 0])  # key order differs from row order
        rows = [(1, "a"), (2, "b"), (1, "a"), (None, "a"), (1, None),
                (3, "c"), (1, "a")]
        index.rebuild(rows)
        keys = [("a", 1), ("zz", 9), ("a", None), (None, 1), ("b", 2),
                ("a", 1), ("c", 3)]
        found = index.lookup_many(iter(keys))
        assert [sorted(hit) for hit in found] == \
            [sorted(index.lookup(key)) for key in keys]
        assert sorted(found[0]) == [0, 2, 6]
        # NULL never matches, whichever side it is on
        assert list(found[2]) == [] and list(found[3]) == []
        assert index.lookup_many([]) == []

    def test_hash_lookup_does_not_copy_or_retuple(self):
        index = HashIndex([0])
        index.rebuild([(1, "x"), (1, "y")])
        # The bucket itself comes back (read-only by contract) ...
        assert index.lookup((1,)) is index.lookup((1,))
        assert index.lookup_many([(1,)])[0] is index.lookup((1,))
        # ... and a miss is a fresh list nobody else holds.
        assert index.lookup((2,)) is not index.lookup((2,))


class TestStorage:
    def test_round_trip(self):
        storage = Storage()
        table = storage.create(people_def())
        table.insert((1, "a", None))
        assert storage.get("people") is table
        storage.drop("people")
        with pytest.raises(ExecutionError):
            storage.get("people")


class TestStatisticsHelpers:
    def test_compute_table_stats_empty(self):
        stats = compute_table_stats(["a"], [[]], 0)
        assert stats.row_count == 0
        assert stats.column("a").distinct_count == 0

    # Selectivity has one implementation, the optimizer's estimator;
    # these pin what it derives from the computed column statistics.

    @staticmethod
    def _estimated_rows(stats, op, value):
        a = Column("a", DataType.INTEGER, nullable=True)
        select = Select(Get("t", [a], []),
                        Comparison(op, ColumnRef(a), Literal(value)))
        return Estimator(lambda name: stats).estimate(select).rows

    def test_selectivity_equals(self):
        stats = compute_table_stats(["a"], [[1, 2, 2, None]], 4)
        assert self._estimated_rows(stats, "=", 2) == pytest.approx(4 / 2)

    def test_selectivity_range(self):
        stats = compute_table_stats(["a"], [list(range(101))], 101)
        assert self._estimated_rows(stats, "<", 50) == \
            pytest.approx(0.5 * 101, abs=1.01)
        assert self._estimated_rows(stats, ">", 75) == \
            pytest.approx(0.25 * 101, abs=1.01)
