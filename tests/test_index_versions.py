"""Index state across copy-on-write table versions.

A committed write clones the installed version and inserts into the
private clone.  Hash indexes share their buckets between the two and a
batch copies a bucket the first time it writes to it; ordered indexes
copy their entry list and are sorted by the writer before install.
Every test here re-reads the *parent* version through ``lookup`` and
``lookup_many`` after the child's inserts: a clone that shared buckets
and still appended in place would pass the rest of the suite.

Run under ``REPRO_STRESS=1`` for more rounds of the threaded probe.
"""

import gc
import os
import sys
import threading

import pytest

from repro import Database, DataType
from repro.catalog import ColumnDef, IndexDef, TableDef
from repro.errors import ExecutionError
from repro.storage import StoredTable
from repro.tpch import create_tpch_schema, generate_tpch

STRESS = int(os.environ.get("REPRO_STRESS", "0") or "0")

KINDS = ["hash", "ordered"]

#: (lookup columns, probe keys) — the primary key, a nullable unique
#: key, and non-unique keys with duplicate buckets; every NULL probe
#: must miss.  Keys 236-245 are the rows around a 240-row table's end.
KEYS = [*range(-1, 30), *range(236, 246)]
PROBES = [
    (["k"], [(k,) for k in KEYS] + [(None,)]),
    (["u"], [(f"u{k}",) for k in KEYS] + [(None,)]),
    (["g"], [(g,) for g in range(-1, 6)] + [(None,)]),
    (["g", "k"], [(g, k) for g in range(4) for k in KEYS[::3]]
     + [(None, 1), (1, None)]),
]


def table_def():
    return TableDef(
        "t",
        [ColumnDef("k", DataType.INTEGER, nullable=False),
         ColumnDef("u", DataType.VARCHAR, nullable=True),
         ColumnDef("g", DataType.INTEGER, nullable=True)],
        primary_key=("k",), unique_keys=[("u",)])


def row(k, g):
    return (k, f"u{k}" if k % 4 else None, g)


def build(kind, rows=12):
    """``rows`` rows, g in {0, 1, 2, NULL}; chunk_rows=4 so clones share
    sealed chunks as well as index buckets."""
    table = StoredTable(table_def(), chunk_rows=4)
    table.add_index(IndexDef("ix_g", "t", ("g",), kind))
    table.add_index(IndexDef("ix_gk", "t", ("g", "k"), kind))
    table.insert_rows(row(k, None if k % 5 == 4 else k % 3)
                      for k in range(rows))
    return table


def answers(table):
    """Every index's answer to every probe, through both entry points."""
    out = []
    for columns, keys in PROBES:
        index = table.key_lookup_index(columns)
        out.append(([list(index.lookup(key)) for key in keys],
                    [list(hit) for hit in index.lookup_many(keys)]))
    return out


def brute_force(table):
    """What :func:`answers` must return, computed from the stored rows."""
    rows = list(table.rows)
    names = table.definition.column_names
    out = []
    for columns, keys in PROBES:
        at = [names.index(c) for c in columns]
        found = [[p for p, r in enumerate(rows)
                  if None not in key and tuple(r[i] for i in at) == key]
                 for key in keys]
        out.append((found, found))
    return out


def assert_consistent(table):
    assert answers(table) == brute_force(table)


@pytest.mark.parametrize("kind", KINDS)
def test_child_batch_leaves_parent_unchanged(kind):
    parent = build(kind)
    before = answers(parent)
    child = parent.clone()
    # existing g buckets (duplicates), a new g, NULL keys, new k and u
    child.insert_rows([row(12, 1), row(13, 1), row(14, 5), row(15, None),
                       row(16, 0), row(17, 1)])
    assert_consistent(child)
    assert answers(parent) == before
    assert_consistent(parent)


@pytest.mark.parametrize("kind", KINDS)
def test_two_batches_into_one_version_touch_the_same_key(kind):
    parent = build(kind)
    before = answers(parent)
    child = parent.clone()
    child.insert_rows([row(12, 1), row(13, 1)])
    grandchild = child.clone()
    between = answers(child)
    child.insert_rows([row(14, 1), row(15, 1)])   # buckets batch 1 copied
    assert_consistent(child)
    assert answers(grandchild) == between
    grandchild.insert_rows([row(14, 1), row(20, 1)])
    assert_consistent(grandchild)
    assert_consistent(child)
    assert answers(parent) == before


@pytest.mark.parametrize("kind", KINDS)
def test_sibling_versions_are_independent(kind):
    parent = build(kind)
    before = answers(parent)
    left, right = parent.clone(), parent.clone()
    left.insert_rows([row(12, 1), row(13, 2)])
    right.insert_rows([row(12, 2), row(14, 1)])   # same positions, same keys
    assert_consistent(left)
    assert_consistent(right)
    assert left.key_lookup_index(["g"]).lookup((1,))[-1] == 12
    assert right.key_lookup_index(["g"]).lookup((1,))[-1] == 13
    assert answers(parent) == before


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [
    row(13, 0),                     # duplicate of a row earlier in the batch
    row(3, 0),                      # duplicate of a parent row
    (99, "x", "not an integer"),    # type error
])
def test_failed_batch_keeps_indexes_consistent_with_the_store(kind, bad):
    parent = build(kind)
    before = answers(parent)
    child = parent.clone()
    with pytest.raises(ExecutionError):
        child.insert_rows([row(12, 1), row(13, 1), bad, row(30, 1)])
    assert len(child) == 14
    assert_consistent(child)
    assert answers(parent) == before
    child.insert_rows([row(14, 1)])
    assert_consistent(child)
    assert answers(parent) == before


def test_hash_clone_shares_untouched_buckets():
    parent = build("hash")
    child = parent.clone()
    child.insert_rows([row(12, 1), row(13, None)])
    old = parent.key_lookup_index(["g"]).lookup
    new = child.key_lookup_index(["g"]).lookup
    assert new((0,)) is old((0,)) and new((2,)) is old((2,))
    assert new((1,)) is not old((1,))
    assert new((1,)) == old((1,)) + [12]


def test_versions_between_folds_keep_private_deltas():
    """With 240 keys a two-row batch stays in the version's delta instead
    of being folded into a new shared map: chains and siblings of such
    versions share one map and must still stay independent."""
    parent = build("hash", rows=240)
    before = answers(parent)
    child = parent.clone()
    child.insert_rows([row(240, 1), row(241, 1)])
    grandchild = child.clone()
    between = answers(child)
    child.insert_rows([row(242, 1)])
    grandchild.insert_rows([row(242, 2), row(243, 1)])
    sibling = parent.clone()
    sibling.insert_rows([row(240, 2)])
    shared = parent.key_lookup_index(["k"])._buckets
    for version in (child, grandchild, sibling):
        assert version.key_lookup_index(["k"])._buckets is shared
        assert_consistent(version)
    assert answers(parent) == before
    assert answers(child) != between
    assert child.key_lookup_index(["g"]).lookup((1,))[-2:] == [241, 242]
    assert grandchild.key_lookup_index(["g"]).lookup((1,))[-2:] == [241, 243]


def test_hash_index_skips_null_keys():
    table = build("hash")
    for columns in (["u"], ["g"], ["g", "k"]):
        index = table.key_lookup_index(columns)
        assert not any(None in key
                       for key in {**index._buckets, **index._delta})
    nulls = sum(1 for r in table.rows if r[2] is None)
    assert nulls and len(table.index("ix_g")) == len(table) - nulls
    # several NULLs in the nullable unique key are not duplicates
    table.insert_rows([row(20, None), row(24, None)])
    assert_consistent(table)


def test_lookup_on_an_installed_ordered_version_writes_nothing():
    db = Database()
    db.create_table("t", [("k", DataType.INTEGER, False),
                          ("g", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.create_index("ix_g", "t", ["g"], kind="ordered")
    db.insert("t", [(k, (k * 7) % 5) for k in range(50)])
    db.insert("t", [(k, (k * 3) % 5) for k in range(50, 60)])
    index = db.storage.get("t").index("ix_g")
    state = dict(vars(index))
    entries = list(index._entries)
    assert index._sorted
    assert index.lookup((2,)) == sorted(index.lookup((2,)))
    index.lookup_many([(1,), (3,)])
    list(index.range_scan((1,), (3,)))
    assert vars(index).keys() == state.keys()
    assert all(getattr(index, name) is value    # same list, same flag
               for name, value in state.items())
    assert index._entries == entries


def test_concurrent_lookups_on_fresh_ordered_versions():
    """Readers hammer each freshly installed version of an ordered index
    while a writer keeps committing.  A lookup that sorted the shared
    entry list in place would empty it under the other readers."""
    rows, groups, readers = 20_000, 10, 4
    lookups = 30 * (4 if STRESS else 1)
    db = Database()
    db.create_table("t", [("k", DataType.INTEGER, False),
                          ("g", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.create_index("ix_g", "t", ["g"], kind="ordered")
    db.insert("t", [(k, k % groups) for k in range(rows)])
    done = threading.Event()
    short: list = []
    errors: list = []

    def write():
        k = rows
        try:
            while not done.is_set():
                db.insert("t", [(k, k % groups)])
                k += 1
        except Exception as exc:  # reported below
            errors.append(exc)

    def read(seed):
        try:
            for i in range(lookups):
                version = db.storage.get("t")
                g = (seed + i) % groups
                expected = (len(version) - g + groups - 1) // groups
                got = len(version.index("ix_g").lookup((g,)))
                if got != expected:
                    short.append((g, got, expected))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer = threading.Thread(target=write)
        threads = [threading.Thread(target=read, args=(seed,))
                   for seed in range(readers)]
        writer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        done.set()
        writer.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [writer, *threads])
    assert not errors, errors
    assert not short, f"{len(short)} of {readers * lookups} lookups short"


def test_clone_allocates_per_index_not_per_key():
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, 0.001)
    table = db.storage.get("lineitem")
    indexes = [*table._key_indexes, *table._indexes.values()]
    keys = sum(len(index._buckets) for index in indexes)
    bound = 4 * len(indexes) + len(table.definition.columns) + 16
    assert keys > 10 * bound  # the bound really separates O(keys)
    gc.collect()
    before = len(gc.get_objects())
    clone = table.clone()
    grown = len(gc.get_objects()) - before
    assert grown <= bound, (grown, bound)
    assert len(clone) == len(table)


def test_commits_copy_only_the_keys_changed_since_the_last_fold():
    """A commit's clone copies each hash index's delta, which stays under
    an eighth of the shared map; a full copy of every key would be left
    to whichever operation next triggers a young collection."""
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, 0.001)
    rows = db.storage.get("orders").rows
    template, first = rows[0], max(r[0] for r in rows) + 1
    deltas = []
    for key in range(first, first + 200):
        db.insert("orders", [(key, *template[1:])])
        table = db.storage.get("orders")
        primary, = table._key_indexes
        for index in (primary, table.index("ix_orders_cust")):
            assert len(index._delta) <= len(index._buckets) >> 3
        deltas.append(len(primary._delta))
    assert max(deltas) > 100 and 0 in deltas   # both paths: kept and folded
    assert db.execute("select count(*) from orders where o_orderkey >= ?",
                      params=(first,)).scalar() == 200
