"""In-memory index structures.

Two kinds back the catalog's :class:`~repro.catalog.IndexDef`:

* :class:`HashIndex` — dict-based, equality lookups in O(1);
* :class:`OrderedIndex` — sorted array with binary search, supporting both
  equality and range scans.

Indexes store *row positions* into the owning table's row list, so they stay
valid as long as the table is append-only (deletes rebuild).  Rows whose
key contains NULL are never indexed: SQL equality and range comparisons
with NULL never evaluate TRUE, so such rows can never match a seek.

Both kinds are written in *insert batches*: :meth:`insert` takes the
position ``first`` of the batch's first row, and the owning table calls
:meth:`end_batch` when the batch is over (see
:meth:`~repro.storage.table.StoredTable.insert_rows`).  Readers never
write: a lookup on an installed table version touches no index state.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence


class HashIndex:
    """Equality index mapping key tuples to row positions.  Versions share
    the never-mutated map ``_buckets`` and copy only ``_delta``, the keys
    changed since it was built; buckets are shared too (see :meth:`insert`).
    """

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions = tuple(positions)  # column positions forming the key
        self._buckets: dict[tuple, list[int]] = {}
        self._delta: dict[tuple, list[int]] = {}

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.positions)

    def insert(self, row: tuple, row_position: int, first: int) -> None:
        """Add ``row_position`` under ``row``'s key.

        No bucket reachable from an installed version is ever mutated.
        A bucket is appended to in place only if it holds a position at
        or after ``first``: the batch in progress created or copied it.
        Any other bucket may be shared, so it is replaced by a copy.
        Positions grow with the store, so ownership ends with the batch.
        """
        key = self.key_of(row)
        if None in key:
            return
        bucket = self._delta.get(key) or self._buckets.get(key)
        if bucket is None:
            self._delta[key] = [row_position]
        elif bucket[-1] >= first:
            bucket.append(row_position)
        else:
            self._delta[key] = bucket + [row_position]

    def end_batch(self) -> None:
        """Fold the delta into a new shared map once it exceeds an eighth
        of it: clones copy at most that, folds cost O(1) per changed key."""
        if len(self._delta) > len(self._buckets) >> 3:
            self._buckets = ({**self._buckets, **self._delta}
                             if self._buckets else self._delta)
            self._delta = {}

    def lookup(self, key: tuple) -> Sequence[int]:
        """Row positions whose key equals ``key`` (NULL never matches).

        ``key`` must already be a tuple in :attr:`positions` order.  A
        hit returns the index's own bucket list, not a copy: callers
        read it and must never mutate it.
        """
        if None in key:
            return []
        return self._delta.get(key) or self._buckets.get(key) or []

    def lookup_many(self, keys: Iterable[tuple]) -> list[Sequence[int]]:
        """:meth:`lookup` for a batch of probe keys: one (read-only)
        position sequence per key, in key order."""
        delta, get = self._delta.get, self._buckets.get
        empty: Sequence[int] = ()
        return [empty if None in key else delta(key) or get(key, empty)
                for key in keys]

    def rebuild(self, rows: Sequence[tuple]) -> None:
        self._buckets, self._delta = {}, {}
        for position, row in enumerate(rows):
            self.insert(row, position, 0)
        self.end_batch()

    def clone(self) -> "HashIndex":
        """A copy-on-write successor: copies the delta, shares the rest."""
        new = HashIndex(self.positions)
        new._buckets, new._delta = self._buckets, dict(self._delta)
        return new

    def __len__(self) -> int:
        return sum(len(b) for b in {**self._buckets, **self._delta}.values())


class OrderedIndex:
    """Sorted index supporting equality and range scans.

    Inserts append; :meth:`end_batch` restores key order on the writer
    side, so an installed version is always sorted and lookups only read.
    """

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions = tuple(positions)
        self._entries: list[tuple[tuple, int]] = []
        self._sorted = True

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.positions)

    def insert(self, row: tuple, row_position: int, first: int) -> None:
        key = self.key_of(row)
        if None in key:
            return
        self._entries.append((key, row_position))
        self._sorted = False

    def end_batch(self) -> None:
        """Sort the batch's entries into place (stable: equal keys stay
        in position order)."""
        if not self._sorted:
            self._entries.sort(key=itemgetter(0))
            self._sorted = True

    def lookup(self, key: tuple) -> list[int]:
        if None in key:
            return []
        entries = self._entries
        lo = bisect.bisect_left(entries, (key, -1))
        result = []
        for i in range(lo, len(entries)):
            entry_key, position = entries[i]
            if entry_key != key:
                break
            result.append(position)
        return result

    def lookup_many(self, keys: Iterable[tuple]) -> list[Sequence[int]]:
        """:meth:`lookup` for a batch of probe keys, in key order."""
        return [self.lookup(key) for key in keys]

    def range_scan(self, low: tuple | None = None, high: tuple | None = None,
                   low_inclusive: bool = True,
                   high_inclusive: bool = True) -> Iterator[int]:
        """Row positions with key in the given (prefix) range, in key order."""
        if low is None:
            start = 0
        else:
            low = tuple(low)
            if low_inclusive:
                start = bisect.bisect_left(self._entries, (low, -1))
            else:
                start = bisect.bisect_right(
                    self._entries, (low + (_INFINITY,), float("inf")))
        for i in range(start, len(self._entries)):
            entry_key, position = self._entries[i]
            if high is not None:
                prefix = entry_key[:len(high)]
                if high_inclusive:
                    if prefix > tuple(high):
                        break
                else:
                    if prefix >= tuple(high):
                        break
            yield position

    def rebuild(self, rows: Sequence[tuple]) -> None:
        self._entries = []
        for position, row in enumerate(rows):
            self.insert(row, position, 0)
        self.end_batch()

    def clone(self) -> "OrderedIndex":
        """An independent copy (for copy-on-write table versions)."""
        new = OrderedIndex(self.positions)
        new._entries = list(self._entries)
        return new

    def __len__(self) -> int:
        return len(self._entries)


class _Infinity:
    """Sorts after every other value (used for exclusive lower bounds)."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True


_INFINITY = _Infinity()
