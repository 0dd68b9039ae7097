"""In-memory index structures.

Two kinds back the catalog's :class:`~repro.catalog.IndexDef`:

* :class:`HashIndex` — dict-based, equality lookups in O(1);
* :class:`OrderedIndex` — sorted array with binary search, supporting both
  equality and range scans.

Indexes store *row positions* into the owning table's row list, so they stay
valid as long as the table is append-only (deletes rebuild).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Sequence


class HashIndex:
    """Equality index mapping key tuples to row positions."""

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions = tuple(positions)  # column positions forming the key
        self._buckets: dict[tuple, list[int]] = {}

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.positions)

    def insert(self, row: tuple, row_position: int) -> None:
        self._buckets.setdefault(self.key_of(row), []).append(row_position)

    def lookup(self, key: tuple) -> Sequence[int]:
        """Row positions whose key equals ``key`` (NULL never matches).

        ``key`` must already be a tuple in :attr:`positions` order.  A
        hit returns the index's own bucket list, not a copy: callers
        read it and must never mutate it.
        """
        if None in key:
            return []
        return self._buckets.get(key) or []

    def lookup_many(self, keys: Iterable[tuple]) -> list[Sequence[int]]:
        """:meth:`lookup` for a batch of probe keys: one (read-only)
        position sequence per key, in key order."""
        get = self._buckets.get
        empty: Sequence[int] = ()
        return [empty if None in key else get(key, empty) for key in keys]

    def rebuild(self, rows: Sequence[tuple]) -> None:
        self._buckets.clear()
        for position, row in enumerate(rows):
            self.insert(row, position)

    def clone(self) -> "HashIndex":
        """An independent copy (for copy-on-write table versions)."""
        new = HashIndex(self.positions)
        new._buckets = {key: list(positions)
                        for key, positions in self._buckets.items()}
        return new

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class OrderedIndex:
    """Sorted index supporting equality and range scans.

    Rows whose key contains NULL are excluded (SQL comparisons with NULL
    never evaluate TRUE, so they can never match a seek predicate).
    """

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions = tuple(positions)
        self._entries: list[tuple[tuple, int]] = []
        self._sorted = True

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.positions)

    def insert(self, row: tuple, row_position: int) -> None:
        key = self.key_of(row)
        if any(part is None for part in key):
            return
        self._entries.append((key, row_position))
        self._sorted = False

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._entries.sort(key=lambda e: e[0])
            self._sorted = True

    def lookup(self, key: tuple) -> list[int]:
        if None in key:
            return []
        self._ensure_sorted()
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
        self._ensure_sorted()
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
        self._entries.clear()
        for position, row in enumerate(rows):
            self.insert(row, position)
        self._sorted = False

    def clone(self) -> "OrderedIndex":
        """An independent copy (for copy-on-write table versions)."""
        new = OrderedIndex(self.positions)
        new._entries = list(self._entries)
        new._sorted = self._sorted
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
