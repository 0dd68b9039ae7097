"""Native columnar chunk storage: lightweight encodings plus zone maps.

The unit of storage is the :class:`ColumnChunk` — an immutable horizontal
slice of a table holding one *encoded* array per column plus a
:class:`ZoneMap` (min / max / null count) per column.  A
:class:`ColumnStore` is a list of sealed chunks followed by a mutable
*tail* of plain per-column append lists; when the tail reaches
``chunk_rows`` it is sealed, which is when encodings are chosen:

* **RLE** when the tail is clustered — the number of equal-value runs is
  at most a quarter of the row count;
* **dictionary** when the column is low-NDV — at most an eighth as many
  distinct values as rows (TPC-H ``p_brand`` / ``l_shipmode`` territory);
* **plain** (a materialized list) otherwise, and as the fallback whenever
  values are unhashable or incomparable.

Encoding equality is deliberately stricter than ``==``: two values are
merged into one run / dictionary slot only when their *types* also match,
so ``1`` and ``1.0`` (equal, differently typed) round-trip bit-identically
through every encoding.

Zone maps support predicate skipping (Abadi et al., *Column-Stores vs.
Row-Stores*): :func:`compile_zone_filter` turns one conjunct into a
chunk-level test that returns True only when **no row in the chunk can
satisfy the conjunct** under SQL three-valued semantics.  The rules:

* comparison with a NULL literal/parameter never holds → always skip;
* an all-NULL chunk satisfies no comparison → always skip;
* a chunk whose min/max are unavailable (incomparable values) → never
  skip; a ``TypeError`` during the zone comparison → never skip;
* ``IS NULL`` skips iff ``null_count == 0``; ``IS NOT NULL`` skips iff
  ``null_count == nrows``.

Columns are the one in-memory form of the data: sealed chunks cache
their decoded columns *per chunk*, so appends to the tail never
invalidate cold chunks, and clones (:meth:`ColumnStore.clone`) share
sealed chunks — and their decoded columns — outright.  Row tuples are
built on demand by readers, only for the columns they read
(:class:`~repro.storage.table.RowView`).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import getitem, sub
from typing import Any, Callable, Mapping, Optional, Sequence

from .. import faultinject
from ..algebra.scalar import (Comparison, ColumnRef, IsNull, Literal,
                              Parameter, ScalarExpr, cannot_raise,
                              conjuncts, parameter_slot)

#: Rows per sealed chunk.  4096 keeps whole-chunk decode well above the
#: vectorized batch size while bounding the re-encode cost of a seal.
DEFAULT_CHUNK_ROWS = 4096

#: The encodings :meth:`ColumnStore.force_encodings` accepts.
ENCODINGS = ("plain", "dict", "rle")


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------

class ZoneMap:
    """Min / max / null statistics for one column of one chunk.

    ``min``/``max`` cover non-NULL values only and are ``None`` when the
    chunk has no non-NULL values *or* the values do not compare cleanly
    (then pruning must not trust them).  ``null_count`` is always exact,
    so NULL-based pruning stays valid even when min/max are unavailable.
    """

    __slots__ = ("min", "max", "null_count", "nrows")

    def __init__(self, lo: Any, hi: Any, null_count: int, nrows: int) -> None:
        self.min = lo
        self.max = hi
        self.null_count = null_count
        self.nrows = nrows

    def __repr__(self) -> str:
        return (f"ZoneMap(min={self.min!r}, max={self.max!r}, "
                f"nulls={self.null_count}/{self.nrows})")


def compute_zone(values: Sequence[Any]) -> ZoneMap:
    """The zone map of one column slice."""
    nulls = 0
    lo: Any = None
    hi: Any = None
    try:
        for value in values:
            if value is None:
                nulls += 1
            elif lo is None:
                lo = hi = value
            elif value < lo:
                lo = value
            elif hi < value:
                hi = value
    except TypeError:
        # Incomparable values: keep the exact null count, drop min/max.
        return ZoneMap(None, None,
                       sum(1 for v in values if v is None), len(values))
    return ZoneMap(lo, hi, nulls, len(values))


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------

def _typed(value: Any) -> tuple[type, Any]:
    """A dictionary/distinct key that keeps ``1`` and ``1.0`` apart."""
    return (value.__class__, value)


class PlainColumn:
    """No encoding: the values themselves."""

    __slots__ = ("values",)
    kind = "plain"

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    def decode(self) -> list[Any]:
        return self.values


class DictColumn:
    """Dictionary encoding: first-occurrence-ordered values + codes."""

    __slots__ = ("codes", "values")
    kind = "dict"

    def __init__(self, values: Sequence[Any]) -> None:
        mapping: dict[tuple[type, Any], int] = {}
        dictionary: list[Any] = []
        codes: list[int] = []
        for value in values:
            key = _typed(value)
            code = mapping.get(key)
            if code is None:
                code = mapping[key] = len(dictionary)
                dictionary.append(value)
            codes.append(code)
        self.codes = codes
        self.values = dictionary

    def __len__(self) -> int:
        return len(self.codes)

    def decode(self) -> list[Any]:
        dictionary = self.values
        return [dictionary[code] for code in self.codes]


class RLEColumn:
    """Run-length encoding: ``(value, run_length)`` pairs."""

    __slots__ = ("runs", "nrows")
    kind = "rle"

    def __init__(self, values: Sequence[Any]) -> None:
        runs: list[tuple[Any, int]] = []
        current: Any = None
        count = 0
        for value in values:
            if count and value.__class__ is current.__class__ \
                    and value == current:
                count += 1
            else:
                if count:
                    runs.append((current, count))
                current = value
                count = 1
        if count:
            runs.append((current, count))
        self.runs = runs
        self.nrows = len(values)

    def __len__(self) -> int:
        return self.nrows

    def decode(self) -> list[Any]:
        out: list[Any] = []
        for value, count in self.runs:
            out.extend([value] * count)
        return out


def choose_encoding(values: Sequence[Any]) -> str:
    """Pick an encoding for one column slice (see the module docstring)."""
    nrows = len(values)
    if nrows < 16:
        return "plain"  # not worth the indirection
    try:
        runs = 1
        prev = values[0]
        for value in values[1:]:
            if value.__class__ is not prev.__class__ or value != prev:
                runs += 1
                prev = value
        if runs * 4 <= nrows:
            return "rle"
        distinct = len({_typed(v) for v in values})
        if distinct * 8 <= nrows:
            return "dict"
    except TypeError:
        return "plain"  # unhashable or incomparable values
    return "plain"


def encode_column(values: Sequence[Any],
                  kind: Optional[str] = None) -> Any:
    """Encode one column slice, falling back to plain when the requested
    (or chosen) encoding cannot represent the values."""
    if kind is None:
        kind = choose_encoding(values)
    try:
        if kind == "dict":
            return DictColumn(values)
        if kind == "rle":
            return RLEColumn(values)
    except TypeError:
        pass
    return PlainColumn(values)


# ---------------------------------------------------------------------------
# Chunks
# ---------------------------------------------------------------------------

class ColumnChunk:
    """One sealed, immutable horizontal slice of a table.

    Decoded columns are cached per chunk — the cache is derived,
    idempotent state, so sharing a chunk between table versions (and
    decoding a column concurrently) is benign.
    """

    __slots__ = ("encoded", "zones", "nrows", "_decoded")

    def __init__(self, encoded: tuple, zones: "tuple[ZoneMap, ...]",
                 nrows: int) -> None:
        self.encoded = encoded
        self.zones = zones
        self.nrows = nrows
        self._decoded: list[Optional[list]] = [None] * len(encoded)

    @property
    def encodings(self) -> tuple[str, ...]:
        return tuple(column.kind for column in self.encoded)

    def column(self, position: int) -> list[Any]:
        """The decoded value list of one column (cached)."""
        cached = self._decoded[position]
        if cached is None:
            faultinject.hit("columnar.decode")
            cached = self.encoded[position].decode()
            self._decoded[position] = cached
        return cached

    def columns(self) -> list[list[Any]]:
        return [self.column(i) for i in range(len(self.encoded))]


def seal_chunk(columns: Sequence[Sequence[Any]], nrows: int,
               kinds: Optional[Sequence[str]] = None) -> ColumnChunk:
    """Encode ``columns`` (each exactly ``nrows`` long) into a chunk."""
    encoded = tuple(
        encode_column(column, kinds[i] if kinds is not None else None)
        for i, column in enumerate(columns))
    zones = tuple(compute_zone(column) for column in columns)
    return ColumnChunk(encoded, zones, nrows)


class ScanUnit:
    """A scan-ready view of one chunk — sealed, or the (copied) tail."""

    __slots__ = ("zones", "nrows", "_chunk", "_cols")

    def __init__(self, zones: "tuple[ZoneMap, ...]", nrows: int,
                 chunk: Optional[ColumnChunk] = None,
                 cols: Optional[list[list[Any]]] = None) -> None:
        self.zones = zones
        self.nrows = nrows
        self._chunk = chunk
        self._cols = cols

    def column(self, position: int) -> list[Any]:
        """One column's values (a sealed chunk decodes only this one)."""
        if self._chunk is not None:
            return self._chunk.column(position)
        assert self._cols is not None
        return self._cols[position]


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

#: Below this many positions, :meth:`ColumnStore.columns_at` looks rows
#: up one at a time: its per-column C-level gathers cost about as much
#: to set up as that many direct lookups.
_FEW_POSITIONS = 16


class ColumnStore:
    """Sealed chunks plus a mutable tail, for one table version.

    Appends go to per-column tail lists; reaching ``chunk_rows`` seals
    the tail into a :class:`ColumnChunk` (choosing encodings).  The
    tail's scan unit (a copy of its columns plus zone maps) is cached
    keyed by the tail length, so it survives reads and is
    invalidated by the next append — installed versions never append,
    which makes their caches permanent.
    """

    __slots__ = ("ncols", "chunk_rows", "chunks", "_starts", "_sealed_rows",
                 "_uniform", "_tail", "_tail_len", "_tail_unit")

    def __init__(self, ncols: int,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be at least 1")
        self.ncols = ncols
        self.chunk_rows = chunk_rows
        self.chunks: list[ColumnChunk] = []
        self._starts: list[int] = []       # first row position per chunk
        self._sealed_rows = 0
        #: every sealed chunk holds exactly ``chunk_rows`` rows (true
        #: unless a test hook sealed a short tail): position -> chunk is
        #: then a division instead of a bisect
        self._uniform = True
        self._tail: list[list[Any]] = [[] for _ in range(ncols)]
        self._tail_len = 0
        self._tail_unit: Optional[tuple[int, ScanUnit]] = None

    def __len__(self) -> int:
        return self._sealed_rows + self._tail_len

    # -- writes -----------------------------------------------------------------

    def append(self, row: Sequence[Any]) -> None:
        for column, value in zip(self._tail, row):
            column.append(value)
        self._tail_len += 1
        if self._tail_len >= self.chunk_rows:
            self.seal_tail()

    def seal_tail(self, kinds: Optional[Sequence[str]] = None) -> None:
        """Seal the tail (if any) into an immutable encoded chunk."""
        nrows = self._tail_len
        if nrows == 0:
            return
        chunk = seal_chunk(self._tail, nrows, kinds)
        self._starts.append(self._sealed_rows)
        self.chunks.append(chunk)
        self._sealed_rows += nrows
        self._uniform = self._uniform and nrows == self.chunk_rows
        self._tail = [[] for _ in range(self.ncols)]
        self._tail_len = 0
        self._tail_unit = None

    def force_encodings(self, kinds: Sequence[str]) -> None:
        """Re-seal every chunk (tail included) with fixed per-column
        encodings — the test hook behind the encoding differential sweep.
        Encodings that cannot represent the values fall back to plain."""
        if len(kinds) != self.ncols:
            raise ValueError(
                f"expected {self.ncols} encodings, got {len(kinds)}")
        for kind in kinds:
            if kind not in ENCODINGS:
                raise ValueError(f"unknown encoding {kind!r}")
        self.seal_tail(kinds)
        self.chunks = [seal_chunk(chunk.columns(), chunk.nrows, kinds)
                       for chunk in self.chunks]

    # -- reads ------------------------------------------------------------------

    def _tail_unit_now(self) -> Optional[ScanUnit]:
        nrows = self._tail_len
        if nrows == 0:
            return None
        cached = self._tail_unit
        if cached is not None and cached[0] == nrows:
            return cached[1]
        cols = [column[:nrows] for column in self._tail]
        unit = ScanUnit(tuple(compute_zone(c) for c in cols), nrows,
                        cols=cols)
        self._tail_unit = (nrows, unit)
        return unit

    def scan_units(self) -> list[ScanUnit]:
        """Every chunk as a scan unit, in row-position order."""
        units = [ScanUnit(chunk.zones, chunk.nrows, chunk=chunk)
                 for chunk in self.chunks]
        tail = self._tail_unit_now()
        if tail is not None:
            units.append(tail)
        return units

    def columns_at(self, positions: Sequence[int],
                   which: Sequence[int]) -> list[list[Any]]:
        """The values of columns ``which`` at row ``positions``, one list
        per column, in ``positions`` order — the index seeks' and the row
        façade's gather, straight from the decoded chunk columns (nothing
        cached beyond the chunks' own decoded columns).  Each
        position is located once, for all of ``which``, and every value
        is then fetched by C-level maps."""
        chunks = self.chunks
        if len(positions) < _FEW_POSITIONS:
            # Few rows (a one-binding seek): look each up directly, as
            # the per-column setup below would cost more than it saves.
            out: list[list[Any]] = [[] for _ in which]
            for position in positions:
                if position < self._sealed_rows:
                    index = (position // self.chunk_rows if self._uniform
                             else bisect_right(self._starts, position) - 1)
                    column = chunks[index].column
                    offset = position - self._starts[index]
                else:
                    column = self._tail.__getitem__
                    offset = position - self._sealed_rows
                for values, p in zip(out, which):
                    values.append(column(p)[offset])
            return out
        # Each position as (chunk index, offset), the tail being one more
        # chunk after the sealed ones.
        if self._uniform:
            size = self.chunk_rows
            index = [position // size for position in positions]
            offset = [position % size for position in positions]
        else:
            starts = self._starts + [self._sealed_rows]
            index = [bisect_right(starts, position) - 1
                     for position in positions]
            offset = list(map(sub, positions, map(starts.__getitem__,
                                                  index)))
        out = []
        for p in which:
            parts = [chunk.column(p) for chunk in chunks]
            parts.append(self._tail[p])
            out.append(list(map(getitem, map(parts.__getitem__, index),
                                offset)))
        return out

    def columns(self, which: Sequence[int]) -> list[list[Any]]:
        """The whole table pivoted columnar: fresh concatenated lists, of
        the columns at positions ``which``."""
        out: list[list[Any]] = [[] for _ in which]
        for chunk in self.chunks:
            for acc, p in zip(out, which):
                acc.extend(chunk.column(p))
        nrows = self._tail_len
        if nrows:
            for acc, p in zip(out, which):
                acc.extend(self._tail[p][:nrows])
        return out

    # -- versioning -------------------------------------------------------------

    def clone(self) -> "ColumnStore":
        """A copy-on-write successor: sealed chunks (and their decoded
        columns) are shared, tail lists are copied."""
        new = ColumnStore.__new__(ColumnStore)
        new.ncols = self.ncols
        new.chunk_rows = self.chunk_rows
        new.chunks = list(self.chunks)
        new._starts = list(self._starts)
        new._sealed_rows = self._sealed_rows
        new._uniform = self._uniform
        new._tail = [list(column) for column in self._tail]
        new._tail_len = self._tail_len
        new._tail_unit = self._tail_unit
        return new


# ---------------------------------------------------------------------------
# Zone-map predicate compilation
# ---------------------------------------------------------------------------

#: ``literal op column`` rewritten as ``column mirror(op) literal``.
_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

ZoneFilter = Callable[[Sequence[ZoneMap], Mapping[int, Any]], bool]


def _value_getter(expr: ScalarExpr, allow_params: bool
                  ) -> Optional[Callable[[Mapping[int, Any]], Any]]:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda params: value
    if allow_params and isinstance(expr, Parameter):
        slot = parameter_slot(expr.index)
        return lambda params: params.get(slot)
    return None


def compile_zone_filter(conjunct: ScalarExpr, layout: Mapping[int, int],
                        allow_params: bool = True) -> Optional[ZoneFilter]:
    """A chunk-skip test for one conjunct, or ``None`` when the conjunct
    is not prunable.  The returned ``fn(zones, params) -> bool`` answers
    "can no row in this chunk make the conjunct TRUE?" — True means the
    chunk may be skipped."""
    if isinstance(conjunct, IsNull) and isinstance(conjunct.arg, ColumnRef):
        found = layout.get(conjunct.arg.column.cid)
        if found is None:
            return None
        null_pos = found  # narrowed rebinding: closures see a plain int
        if conjunct.negated:  # IS NOT NULL

            def prune_not_null(zones: Sequence[ZoneMap],
                               params: Mapping[int, Any]) -> bool:
                zone = zones[null_pos]
                return zone.null_count == zone.nrows

            return prune_not_null

        def prune_is_null(zones: Sequence[ZoneMap],
                          params: Mapping[int, Any]) -> bool:
            return zones[null_pos].null_count == 0

        return prune_is_null
    if not isinstance(conjunct, Comparison):
        return None
    op = conjunct.op
    if isinstance(conjunct.left, ColumnRef):
        column, value_expr = conjunct.left, conjunct.right
    elif isinstance(conjunct.right, ColumnRef):
        column, value_expr = conjunct.right, conjunct.left
        op = _MIRROR[op]
    else:
        return None
    if isinstance(value_expr, ColumnRef):
        return None  # column-vs-column: zones alone cannot decide
    maybe_position = layout.get(column.column.cid)
    if maybe_position is None:
        return None
    position = maybe_position  # narrowed rebinding for the closure
    maybe_getter = _value_getter(value_expr, allow_params)
    if maybe_getter is None:
        return None
    get_value = maybe_getter

    def prune(zones: Sequence[ZoneMap],
              params: Mapping[int, Any]) -> bool:
        value = get_value(params)
        if value is None:
            return True  # comparison with NULL is never TRUE
        zone = zones[position]
        if zone.null_count == zone.nrows:
            return True  # all-NULL chunk satisfies no comparison
        lo, hi = zone.min, zone.max
        if lo is None:
            return False  # min/max unavailable: cannot prune
        try:
            if op == "=":
                return value < lo or hi < value
            if op == "<":
                return not (lo < value)
            if op == "<=":
                return not (lo <= value)
            if op == ">":
                return not (value < hi)
            if op == ">=":
                return not (value <= hi)
            # "<>": skip only when every non-NULL value equals ``value``
            return bool(lo == value) and bool(hi == value)
        except TypeError:
            return False  # cross-type comparison: keep the chunk

    return prune


def compile_zone_filters(predicate: ScalarExpr,
                         layout: Mapping[int, int],
                         allow_params: bool = True) -> list[ZoneFilter]:
    """Every prunable conjunct of ``predicate`` compiled; non-prunable
    ones are dropped (dropping is always safe — skipping stays
    conservative).

    Nothing prunes when some conjunct can raise: the row engine
    evaluates each conjunct on every row no earlier conjunct made FALSE
    (a NULL row goes on to the next), so a skipped chunk could hold the
    row whose error the statement raises."""
    parts = conjuncts(predicate)
    if not all(cannot_raise(part) for part in parts):
        return []
    out: list[ZoneFilter] = []
    for conjunct in parts:
        compiled = compile_zone_filter(conjunct, layout, allow_params)
        if compiled is not None:
            out.append(compiled)
    return out
