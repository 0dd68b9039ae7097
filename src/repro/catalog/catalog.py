"""Catalog: table, column, key and index definitions.

The catalog is the optimizer's source of schema facts: declared keys feed
the key-derivation used by identities (7)–(9) and Max1row elision, and the
statistics (see :mod:`repro.catalog.statistics`) feed cardinality estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..algebra.datatypes import DataType
from ..concurrency import TrackedRLock
from ..errors import CatalogError


@dataclass(frozen=True)
class ColumnDef:
    """A stored column: name, type, nullability."""

    name: str
    dtype: DataType
    nullable: bool = True


@dataclass(frozen=True)
class IndexDef:
    """A secondary index over one or more columns of a table.

    ``kind`` is ``"hash"`` (equality lookups) or ``"ordered"`` (equality and
    range scans).
    """

    name: str
    table_name: str
    column_names: tuple[str, ...]
    kind: str = "hash"
    unique: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "ordered"):
            raise CatalogError(f"unknown index kind {self.kind!r}")
        if not self.column_names:
            raise CatalogError("index requires at least one column")


class TableDef:
    """Schema of one stored table."""

    def __init__(self, name: str, columns: Iterable[ColumnDef],
                 primary_key: Iterable[str] = (),
                 unique_keys: Iterable[Iterable[str]] = ()) -> None:
        self.name = name
        self.columns = list(columns)
        if not self.columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name!r}")
        self._by_name = {c.name: i for i, c in enumerate(self.columns)}
        self.primary_key = tuple(primary_key)
        self.unique_keys = [tuple(k) for k in unique_keys]
        for key in self.all_keys():
            for col in key:
                if col not in self._by_name:
                    raise CatalogError(
                        f"key column {col!r} not in table {name!r}")

    def all_keys(self) -> list[tuple[str, ...]]:
        keys = []
        if self.primary_key:
            keys.append(self.primary_key)
        keys.extend(self.unique_keys)
        return keys

    def column_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}") from None

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def to_dict(self) -> dict:
        """A JSON-safe description, round-tripped by
        :func:`table_def_from_dict` (WAL DDL records, checkpoints)."""
        return {
            "name": self.name,
            "columns": [[c.name, c.dtype.value, c.nullable]
                        for c in self.columns],
            "primary_key": list(self.primary_key),
            "unique_keys": [list(k) for k in self.unique_keys],
        }

    def __repr__(self) -> str:
        return f"TableDef({self.name}, {len(self.columns)} columns)"


def table_def_from_dict(payload: dict) -> TableDef:
    """Rebuild a :class:`TableDef` from :meth:`TableDef.to_dict` output."""
    return TableDef(
        payload["name"],
        [ColumnDef(name, DataType(dtype), nullable)
         for name, dtype, nullable in payload["columns"]],
        primary_key=payload.get("primary_key", ()),
        unique_keys=payload.get("unique_keys", ()))


def index_def_from_dict(payload: dict) -> IndexDef:
    """Rebuild an :class:`IndexDef` from :func:`index_def_to_dict` output."""
    return IndexDef(payload["name"], payload["table"],
                    tuple(payload["columns"]),
                    kind=payload.get("kind", "hash"),
                    unique=payload.get("unique", False))


def index_def_to_dict(index: IndexDef) -> dict:
    """A JSON-safe description of an index definition."""
    return {"name": index.name, "table": index.table_name,
            "columns": list(index.column_names), "kind": index.kind,
            "unique": index.unique}


class Catalog:
    """The collection of table, view and index definitions."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}
        self._indexes: dict[str, IndexDef] = {}
        self._views: dict[str, str] = {}  # name -> defining SQL text
        # Materialized views: name -> definition object (duck-typed —
        # the catalog stays independent of repro.matview; it only relies
        # on ``.name``, ``.table`` and ``.sql`` attributes).  The view's
        # *backing table* is a real TableDef registered in ``_tables``
        # under the same name, so binding and storage treat it as any
        # other table.
        self._matviews: dict[str, object] = {}
        #: Monotonic schema version, bumped by every DDL change.  Cached
        #: plans embed the version they were built against; a mismatch
        #: means the plan may reference stale schema and must be rebuilt.
        self.version = 0
        #: Serializes DDL: concurrent sessions may create/drop objects,
        #: and the existence check plus insert plus version bump must be
        #: one atomic step.  Point reads stay lock-free (dict reads are
        #: atomic and definitions are immutable once registered), but
        #: *enumerations* copy under the lock — handing out a live dict
        #: iterator would raise "dictionary changed size" under
        #: concurrent DDL.
        self._lock = TrackedRLock("catalog.schema")

    # -- tables ---------------------------------------------------------------

    def create_table(self, table: TableDef) -> TableDef:
        key = table.name.lower()
        with self._lock:
            if key in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
            if key in self._views:
                raise CatalogError(f"{table.name!r} already names a view")
            if key in self._matviews:
                raise CatalogError(
                    f"{table.name!r} already names a materialized view")
            self._tables[key] = table
            self.version += 1
            return table

    def get_table(self, name: str) -> TableDef:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def drop_table(self, name: str) -> None:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"unknown table {name!r}")
            del self._tables[key]
            for index_name in [n for n, ix in self._indexes.items()
                               if ix.table_name.lower() == key]:
                del self._indexes[index_name]
            self.version += 1

    def tables(self) -> Iterator[TableDef]:
        with self._lock:
            return iter(list(self._tables.values()))

    # -- views ------------------------------------------------------------------

    def create_view(self, name: str, sql: str) -> None:
        """Register a view: a named query expanded at bind time."""
        key = name.lower()
        with self._lock:
            if key in self._views:
                raise CatalogError(f"view {name!r} already exists")
            if key in self._tables:
                raise CatalogError(f"{name!r} already names a table")
            if key in self._matviews:
                raise CatalogError(
                    f"{name!r} already names a materialized view")
            self._views[key] = sql
            self.version += 1

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view_definition(self, name: str) -> str:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown view {name!r}") from None

    def drop_view(self, name: str) -> None:
        with self._lock:
            if name.lower() not in self._views:
                raise CatalogError(f"unknown view {name!r}")
            del self._views[name.lower()]
            self.version += 1

    # -- materialized views -----------------------------------------------------

    def create_matview(self, viewdef: object,
                       backing: TableDef | None = None) -> None:
        """Register a materialized view definition.

        ``backing`` is the view's backing table schema; when given it is
        registered into the table namespace under the view's name so the
        binder and storage treat the view as an ordinary table.  Recovery
        passes ``backing=None`` when the backing table already arrived via
        the checkpoint table image.
        """
        name = getattr(viewdef, "name")
        key = name.lower()
        with self._lock:
            if key in self._matviews:
                raise CatalogError(
                    f"materialized view {name!r} already exists")
            if key in self._views:
                raise CatalogError(f"{name!r} already names a view")
            if backing is not None:
                if key in self._tables:
                    raise CatalogError(f"{name!r} already names a table")
                self._tables[key] = backing
            elif key not in self._tables:
                raise CatalogError(
                    f"materialized view {name!r} has no backing table")
            self._matviews[key] = viewdef
            self.version += 1

    def drop_matview(self, name: str) -> None:
        """Remove a materialized view and its backing table."""
        key = name.lower()
        with self._lock:
            if key not in self._matviews:
                raise CatalogError(f"unknown materialized view {name!r}")
            del self._matviews[key]
            self._tables.pop(key, None)
            for index_name in [n for n, ix in self._indexes.items()
                               if ix.table_name.lower() == key]:
                del self._indexes[index_name]
            self.version += 1

    def has_matview(self, name: str) -> bool:
        return name.lower() in self._matviews

    def has_matviews(self) -> bool:
        """Cheap hot-path probe: any materialized view registered at all?"""
        return bool(self._matviews)

    def get_matview(self, name: str) -> object:
        try:
            return self._matviews[name.lower()]
        except KeyError:
            raise CatalogError(
                f"unknown materialized view {name!r}") from None

    def matviews(self) -> list[object]:
        """All materialized-view definitions, in creation order."""
        with self._lock:
            return list(self._matviews.values())

    def matviews_on(self, table_name: str) -> list[object]:
        """Materialized views whose base table is ``table_name``."""
        key = table_name.lower()
        with self._lock:
            return [v for v in self._matviews.values()
                    if getattr(v, "table") == key]

    # -- indexes ---------------------------------------------------------------

    def create_index(self, index: IndexDef) -> IndexDef:
        key = index.name.lower()
        with self._lock:
            if key in self._indexes:
                raise CatalogError(f"index {index.name!r} already exists")
            table = self.get_table(index.table_name)
            for col in index.column_names:
                if not table.has_column(col):
                    raise CatalogError(
                        f"index column {col!r} not in table {table.name!r}")
            self._indexes[key] = index
            self.version += 1
            return index

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    def indexes(self) -> list[IndexDef]:
        """All index definitions, in creation order."""
        with self._lock:
            return list(self._indexes.values())

    def views(self) -> list[tuple[str, str]]:
        """All ``(name, defining SQL)`` view pairs, in creation order.

        Creation order matters to consumers that re-register views (the
        checkpointer): a view may reference earlier views.
        """
        with self._lock:
            return list(self._views.items())

    def indexes_on(self, table_name: str) -> list[IndexDef]:
        with self._lock:
            return [ix for ix in self._indexes.values()
                    if ix.table_name.lower() == table_name.lower()]

    def get_index(self, name: str) -> IndexDef:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None
