"""Materialized-view lifecycle: create, drop, refresh, maintain.

Lock discipline (levels from :mod:`repro.concurrency`):

* **create** — ``db.ddl`` (10) → the *base* table's ``storage.writer``
  (20) held across [compute contents → log → apply the DDL record
  (``Database._apply_ddl``)]:
  holding the base writer lock closes the missed-delta window where a
  commit lands after the contents were computed but before the view
  starts receiving maintenance.
* **drop** — ``db.ddl`` (10) → the *view* backing's ``storage.writer``
  (20): a drop waits out any in-flight refresh or commit maintenance
  on the same view, so those never find the backing half-removed.
  Conversely, whoever acquires a view writer lock re-checks the
  catalog afterwards — winning the lock may mean the drop already
  finished, and the view must then be treated as gone.
* **refresh** — the *view* backing's writer lock while recomputing from
  a live base snapshot.  A concurrent commit either installs its base
  version before the recompute reads (delta included) or blocks in
  :meth:`prepare_commit` on this same lock and merges its delta *after*
  the refreshed version installs — both orders converge.
* **prepare_commit** — called by ``Storage.install_many`` with the
  committing transaction's base writer locks held; acquires each
  affected view's writer lock (bounded, same level — the sanctioned
  bounded same-level pattern) and returns new backing versions that
  join the same snapshot swap, then releases in ``release()``.

The single ``matview.refresh`` fault-injection site lives in
:meth:`MatViewManager._refresh_gate`, crossed before *any* view content
mutation (create build, REFRESH, per-commit maintenance, recovery
rebuild).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .. import faultinject
from ..concurrency import TrackedLock
from ..errors import CatalogError, ReproError, TransactionConflict
from ..storage import StoredTable
from .definition import MatViewDef
from .maintenance import local_aggregate, merge, where_filter
from .matcher import match_rewrite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database

#: Bound on every writer-lock acquisition in this module (seconds);
#: timing out raises :class:`~repro.errors.TransactionConflict`, the
#: engine's conservative deadlock verdict.
MATVIEW_LOCK_TIMEOUT = 30.0


@dataclass
class Recommendation:
    """One advisor suggestion: a view definition worth materializing."""

    name: str
    table: str
    sql: str     # defining SELECT for CREATE MATERIALIZED VIEW ... AS
    hits: int    # plan-cache hits of the hottest supporting query


class _CommitMaintenance:
    """Per-commit maintenance state handed back to ``install_many``:
    the new view backing versions plus the writer locks protecting
    them, released only after the snapshot swap (or its failure)."""

    __slots__ = ("versions", "locks")

    def __init__(self) -> None:
        self.versions: dict[str, StoredTable] = {}
        self.locks: dict[str, TrackedLock] = {}

    def release(self) -> None:
        for lock in self.locks.values():
            lock.release()
        self.locks.clear()


class MatViewManager:
    """Owns every materialized view of one :class:`~repro.database.Database`."""

    def __init__(self, database: "Database") -> None:
        self._db = database
        self._stats_lock = TrackedLock("matview.stats")
        self.rewrites = 0
        self.maintained_commits = 0
        self.refreshes = 0
        self.auto_created = 0

    # -- lifecycle -------------------------------------------------------------

    def create(self, name: str, sql: str) -> MatViewDef:
        """Create and populate a materialized view over ``sql``."""
        database = self._db
        viewdef = MatViewDef.from_sql(name, sql)
        with database._ddl_lock:
            catalog = database.catalog
            if (catalog.has_table(name) or catalog.has_view(name)
                    or catalog.has_matview(name)):
                raise CatalogError(
                    f"{name!r} already names a table, view or "
                    "materialized view")
            # Validated before the (expensive) build, so a doomed create
            # computes and logs nothing.
            viewdef.backing_def(catalog.get_table(viewdef.table))
            lock = database.storage.writer_lock(viewdef.table)
            if not lock.acquire(timeout=MATVIEW_LOCK_TIMEOUT):
                raise TransactionConflict(
                    f"could not acquire the writer lock on table "
                    f"{viewdef.table!r} within "
                    f"{MATVIEW_LOCK_TIMEOUT:.0f}s (create materialized "
                    f"view)")
            try:
                viewdef = database._apply_ddl(
                    {"kind": "create_matview", "name": viewdef.name,
                     "sql": viewdef.sql}, self._compute_rows(viewdef))
            finally:
                lock.release()
        database._ddl_applied()
        return viewdef

    def drop(self, name: str) -> None:
        """Drop a materialized view, its backing storage and every
        cached plan (some may have been rewritten to scan it)."""
        database = self._db
        with database._ddl_lock:
            if not database.catalog.has_matview(name):
                raise CatalogError(
                    f"unknown materialized view {name!r}")
            # Wait out any in-flight refresh or commit maintenance on
            # this view before removing it from under them.
            lock = database.storage.writer_lock(name)
            if not lock.acquire(timeout=MATVIEW_LOCK_TIMEOUT):
                raise TransactionConflict(
                    f"could not acquire the writer lock on materialized "
                    f"view {name!r} within {MATVIEW_LOCK_TIMEOUT:.0f}s "
                    f"(drop)")
            try:
                database._apply_ddl({"kind": "drop_matview",
                                     "name": name.lower()})
            finally:
                lock.release()
        database._ddl_applied()

    def refresh(self, name: str) -> None:
        """Recompute a view's contents from its base table."""
        database = self._db
        viewdef = database.catalog.get_matview(name)
        assert isinstance(viewdef, MatViewDef)
        lock = self._acquire_view_lock(viewdef.name, "refresh")
        if lock is None:
            raise CatalogError(
                f"materialized view {name!r} was dropped concurrently")
        try:
            rows = self._compute_rows(viewdef)
            backing = database.catalog.get_table(viewdef.name)
            version = StoredTable(backing, database.storage.chunk_rows)
            version.insert_rows(rows)
            database.storage.install(viewdef.name, version)
        finally:
            lock.release()
        with self._stats_lock:
            self.refreshes += 1

    def rebuild_all(self) -> None:
        """Recompute every view from its base — the recovery path.

        The WAL records only base-table deltas (view contents are
        derived state), so recovery replays the bases and then rebuilds
        every view here; a crash at any fault site can therefore never
        surface a view inconsistent with its base.
        """
        for viewdef in self._db.catalog.matviews():
            assert isinstance(viewdef, MatViewDef)
            self.refresh(viewdef.name)

    # -- commit maintenance ----------------------------------------------------

    def prepare_commit(self, keys: Mapping[str, StoredTable],
                       changes: Mapping[str, Sequence[tuple]]
                       ) -> Optional[_CommitMaintenance]:
        """Fold a commit's inserted rows into affected view backings.

        Called by ``Storage.install_many`` with the transaction's base
        writer locks held.  Returns new backing versions (plus the view
        writer locks, held until after the swap) or ``None`` when no
        registered view is touched.  Any failure — lock timeout,
        injected fault — releases everything and aborts the commit
        *before* the WAL append, so a failed commit changes nothing.
        """
        catalog = self._db.catalog
        if not catalog.has_matviews():
            return None
        storage = self._db.storage
        maintenance = _CommitMaintenance()
        try:
            for base_name in sorted(changes):
                rows = changes[base_name]
                if not rows:
                    continue
                base_def = catalog.get_table(base_name)
                for viewdef in catalog.matviews_on(base_name):
                    assert isinstance(viewdef, MatViewDef)
                    deltas = local_aggregate(
                        viewdef, base_def, rows,
                        where_filter(catalog, viewdef))
                    if not deltas:
                        continue  # every delta row fails the view filter
                    lock = self._acquire_view_lock(viewdef.name,
                                                   "commit maintenance")
                    if lock is None:
                        continue  # dropped since it was listed
                    maintenance.locks[viewdef.name] = lock
                    self._refresh_gate()
                    backing = catalog.get_table(viewdef.name)
                    current = storage.get(viewdef.name)
                    merged = merge(viewdef, backing, current.rows, deltas)
                    version = StoredTable(backing, storage.chunk_rows)
                    version.insert_rows(merged)
                    maintenance.versions[viewdef.name] = version
        except BaseException:
            maintenance.release()
            raise
        if not maintenance.versions:
            maintenance.release()
            return None
        with self._stats_lock:
            self.maintained_commits += 1
        return maintenance

    # -- rewrite -----------------------------------------------------------------

    def rewrite_candidate(self, fingerprint):
        """The smallest registered view answering ``fingerprint``, as
        ``(view name, rewritten SQL)``; ``None`` when nothing matches."""
        best = None
        for viewdef in self._db.catalog.matviews():
            if not isinstance(viewdef, MatViewDef):
                continue
            rewritten = match_rewrite(fingerprint, viewdef)
            if rewritten is None:
                continue
            size = self._db._row_count(viewdef.name)
            if best is None or size < best[2]:
                best = (viewdef.name, rewritten, size)
        if best is None:
            return None
        return best[0], best[1]

    # -- observability ---------------------------------------------------------

    def note_rewrite(self) -> None:
        with self._stats_lock:
            self.rewrites += 1

    def note_auto_created(self) -> None:
        with self._stats_lock:
            self.auto_created += 1

    def status(self) -> dict:
        with self._stats_lock:
            counters = {"rewrites": self.rewrites,
                        "maintained_commits": self.maintained_commits,
                        "refreshes": self.refreshes,
                        "auto_created": self.auto_created}
        counters["views"] = [v.name for v in self._db.catalog.matviews()]
        return counters

    # -- internals -------------------------------------------------------------

    def _acquire_view_lock(self, name: str,
                           context: str) -> Optional[TrackedLock]:
        """Acquire view ``name``'s *current* writer lock.

        Returns ``None`` when the view turns out to be gone: either its
        storage no longer exists, or we won a lock that a concurrent
        ``drop`` has since retired (drop-and-recreate swaps in a fresh
        lock object, so identity is the authoritative test).  Timing out
        raises :class:`TransactionConflict` — the engine's conservative
        deadlock verdict.
        """
        storage = self._db.storage
        try:
            lock = storage.writer_lock(name)
        except ReproError:
            return None
        if not lock.acquire(timeout=MATVIEW_LOCK_TIMEOUT):
            raise TransactionConflict(
                f"could not acquire the writer lock on materialized "
                f"view {name!r} within {MATVIEW_LOCK_TIMEOUT:.0f}s "
                f"({context})")
        try:
            current: Optional[TrackedLock] = storage.writer_lock(name)
        except ReproError:
            current = None
        if current is not lock or not self._db.catalog.has_matview(name):
            lock.release()
            return None
        return lock

    def _refresh_gate(self) -> None:
        """The one ``matview.refresh`` injection point, crossed before
        any view content mutation (create build, refresh recompute,
        per-view commit maintenance, recovery rebuild)."""
        faultinject.hit("matview.refresh")

    def _compute_rows(self, viewdef: MatViewDef) -> list[tuple]:
        """Full backing contents from the base, views-off (a view must
        never be answered from itself while being built)."""
        self._refresh_gate()
        result = self._db.execute(viewdef.storage_sql(),
                                  use_matviews=False)
        return result.rows
