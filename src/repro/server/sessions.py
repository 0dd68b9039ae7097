"""Sessions: transactional query contexts with snapshot isolation.

A :class:`Session` is one caller's handle onto a shared
:class:`~repro.database.Database`.  Any number of sessions may run
concurrently; each individual session is meant to be driven by one thread
at a time (the wire server gives every connection its own session).

Isolation model — copy-on-write snapshot isolation:

* **Readers pin, writers install.**  ``begin()`` pins an immutable
  snapshot of every table's current version
  (:meth:`~repro.storage.table.Storage.snapshot`).  Every read inside the
  transaction resolves tables from that snapshot, layered under the
  transaction's own staged writes (read-your-own-writes), so a reader is
  never affected by concurrent commits.
* **Single writer per table.**  The first write to a table acquires that
  table's writer lock and keeps it until commit/rollback.  Acquisition
  checks first-committer-wins: if the table's installed version changed
  after this transaction's snapshot was pinned, the write raises
  :class:`~repro.errors.TransactionConflict` instead of silently basing
  itself on stale data.  A lock that cannot be acquired before the
  session's ``lock_timeout`` also raises ``TransactionConflict`` (a
  conservative deadlock verdict — the server never hangs on a lock
  cycle).
* **Atomic commit.**  ``commit()`` installs every staged table version in
  one critical section (:meth:`~repro.storage.table.Storage.install_many`)
  and bumps the storage ``data_version`` once, so concurrent snapshots
  see all of a transaction or none of it.

Outside an explicit transaction the session autocommits: each statement
pins a fresh snapshot (statement-level read consistency) and each
``insert`` is an atomic copy-on-write install.  DDL is always autocommit
and is rejected inside an explicit transaction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..concurrency import TrackedLock
from ..errors import (SessionClosed, TransactionConflict, TransactionError)
from ..explain import ExplainOptions, explain_options
from ..governor import OptimizerBudget, ResourceGovernor
from ..sql import lex_query
from ..storage.table import Storage, StorageSnapshot, StoredTable

_session_ids = itertools.count(1)


@dataclass
class SessionStats:
    """Aggregated per-session execution statistics.

    ``QueryResult.stats`` stays per-query; this is the session's running
    total, updated by the session itself (one driving thread per session,
    so plain increments are safe).
    """

    queries: int = 0
    rows_returned: int = 0
    degraded_queries: int = 0
    rows_inserted: int = 0
    commits: int = 0
    rollbacks: int = 0
    conflicts: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {"queries": self.queries,
                "rows_returned": self.rows_returned,
                "degraded_queries": self.degraded_queries,
                "rows_inserted": self.rows_inserted,
                "commits": self.commits, "rollbacks": self.rollbacks,
                "conflicts": self.conflicts,
                "elapsed_seconds": self.elapsed_seconds}


class _TransactionView:
    """Read view: the transaction's staged versions over its snapshot."""

    __slots__ = ("_snapshot", "_pending")

    def __init__(self, snapshot: StorageSnapshot,
                 pending: dict[str, StoredTable]) -> None:
        self._snapshot = snapshot
        self._pending = pending

    def get(self, name: str) -> StoredTable:
        table = self._pending.get(name.lower())
        if table is not None:
            return table
        return self._snapshot.get(name)


class _Transaction:
    """One open transaction: pinned snapshot, staged writes, held locks."""

    def __init__(self, storage: Storage, lock_timeout: float) -> None:
        self.storage = storage
        self.snapshot = storage.snapshot()
        self.lock_timeout = lock_timeout
        self.pending: dict[str, StoredTable] = {}
        #: Logical row deltas per table (the coerced stored tuples) —
        #: what commit hands to the write-ahead log on a durable
        #: database.
        self.changes: dict[str, list[tuple]] = {}
        self.locks: dict[str, TrackedLock] = {}
        #: Set when a statement failed half-applied; the transaction can
        #: then only be rolled back (statement-level undo would require
        #: rebuilding indexes, and an honest abort is cheaper and safer).
        self.failed = False

    def view(self) -> _TransactionView:
        return _TransactionView(self.snapshot, self.pending)

    def _writable(self, name: str) -> StoredTable:
        key = name.lower()
        table = self.pending.get(key)
        if table is not None:
            return table
        lock = self.storage.writer_lock(name)
        if not lock.acquire(timeout=self.lock_timeout):
            raise TransactionConflict(
                f"could not acquire the writer lock on table {name!r} "
                f"within {self.lock_timeout:.3f}s")
        try:
            pinned = self.snapshot.get_or_none(name)
            current = self.storage.get(name)
            if pinned is not None and current is not pinned:
                raise TransactionConflict(
                    f"table {name!r} was modified by a concurrent commit "
                    f"after this transaction's snapshot was pinned")
        except BaseException:
            lock.release()
            raise
        self.locks[key] = lock
        # A table created after our snapshot has no pinned version; its
        # whole existence postdates us, so the current version is the
        # only possible base and there is no lost update to protect.
        table = (pinned if pinned is not None else current).clone()
        self.pending[key] = table
        return table

    def stage_insert(self, name: str,
                     rows: Iterable[Sequence[Any] | Mapping[str, Any]]
                     ) -> int:
        table = self._writable(name)
        try:
            inserted = table.insert_rows(rows)
        except BaseException:
            self.failed = True
            raise
        self.changes.setdefault(name.lower(), []).extend(inserted)
        return len(inserted)

    def commit(self) -> None:
        try:
            if self.pending:
                self.storage.install_many(self.pending,
                                          changes=self.changes)
        finally:
            self._release()

    def rollback(self) -> None:
        self._release()

    def _release(self) -> None:
        for lock in self.locks.values():
            lock.release()
        self.locks.clear()
        self.pending.clear()
        self.changes.clear()


class Session:
    """One caller's transactional handle on a shared database.

    Obtained from :meth:`repro.Database.session`.  Usable as a context
    manager: a clean exit commits any open transaction, an exception
    rolls it back, and the session is closed either way.
    """

    def __init__(self, database, lock_timeout: float = 5.0,
                 default_mode=None, default_engine: str | None = None
                 ) -> None:
        self._db = database
        self.session_id = f"session-{next(_session_ids)}"
        self.lock_timeout = lock_timeout
        self.default_mode = (default_mode if default_mode is not None
                             else database._resolve_mode("full"))
        self.default_engine = (default_engine if default_engine is not None
                               else database.default_engine)
        self.stats = SessionStats()
        self._txn: _Transaction | None = None
        self._closed = False
        database._register_session(self.session_id)

    # -- transaction control -----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin(self) -> "Session":
        """Start a transaction, pinning the read snapshot now."""
        self._check_open()
        if self._txn is not None:
            raise TransactionError(
                "a transaction is already open on this session")
        self._txn = _Transaction(self._db.storage, self.lock_timeout)
        return self

    def commit(self) -> None:
        """Install every staged write atomically and end the transaction."""
        self._check_open()
        txn = self._require_txn()
        if txn.failed:
            txn.rollback()
            self._txn = None
            self.stats.rollbacks += 1
            raise TransactionError(
                "transaction aborted by a failed statement; "
                "its writes were rolled back")
        try:
            txn.commit()
        finally:
            self._txn = None
        self.stats.commits += 1
        self._db._maybe_checkpoint()

    def rollback(self) -> None:
        """Discard staged writes and end the transaction (no-op when no
        transaction is open, so cleanup paths can call it freely)."""
        self._check_open()
        if self._txn is None:
            return
        self._txn.rollback()
        self._txn = None
        self.stats.rollbacks += 1

    # -- statements ----------------------------------------------------------------

    def execute(self, sql: str, params=None, mode=None,
                engine: str | None = None, *,
                timeout: float | None = None,
                row_budget: int | None = None,
                memory_budget: int | None = None,
                optimizer_budget: OptimizerBudget | None = None,
                governor: ResourceGovernor | None = None,
                use_matviews: bool = True):
        """Execute ``sql`` against this session's current read view.

        ``EXPLAIN [ANALYZE]`` statements plan and run against the same
        view (see :meth:`_read_view`) as the query they explain.
        """
        self._check_open()
        statement = self._db._statement(sql)
        if statement.matview is not None:
            self._no_ddl_in_txn()
        snapshot, use_matviews = self._read_view(use_matviews)
        result = self._db.execute(
            statement, mode if mode is not None else self.default_mode,
            params,
            engine=engine if engine is not None else self.default_engine,
            timeout=timeout, row_budget=row_budget,
            memory_budget=memory_budget,
            optimizer_budget=optimizer_budget, governor=governor,
            snapshot=snapshot, use_matviews=use_matviews)
        self.stats.queries += 1
        self.stats.rows_returned += len(result.rows)
        self.stats.elapsed_seconds += result.stats.elapsed_seconds
        if result.degraded:
            self.stats.degraded_queries += 1
        return result

    def _read_view(self, use_matviews: bool):
        """``(snapshot, use_matviews)`` for one statement.

        Inside a transaction the view is the pinned snapshot plus the
        transaction's own staged writes; outside, a fresh snapshot is
        pinned per statement (statement-level read consistency).

        While a transaction holds staged writes, materialized-view
        rewriting is disabled for its statements regardless of
        ``use_matviews``: view backings are only maintained at commit,
        so a rewritten plan could not see the transaction's own
        uncommitted rows (read-your-own-writes).
        """
        if self._txn is None:
            return self._db.storage.snapshot(), use_matviews
        return self._txn.view(), (False if self._txn.pending
                                  else use_matviews)

    def insert(self, table_name: str,
               rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Insert rows: staged when a transaction is open (visible only
        to this session until commit), an atomic autocommit otherwise."""
        self._check_open()
        if self._txn is not None:
            self._db._reject_matview_insert(table_name)
            try:
                count = self._txn.stage_insert(table_name, rows)
            except TransactionConflict:
                self.stats.conflicts += 1
                raise
        else:
            count = self._db.insert(table_name, rows)
        self.stats.rows_inserted += count
        return count

    def explain(self, sql: str, mode=None, *, options=None,
                analyze: bool = False, costs: bool = False,
                format: str = "text", engine: str | None = None,
                params=None) -> "str | dict":
        """Explain through the unified API (see :meth:`Database.explain`),
        defaulting the mode and engine to the session's — planned and,
        with ``analyze``, run against this session's current read view."""
        return self._explain(
            sql, mode, explain_options(options, analyze, costs, format),
            engine, params)

    def _explain(self, sql: str, mode, options: ExplainOptions,
                 engine: str | None, params,
                 governor: ResourceGovernor | None = None) -> "str | dict":
        """:meth:`explain` with the per-request governor the wire server
        leases for an analyzed (executed) explain."""
        self._check_open()
        snapshot, use_matviews = self._read_view(True)
        return self._db._explain(
            lex_query(sql),
            self._db._resolve_mode(mode if mode is not None
                                   else self.default_mode),
            options,
            engine if engine is not None else self.default_engine,
            params, governor, snapshot, use_matviews)

    # -- DDL (always autocommit) ---------------------------------------------------

    def create_table(self, name: str, columns, primary_key=(),
                     unique_keys=()):
        self._no_ddl_in_txn()
        return self._db.create_table(name, columns, primary_key,
                                     unique_keys)

    def create_index(self, index_name: str, table_name: str,
                     column_names, kind: str = "hash"):
        self._no_ddl_in_txn()
        return self._db.create_index(index_name, table_name, column_names,
                                     kind)

    def create_view(self, name: str, sql: str) -> None:
        self._no_ddl_in_txn()
        self._db.create_view(name, sql)

    def drop_table(self, name: str) -> None:
        self._no_ddl_in_txn()
        self._db.drop_table(name)

    def _no_ddl_in_txn(self) -> None:
        self._check_open()
        if self._txn is not None:
            raise TransactionError(
                "DDL autocommits and is not allowed inside an explicit "
                "transaction; commit or rollback first")

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Roll back any open transaction and release the session."""
        if self._closed:
            return
        if self._txn is not None:
            self._txn.rollback()
            self._txn = None
            self.stats.rollbacks += 1
        self._closed = True
        self._db._deregister_session(self.session_id)

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosed(
                f"session {self.session_id} is closed")

    def _require_txn(self) -> _Transaction:
        if self._txn is None:
            raise TransactionError("no transaction is open")
        return self._txn

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if self._txn is not None:
                if exc_type is None and not self._txn.failed:
                    self.commit()
                else:
                    self.rollback()
        finally:
            self.close()

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "in-transaction" if self._txn is not None
                 else "idle")
        return f"Session({self.session_id}, {state})"
