"""DB-API 2.0 (PEP 249) adapter over :class:`repro.Database` sessions.

Lets standard database tooling talk to the engine::

    import repro.dbapi as dbapi

    conn = dbapi.connect()
    cur = conn.cursor()
    cur.execute("select a from t where a > ?", (1,))
    print(cur.fetchall())

Every connection wraps its own :class:`~repro.server.sessions.Session`,
so connections are independent and may be used from different threads
concurrently (``threadsafety = 2``: share the module and connections
across threads, but drive any single connection from one thread at a
time).  By default connections autocommit, matching the engine's
historical behaviour; pass ``autocommit=False`` to get implicit
transactions — the first statement begins one, and ``commit()`` /
``rollback()`` end it.  Parameters use the ``qmark`` style, matching the
engine's native ``?`` markers.

For services that churn through many short-lived connections, a small
:class:`ConnectionPool` hands out pooled connections mapped onto
long-lived sessions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Mapping, Optional, Sequence

from .concurrency import TrackedCondition
from .database import Database, QueryResult
from .errors import ReproError, TransactionError

apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections
paramstyle = "qmark"


class Error(Exception):
    """Base of the PEP 249 exception hierarchy."""


class InterfaceError(Error):
    """Misuse of the interface itself (e.g. operating on a closed cursor)."""


class DatabaseError(Error):
    """Base for errors related to the database."""


class ProgrammingError(DatabaseError):
    """Bad SQL, unknown names, wrong parameter usage."""


class OperationalError(DatabaseError):
    """Errors during execution not caused by the statement text:
    transaction conflicts, lock timeouts, overload shedding."""


class NotSupportedError(DatabaseError):  # noqa: required by PEP 249
    """A requested feature the engine does not provide."""


def connect(database: Database | None = None,
            autocommit: bool = True) -> "Connection":
    """Open a connection; wraps an existing engine or creates a fresh one.

    With ``autocommit=False`` the connection runs implicit transactions:
    the first statement after ``connect``/``commit``/``rollback`` begins
    one, and only ``commit()`` makes its writes visible to other
    connections.
    """
    return Connection(database if database is not None else Database(),
                      autocommit=autocommit)


class Connection:
    """A PEP 249 connection: one session on the engine, plus cursors."""

    def __init__(self, database: Database, autocommit: bool = True) -> None:
        self._database = database
        self._session = database.session()
        self.autocommit = autocommit
        self._closed = False

    @property
    def database(self) -> Database:
        """The underlying engine (for DDL and inserts, which PEP 249
        routes through ``cursor.execute`` in richer implementations)."""
        return self._database

    @property
    def session(self):
        """The underlying :class:`~repro.server.sessions.Session`."""
        return self._session

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def commit(self) -> None:
        """Commit the implicit transaction (a no-op in autocommit mode
        or when no statement has run yet)."""
        self._check_open()
        if self._session.in_transaction:
            try:
                self._session.commit()
            except TransactionError as exc:
                raise OperationalError(str(exc)) from exc

    def rollback(self) -> None:
        """Discard the implicit transaction's writes (no-op when none
        is open)."""
        self._check_open()
        self._session.rollback()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._session.close()  # rolls back any open transaction

    def _ensure_transaction(self) -> None:
        if not self.autocommit and not self._session.in_transaction:
            self._session.begin()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Cursor:
    """A PEP 249 cursor: executes statements and buffers their results."""

    arraysize = 1

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._closed = False
        self._result: QueryResult | None = None
        self._position = 0

    # -- execution -------------------------------------------------------------

    def execute(self, operation: str,
                parameters: Sequence[Any] | Mapping[str, Any] = ()
                ) -> "Cursor":
        self._check_open()
        self.connection._check_open()
        self.connection._ensure_transaction()
        try:
            self._result = self.connection._session.execute(
                operation, params=parameters or None)
        except TransactionError as exc:
            raise OperationalError(str(exc)) from exc
        except ReproError as exc:
            raise ProgrammingError(str(exc)) from exc
        self._position = 0
        return self

    def executemany(self, operation: str,
                    seq_of_parameters: Sequence[Sequence[Any]]) -> "Cursor":
        for parameters in seq_of_parameters:
            self.execute(operation, parameters)
        return self

    # -- results ---------------------------------------------------------------

    @property
    def description(self) -> list[tuple] | None:
        """PEP 249 7-tuples: (name, type_code, None, None, None, None, None)."""
        if self._result is None:
            return None
        return [(name, dtype, None, None, None, None, None)
                for name, dtype in self._result.columns]

    @property
    def rowcount(self) -> int:
        return -1 if self._result is None else len(self._result.rows)

    def fetchone(self) -> tuple | None:
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        rows = self._rows()
        count = self.arraysize if size is None else size
        chunk = rows[self._position:self._position + count]
        self._position += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
        rows = self._rows()
        chunk = rows[self._position:]
        self._position = len(rows)
        return chunk

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._result = None

    def setinputsizes(self, sizes) -> None:
        pass  # optional per PEP 249

    def setoutputsize(self, size, column=None) -> None:
        pass  # optional per PEP 249

    def _rows(self) -> list[tuple]:
        self._check_open()
        if self._result is None:
            raise InterfaceError("no result set; call execute() first")
        return self._result.rows

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")


class ConnectionPool:
    """A small fixed pool of connections onto one shared engine.

    ::

        pool = ConnectionPool(db, size=4)
        with pool.connection() as conn:
            conn.cursor().execute("select 1 from t")

    ``acquire`` blocks until a connection is free (or raises
    :class:`OperationalError` after ``timeout`` seconds); ``release``
    rolls back any open transaction before returning the connection, so
    the next borrower never inherits another's transaction state.
    """

    def __init__(self, database: Database | None = None, size: int = 4,
                 autocommit: bool = True) -> None:
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self._database = database if database is not None else Database()
        self.size = size
        self._cv = TrackedCondition("dbapi.pool")
        self._free: deque[Connection] = deque(
            Connection(self._database, autocommit=autocommit)
            for _ in range(size))
        self._closed = False

    @property
    def database(self) -> Database:
        return self._database

    def acquire(self, timeout: Optional[float] = None) -> Connection:
        with self._cv:
            if self._closed:
                raise InterfaceError("pool is closed")
            if not self._cv.wait_for(lambda: self._free or self._closed,
                                     timeout=timeout):
                raise OperationalError(
                    f"no pooled connection became free within {timeout}s")
            if self._closed:
                raise InterfaceError("pool is closed")
            return self._free.popleft()

    def release(self, connection: Connection) -> None:
        if connection._closed:
            # A borrower closed the connection; replace it to keep the
            # pool at full strength.
            connection = Connection(self._database,
                                    autocommit=connection.autocommit)
        else:
            connection.rollback()
        with self._cv:
            if not self._closed:
                self._free.append(connection)
                self._cv.notify()
                return
        connection.close()

    def connection(self, timeout: Optional[float] = None):
        """Borrow a connection for a ``with`` block."""
        return _PooledConnection(self, timeout)

    def close(self) -> None:
        with self._cv:
            self._closed = True
            doomed = list(self._free)
            self._free.clear()
            self._cv.notify_all()
        for connection in doomed:
            connection.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _PooledConnection:
    """Context manager pairing ``acquire`` with ``release``."""

    def __init__(self, pool: ConnectionPool,
                 timeout: Optional[float]) -> None:
        self._pool = pool
        self._timeout = timeout
        self._conn: Connection | None = None

    def __enter__(self) -> Connection:
        self._conn = self._pool.acquire(self._timeout)
        return self._conn

    def __exit__(self, *exc_info) -> None:
        if self._conn is not None:
            self._pool.release(self._conn)
            self._conn = None
