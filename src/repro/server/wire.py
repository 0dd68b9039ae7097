"""The wire server: a socket front-end speaking JSON lines.

One TCP connection = one :class:`~repro.server.sessions.Session`.  Each
request is a single JSON object on its own line; each response is one
JSON object on its own line, either ``{"ok": true, ...}`` or
``{"ok": false, "error": {"type": ..., "message": ..., <attributes>}}``.
A request that fails — bad JSON, unknown op, a query error — fails *that
request only*: the connection stays up and the next line is processed
normally.

Supported ops: ``query``, ``explain``, ``begin``, ``commit``,
``rollback``, ``insert``, ``create_table``, ``create_index``,
``drop_table``, ``metrics``, ``health``, ``ping``, ``close``.

Shutdown is graceful: :meth:`QueryServer.drain` stops accepting new
connections and rejects new work with a clean ``ServerError`` while
in-flight requests finish; :meth:`QueryServer.stop` drains, waits up to
``drain_timeout`` for in-flight work, then tears the server down.

Queries and inserts are admitted through the
:class:`~repro.server.admission.AdmissionController` (fair scheduling +
shedding) and each query leases its governor budget from the server's
global :class:`~repro.server.admission.ResourcePool`, so total memory and
row consumption stays bounded no matter how many connections are open.

Values that JSON cannot carry natively (dates) are tagged on the wire as
``{"__date__": "YYYY-MM-DD"}`` and reconstructed by the client, so
results round-trip bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
from typing import Optional

from .. import faultinject
from ..algebra.datatypes import DataType
from ..concurrency import TrackedLock
# The tagged-JSON value codec is shared with the durability subsystem
# (WAL records and checkpoints use the same representation); re-exported
# here because it is part of this module's public wire contract.
from ..durability.codec import (decode_row, decode_value,  # noqa: F401
                                encode_row, encode_value)
from ..errors import ProtocolError, ReproError, ServerError
from ..explain import ExplainOptions
from ..governor import ResourceGovernor
from .admission import (AdmissionController, DEFAULT_MAX_QUEUE_DEPTH,
                        DEFAULT_MAX_WORKERS, ResourcePool)

_DTYPES = {d.value: d for d in DataType}

#: Ops still served while draining: observability and cleanup only.
_DRAIN_ALLOWED_OPS = frozenset(
    {"ping", "health", "metrics", "rollback", "close"})


class _LineReader:
    """Buffered socket line reader that survives ``recv`` timeouts.

    ``readline`` returns ``None`` on a timeout (poll again), ``b""`` at
    EOF, otherwise one line.  A timeout never loses buffered partial
    data — the property a ``makefile``-based reader cannot offer, and
    the one that lets connection loops re-check shutdown flags while a
    client is idle.
    """

    __slots__ = ("_conn", "_buffer", "_eof")

    def __init__(self, conn: socket.socket) -> None:
        self._conn = conn
        self._buffer = bytearray()
        self._eof = False

    def readline(self) -> bytes | None:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline + 1])
                del self._buffer[:newline + 1]
                return line
            if self._eof:
                line = bytes(self._buffer)
                self._buffer.clear()
                return line  # b"" once fully drained
            try:
                chunk = self._conn.recv(65536)
            except socket.timeout:
                return None
            if not chunk:
                self._eof = True
                continue
            self._buffer.extend(chunk)


def error_payload(exc: BaseException) -> dict:
    """Type, message and every attribute of the error (a
    ``QueryTimeout``'s limit and elapsed time, ...): all the client needs
    to rebuild it."""
    payload = {"type": type(exc).__name__, "message": str(exc)}
    for name, value in vars(exc).items():
        if name == "issues":  # PlanInvariantError's AnalysisIssue records
            value = [dataclasses.asdict(issue) for issue in value]
        payload[name] = value
    return payload


def _decode_params(request: dict):
    params = request.get("params")
    if isinstance(params, list):
        return [decode_value(v) for v in params]
    if isinstance(params, dict):
        return {k: decode_value(v) for k, v in params.items()}
    return params


class QueryServer:
    """A concurrent query service over one shared database.

    ::

        server = QueryServer(db, max_workers=8)
        server.start()              # background accept loop
        host, port = server.address
        ...
        server.stop()

    Also usable as a context manager (``with QueryServer(db) as server:``).
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0,
                 max_workers: int = DEFAULT_MAX_WORKERS,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 pool_memory_rows: Optional[int] = None,
                 pool_row_budget: Optional[int] = None,
                 query_memory_rows: Optional[int] = None,
                 query_row_budget: Optional[int] = None,
                 lease_timeout: float = 5.0,
                 request_timeout: Optional[float] = 30.0,
                 lock_timeout: float = 5.0,
                 drain_timeout: float = 5.0) -> None:
        self.database = database
        self.admission = AdmissionController(max_workers, max_queue_depth)
        self.pool = ResourcePool(pool_memory_rows, pool_row_budget)
        #: Per-query lease request; defaults to an even split of the pool
        #: across the worker count so full concurrency is always grantable.
        self.query_memory_rows = (
            query_memory_rows if query_memory_rows is not None
            else (pool_memory_rows // max_workers if pool_memory_rows
                  else None))
        self.query_row_budget = (
            query_row_budget if query_row_budget is not None
            else (pool_row_budget // max_workers if pool_row_budget
                  else None))
        self.lease_timeout = lease_timeout
        self.request_timeout = request_timeout
        self.lock_timeout = lock_timeout
        self.drain_timeout = drain_timeout
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._active_lock = TrackedLock("wire.active")
        self._active_requests = 0
        self._lock = TrackedLock("wire.conns")

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "QueryServer":
        if self._accept_thread is not None:
            raise ServerError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="wire-accept")
        self._accept_thread.start()
        return self

    def drain(self) -> None:
        """Stop accepting new connections and reject new work.

        In-flight requests run to completion; observability ops
        (``ping``, ``health``, ``metrics``) and connection cleanup
        (``rollback``, ``close``) still work, so clients and load
        balancers can see the drain instead of hitting a dead socket.
        """
        self._draining.set()

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain, wait for in-flight requests up to
        ``drain_timeout`` (the constructor's by default), then tear the
        server down.  Stragglers that outlive the deadline get the same
        clean drain rejection on their next request."""
        if self._stopping.is_set():
            return
        budget = (drain_timeout if drain_timeout is not None
                  else self.drain_timeout)
        deadline = time.monotonic() + budget
        self.drain()
        while time.monotonic() < deadline:
            with self._active_lock:
                if self._active_requests == 0:
                    break
            time.sleep(0.02)
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._listener.close()
        with self._lock:
            threads = list(self._conn_threads)
        for thread in threads:
            thread.join(timeout=5.0)
        self.admission.shutdown()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept / connection loops -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set() and not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us during stop()
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name="wire-conn")
            with self._lock:
                self._conn_threads.append(thread)
                self._conn_threads = [t for t in self._conn_threads
                                      if t.is_alive()]
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        session = self.database.session(lock_timeout=self.lock_timeout)
        conn.settimeout(0.2)
        reader = _LineReader(conn)
        try:
            while not self._stopping.is_set():
                line = reader.readline()
                if line is None:
                    continue  # idle poll: re-check the shutdown flag
                if not line:
                    return
                if not line.strip():
                    continue
                response, keep_open = self._handle_line(session, line)
                conn.sendall(json.dumps(response).encode() + b"\n")
                if not keep_open:
                    return
        except (OSError, ValueError):
            pass  # client went away mid-write; the session cleanup below runs
        finally:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
            session.close()

    def _handle_line(self, session, line: bytes) -> tuple[dict, bool]:
        try:
            faultinject.hit("wire.decode")
            request = json.loads(line)
            if not isinstance(request, dict) or "op" not in request:
                raise ProtocolError(
                    "request must be a JSON object with an 'op' field")
        except ProtocolError as exc:
            return {"ok": False, "error": error_payload(exc)}, True
        except Exception as exc:
            return {"ok": False, "error": error_payload(
                ProtocolError(f"undecodable request: {exc}"))}, True
        if (self._draining.is_set()
                and request["op"] not in _DRAIN_ALLOWED_OPS):
            return {"ok": False, "error": error_payload(ServerError(
                "server is shutting down; request rejected during "
                "drain"))}, True
        with self._active_lock:
            self._active_requests += 1
        try:
            return self._dispatch(session, request), True
        except ReproError as exc:
            return {"ok": False, "error": error_payload(exc)}, True
        except Exception as exc:  # defensive: one bad request, not the server
            return {"ok": False, "error": error_payload(
                ServerError(f"internal error: {exc}"))}, True
        finally:
            with self._active_lock:
                self._active_requests -= 1

    # -- request dispatch ----------------------------------------------------------

    def _dispatch(self, session, request: dict) -> dict:
        op = request["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ProtocolError(f"unknown op {op!r}")
        return handler(session, request)

    def _op_ping(self, session, request: dict) -> dict:
        return {"ok": True, "pong": True}

    def _op_close(self, session, request: dict) -> dict:
        # The connection loop sees closed=True via the session and the
        # client drops the socket after this response.
        return {"ok": True, "closed": True}

    def _op_query(self, session, request: dict) -> dict:
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("query requires a string 'sql' field")
        params = _decode_params(request)
        engine = request.get("engine")
        mode = request.get("mode")
        result = self._admitted(session, lambda lease: session.execute(
            sql, params, mode=mode, engine=engine,
            row_budget=lease.row_budget, memory_budget=lease.memory_rows))
        return {
            "ok": True,
            "columns": result.names,
            "types": [t.value for t in result.types],
            "rows": [encode_row(row) for row in result.rows],
            "degraded": result.degraded,
            "elapsed_seconds": result.stats.elapsed_seconds,
            # QueryStats.as_dict uses frozen field names; the client
            # rebuilds a QueryStats from this verbatim.
            "stats": result.stats.as_dict(),
        }

    def _op_explain(self, session, request: dict) -> dict:
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("explain requires a string 'sql' field")
        params = _decode_params(request)
        options = ExplainOptions(
            analyze=bool(request.get("analyze", False)),
            costs=bool(request.get("costs", False)),
            format=request.get("format", "text"))
        mode, engine = request.get("mode"), request.get("engine")
        if options.analyze:
            # An analyzed explain executes the query: admitted and
            # leased exactly like the ``query`` op.
            rendered = self._admitted(
                session, lambda lease: session._explain(
                    sql, mode, options, engine, params,
                    ResourceGovernor(row_budget=lease.row_budget,
                                     memory_budget=lease.memory_rows)))
        else:
            rendered = session._explain(sql, mode, options, engine, params)
        return {"ok": True, "plan": rendered}

    def _admitted(self, session, work):
        """Run ``work(lease)`` on the admission pool under a governor
        budget leased from the server's :class:`ResourcePool`."""
        def run():
            with self.pool.lease(self.query_memory_rows,
                                 self.query_row_budget,
                                 timeout=self.lease_timeout) as lease:
                return work(lease)

        return self.admission.run(session.session_id, run,
                                  timeout=self.request_timeout)

    def _op_insert(self, session, request: dict) -> dict:
        table = request.get("table")
        rows = request.get("rows")
        if not isinstance(table, str) or not isinstance(rows, list):
            raise ProtocolError(
                "insert requires a string 'table' and a list 'rows'")
        decoded = [
            {k: decode_value(v) for k, v in row.items()}
            if isinstance(row, dict) else decode_row(row)
            for row in rows]
        count = self.admission.run(
            session.session_id, lambda: session.insert(table, decoded),
            timeout=self.request_timeout)
        return {"ok": True, "inserted": count}

    def _op_begin(self, session, request: dict) -> dict:
        session.begin()
        return {"ok": True}

    def _op_commit(self, session, request: dict) -> dict:
        session.commit()
        return {"ok": True}

    def _op_rollback(self, session, request: dict) -> dict:
        session.rollback()
        return {"ok": True}

    def _op_create_table(self, session, request: dict) -> dict:
        name = request.get("name")
        columns = request.get("columns")
        if not isinstance(name, str) or not isinstance(columns, list):
            raise ProtocolError(
                "create_table requires a string 'name' and a list "
                "'columns' of [name, type] or [name, type, nullable]")
        specs = []
        for spec in columns:
            if (not isinstance(spec, list) or len(spec) not in (2, 3)
                    or spec[1] not in _DTYPES):
                raise ProtocolError(f"bad column spec {spec!r}")
            specs.append((spec[0], _DTYPES[spec[1]], *spec[2:]))
        session.create_table(name, specs,
                             primary_key=request.get("primary_key", ()),
                             unique_keys=request.get("unique_keys", ()))
        return {"ok": True}

    def _op_create_index(self, session, request: dict) -> dict:
        for field in ("name", "table", "columns"):
            if field not in request:
                raise ProtocolError(f"create_index requires {field!r}")
        session.create_index(request["name"], request["table"],
                             request["columns"],
                             kind=request.get("kind", "hash"))
        return {"ok": True}

    def _op_drop_table(self, session, request: dict) -> dict:
        name = request.get("name")
        if not isinstance(name, str):
            raise ProtocolError("drop_table requires a string 'name'")
        session.drop_table(name)
        return {"ok": True}

    def _op_metrics(self, session, request: dict) -> dict:
        return {"ok": True, "metrics": self.metrics()}

    def _op_health(self, session, request: dict) -> dict:
        return {"ok": True, "health": self.health()}

    # -- observability -------------------------------------------------------------

    def health(self) -> dict:
        """Liveness/readiness probe: serving state, load, and (on a
        durable database) WAL size, last checkpoint and the recovery
        report.  ``ready`` flips to False the moment a drain starts."""
        stopping = self._stopping.is_set()
        draining = self._draining.is_set()
        with self._active_lock:
            active = self._active_requests
        durability = self.database.durability_status()
        return {
            "status": ("stopping" if stopping
                       else "draining" if draining else "ok"),
            "live": not stopping,
            "ready": not (stopping or draining),
            "active_requests": active,
            "admission_queue_depth": self.admission.metrics()[
                "queue_depth"],
            "open_sessions": self.database.open_session_count,
            "plan_cache_hit_rate": self.database.plan_cache.stats.hit_rate,
            "durability": (durability if durability is not None
                           else {"enabled": False}),
        }

    def metrics(self) -> dict:
        """One flat snapshot of server health for dashboards and tests."""
        admission = self.admission.metrics()
        cache = self.database.plan_cache.stats
        return {
            "admission": admission,
            "shed": admission["shed"],
            "open_sessions": self.database.open_session_count,
            "plan_cache": cache.as_dict(),
            "plan_cache_hit_rate": cache.hit_rate,
            "resource_pool": self.pool.available(),
            "data_version": self.database.storage.data_version,
            "feedback": self.database.feedback.as_dict(),
        }
