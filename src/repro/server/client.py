"""A thin blocking client for the JSON-lines wire protocol.

::

    with ServerClient(host, port) as client:
        result = client.query("SELECT count(*) FROM orders")
        print(result.rows)

Server-side errors are re-raised locally as the matching class from
:mod:`repro.errors` with its message and attributes (``ServerOverloaded``
its back-pressure detail), so calling code handles wire and in-process
execution uniformly.

Retries are opt-in via :class:`RetryPolicy`::

    client = ServerClient(host, port, retry=RetryPolicy(max_attempts=5))

Back-pressure (``ServerOverloaded``) is retried for every operation —
the server shed the request before running it.  Connection resets are
retried (with a transparent reconnect) only for idempotent operations
(``query``, ``explain``, ``metrics``, ``ping``, ``health``): a reset
mid-``insert`` or mid-``commit`` may have landed on the server, and
retrying could apply it twice.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from .. import errors as _errors
from ..algebra.datatypes import DataType
from ..analysis.issues import AnalysisIssue
from ..errors import ProtocolError, ReproError, ServerOverloaded
from ..governor import QueryStats
from ..result import QueryResult
from .wire import decode_row, encode_value

_DTYPES = {d.value: d for d in DataType}


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seedable jitter.

    Attempt ``n`` (0-based) sleeps ``base_delay * multiplier**n``,
    capped at ``max_delay``, then stretched by a jitter factor drawn
    uniformly from ``[1 - jitter, 1 + jitter]``.  With a ``seed`` the
    whole delay sequence is reproducible — tests assert exact schedules
    instead of sleeping blind.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None
    #: Retry reconnectable transport failures (idempotent ops only);
    #: ``ServerOverloaded`` is always retried regardless.
    retry_connection_errors: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(self.base_delay * self.multiplier ** attempt,
                   self.max_delay)
        if self.jitter:
            base *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return base


class ClientResult(QueryResult):
    """Rows plus schema as decoded from one query response."""

    def __init__(self, payload: dict) -> None:
        # ``stats`` is rebuilt from the server's QueryStats.as_dict()
        # (absent on pre-1.4 servers).
        super().__init__(
            payload["columns"],
            [decode_row(row) for row in payload["rows"]],
            [_DTYPES.get(t, DataType.UNKNOWN) for t in payload["types"]],
            degraded=payload["degraded"],
            stats=QueryStats.from_dict(payload.get("stats", {})))
        self.elapsed_seconds = payload["elapsed_seconds"]


def _reconstruct_error(payload: dict) -> Exception:
    name = payload.get("type", "ServerError")
    message = payload.get("message", "unknown server error")
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        return _errors.ServerError(f"{name}: {message}")
    # Constructors take different arguments and format their own message:
    # rebuild the instance from the server's message and attributes.
    error = cls.__new__(cls)
    Exception.__init__(error, message)
    attributes = {key: value for key, value in payload.items()
                  if key not in ("type", "message")}
    if "issues" in attributes:
        attributes["issues"] = [
            AnalysisIssue(**dict(issue, path=tuple(issue["path"])))
            for issue in attributes["issues"]]
    vars(error).update(attributes)
    return error


class ServerClient:
    """One connection (= one server-side session), driven synchronously."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry
        self._rng = retry.rng() if retry is not None else None
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._closed = False
        #: Distinguishes a deliberate close() from a lost connection:
        #: retries never resurrect a client the caller shut down.
        self._user_closed = False

    # -- plumbing ------------------------------------------------------------------

    def request(self, payload: dict, *, idempotent: bool = False) -> dict:
        """Send one request object, return the decoded ``ok`` response
        (raising the reconstructed error for a ``not ok`` one).

        With a :class:`RetryPolicy`, ``ServerOverloaded`` rejections are
        retried with backoff; transport failures additionally trigger a
        reconnect-and-retry, but only when the operation is declared
        ``idempotent``.
        """
        if self._retry is None:
            return self._request_once(payload)
        attempt = 0
        while True:
            try:
                return self._request_once(payload)
            except ServerOverloaded:
                if attempt >= self._retry.max_attempts - 1:
                    raise
            except (ConnectionError, OSError, ProtocolError) as exc:
                if not (idempotent and self._retry.retry_connection_errors
                        and self._connection_lost(exc)):
                    raise
                if attempt >= self._retry.max_attempts - 1:
                    raise
            time.sleep(self._retry.delay(attempt, self._rng))
            attempt += 1
            if self._closed and not self._user_closed:
                self._reconnect()

    def _request_once(self, payload: dict) -> dict:
        if self._closed:
            raise ProtocolError("client connection is closed")
        try:
            self._sock.sendall(json.dumps(payload).encode() + b"\n")
            line = self._reader.readline()
        except (ConnectionError, OSError):
            self._closed = True
            raise
        if not line:
            self._closed = True
            raise ProtocolError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise _reconstruct_error(response.get("error", {}))
        return response

    def _connection_lost(self, exc: BaseException) -> bool:
        """Failures a reconnect can fix: a dropped socket, never a
        deliberately closed client or a protocol-level dispute."""
        if self._user_closed:
            return False
        if isinstance(exc, ProtocolError):
            return "closed the connection" in str(exc)
        return True  # ConnectionError / OSError on the socket

    def _reconnect(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass
        self._sock = socket.create_connection((self._host, self._port),
                                              timeout=self._timeout)
        self._reader = self._sock.makefile("rb")
        self._closed = False

    # -- operations ----------------------------------------------------------------

    def query(self, sql: str,
              params: Sequence[Any] | Mapping[str, Any] | None = None,
              mode: str | None = None,
              engine: str | None = None) -> ClientResult:
        payload: dict = {"op": "query", "sql": sql}
        if params is not None:
            if isinstance(params, Mapping):
                payload["params"] = {k: encode_value(v)
                                     for k, v in params.items()}
            else:
                payload["params"] = [encode_value(v) for v in params]
        if mode is not None:
            payload["mode"] = mode
        if engine is not None:
            payload["engine"] = engine
        return ClientResult(self.request(payload, idempotent=True))

    def explain(self, sql: str, mode: str | None = None,
                costs: bool = False, *, analyze: bool = False,
                format: str = "text", engine: str | None = None,
                params: Sequence[Any] | Mapping[str, Any] | None = None
                ) -> "str | dict":
        """Server-side explain; mirrors :meth:`Database.explain`.

        Returns the rendered text, or a dict when ``format="dict"``.
        """
        payload: dict = {"op": "explain", "sql": sql, "costs": costs,
                         "analyze": analyze, "format": format}
        if mode is not None:
            payload["mode"] = mode
        if engine is not None:
            payload["engine"] = engine
        if params is not None:
            if isinstance(params, Mapping):
                payload["params"] = {k: encode_value(v)
                                     for k, v in params.items()}
            else:
                payload["params"] = [encode_value(v) for v in params]
        return self.request(payload, idempotent=True)["plan"]

    def insert(self, table: str, rows: Sequence[Sequence[Any] | Mapping]
               ) -> int:
        encoded = [
            {k: encode_value(v) for k, v in row.items()}
            if isinstance(row, Mapping)
            else [encode_value(v) for v in row]
            for row in rows]
        return self.request(
            {"op": "insert", "table": table, "rows": encoded})["inserted"]

    def begin(self) -> None:
        self.request({"op": "begin"})

    def commit(self) -> None:
        self.request({"op": "commit"})

    def rollback(self) -> None:
        self.request({"op": "rollback"})

    def create_table(self, name: str, columns: Sequence[Sequence],
                     primary_key: Sequence[str] = (),
                     unique_keys: Sequence[Sequence[str]] = ()) -> None:
        specs = []
        for spec in columns:
            spec = list(spec)
            if len(spec) >= 2 and isinstance(spec[1], DataType):
                spec[1] = spec[1].value
            specs.append(spec)
        self.request({"op": "create_table", "name": name,
                      "columns": specs,
                      "primary_key": list(primary_key),
                      "unique_keys": [list(k) for k in unique_keys]})

    def create_index(self, name: str, table: str,
                     columns: Sequence[str], kind: str = "hash") -> None:
        self.request({"op": "create_index", "name": name, "table": table,
                      "columns": list(columns), "kind": kind})

    def drop_table(self, name: str) -> None:
        self.request({"op": "drop_table", "name": name})

    def metrics(self) -> dict:
        return self.request({"op": "metrics"},
                            idempotent=True)["metrics"]

    def health(self) -> dict:
        """The server's liveness/readiness snapshot (``health`` op)."""
        return self.request({"op": "health"}, idempotent=True)["health"]

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"},
                                 idempotent=True).get("pong"))

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        self._user_closed = True
        if self._closed:
            return
        try:
            self.request({"op": "close"})
        except Exception:
            pass  # best-effort goodbye; the socket teardown is what matters
        self._closed = True
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
