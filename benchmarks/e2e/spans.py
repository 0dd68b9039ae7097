"""Span recorder for the traced run, living wholly outside ``src/``.

``instrument`` replaces public entry points of each layer with wrappers
that record a span — name, start, end, the span that caused it and the
operation it belongs to — in memory; ``Recorder.dump`` writes them out
when the run ends.  A layer's *self time* is its span minus the part its
child spans cover.

Only the traced run instruments anything: end-to-end numbers always come
from code that was never patched.  While ``Recorder.enabled`` is false a
wrapper is a single attribute test, which is how the traced run measures
its own overhead (a quiet phase first, then a recording phase).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

import bootstrap  # noqa: F401

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children_time")

    def __init__(self, name: str, parent: "Span | None", op) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.children_time = 0.0
        self.start = _now()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


class Recorder:
    """In-memory spans and counts.

    One caller drives the system (closed loop), so "the operation in
    flight" is a single attribute; server worker threads, whose own stack
    is empty, hang their spans under the client request in flight.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        #: operation identifier stamped on every span (set by the harness)
        self.op = None
        self._remote_parent: Span | None = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, remote: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._remote_parent
        span = Span(name, parent, self.op)
        stack.append(span)
        if remote:
            self._remote_parent = span
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        self._stack().pop()
        if self._remote_parent is span:
            self._remote_parent = None
        if span.parent is not None:
            span.parent.children_time += span.duration
        self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        """``with recorder.span("tpch.generate"):`` — recorded only while
        enabled."""
        return _SpanContext(self, name)

    def is_open(self, name: str) -> bool:
        return any(span.name == name for span in self._stack())

    def dump(self, path) -> None:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        records = [{"id": index, "name": s.name,
                    "start_ms": (s.start - origin) * 1e3,
                    "end_ms": (s.end - origin) * 1e3,
                    "self_ms": s.self_time * 1e3,
                    "parent": ids.get(id(s.parent)),
                    "op": s.op}
                   for index, s in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"spans": records, "counts": dict(self.counts)},
                      handle)


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._span: Span | None = None

    def __enter__(self) -> None:
        if self._recorder.enabled:
            self._span = self._recorder.open(self._name)

    def __exit__(self, *exc_info) -> None:
        if self._span is not None:
            self._recorder.close(self._span)


def _wrap(recorder: Recorder, owner, attribute: str, name: str, *,
          nested: bool = True, remote: bool = False,
          before=None, after=None) -> None:
    """Replace ``owner.attribute`` by a span-recording wrapper.

    ``nested=False`` records only the outermost call of a recursive entry
    point.  ``before(args)`` / ``after(args, result)`` run outside the
    span and feed ``recorder.counts``.
    """
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.enabled or (not nested and recorder.is_open(name)):
            return original(*args, **kwargs)
        if before is not None:
            before(args)
        span = recorder.open(name, remote)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attribute, wrapper)


def instrument(recorder: Recorder) -> None:
    """Put a span around each layer's public entry point."""
    import repro.database as database
    from repro import ServerClient, Session
    from repro.algebra import Apply, collect_nodes
    from repro.binder import Binder
    from repro.core.normalize import remove_subqueries
    from repro.core.optimizer import Optimizer
    from repro.durability import DurabilityManager
    from repro.executor.physical import PhysicalExecutor
    from repro.executor.vectorized import VectorizedExecutor
    from repro.governor import OptimizerBudget, ResourceGovernor
    from repro.matview import MatViewManager
    from repro.storage.table import Storage, StoredTable

    counts = recorder.counts

    def applies(rel) -> int:
        return len(collect_nodes(rel, lambda node: isinstance(node, Apply)))

    def parsed(args) -> None:
        counts["sql.chars"] += len(args[0])

    def unnormalized(args) -> None:
        counts["normalize.applies_in"] += applies(remove_subqueries(args[0]))

    def normalized(args, result) -> None:
        counts["normalize.applies_out"] += applies(result)

    def inserted(args, result) -> None:
        counts["storage.rows_inserted"] += result

    # ``parse`` and ``normalize`` are looked up in repro.database's own
    # namespace, so that is where they are replaced.
    _wrap(recorder, database, "parse", "sql.parse", before=parsed)
    _wrap(recorder, Binder, "bind", "binder.bind")
    _wrap(recorder, database, "normalize", "core.normalize",
          before=unnormalized, after=normalized)

    # Rule applications and memo groups are only counted under a
    # governor; a limit-free one is lent to optimizers that have none.
    unlimited = OptimizerBudget(max_rule_applications=10 ** 12,
                                max_memo_groups=10 ** 12)
    optimize = Optimizer.optimize_with_cost

    @functools.wraps(optimize)
    def counted_optimize(self, rel):
        if not recorder.enabled:
            return optimize(self, rel)
        lent = self.governor is None
        if lent:
            self.governor = ResourceGovernor(optimizer_budget=unlimited)
        rules_before = self.governor.rule_applications
        span = recorder.open("core.optimizer.optimize")
        try:
            return optimize(self, rel)
        finally:
            recorder.close(span)
            counts["optimizer.statements"] += 1
            counts["optimizer.rule_applications"] += (
                self.governor.rule_applications - rules_before)
            counts["optimizer.memo_groups"] += self.governor.memo_groups
            if lent:
                self.governor = None

    Optimizer.optimize_with_cost = counted_optimize

    _wrap(recorder, VectorizedExecutor, "prepare",
          "executor.vectorized.prepare", nested=False)
    _wrap(recorder, VectorizedExecutor, "run_prepared",
          "executor.vectorized.run")
    _wrap(recorder, PhysicalExecutor, "run_prepared",
          "executor.physical.run")
    _wrap(recorder, StoredTable, "clone", "storage.clone")
    _wrap(recorder, Storage, "install_many", "storage.install")
    _wrap(recorder, Storage, "apply_insert", "storage.insert",
          after=inserted)
    _wrap(recorder, database.Database, "execute", "database.execute")
    _wrap(recorder, database.Database, "checkpoint", "durability.checkpoint")
    _wrap(recorder, DurabilityManager, "log_commit", "durability.log_commit")
    _wrap(recorder, MatViewManager, "create", "matview.create")
    _wrap(recorder, MatViewManager, "prepare_commit", "matview.maintain")
    _wrap(recorder, Session, "execute", "server.sessions.execute")
    _wrap(recorder, Session, "insert", "server.sessions.insert")
    _wrap(recorder, Session, "commit", "server.sessions.commit")
    _wrap(recorder, ServerClient, "request", "server.wire.request",
          remote=True)
