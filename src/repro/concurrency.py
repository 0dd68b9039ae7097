"""Unified locking substrate: named, levelled locks + a runtime race detector.

Every lock in the engine is a :class:`TrackedLock` / :class:`TrackedRLock`
(or a :class:`TrackedCondition` wrapping one) declared in :data:`HIERARCHY`
with a *name* and a *level*.  The discipline is the classic lock-ordering
rule made explicit and mechanically checkable (the same move PR 3 made for
plan invariants):

* A thread may only acquire a lock whose level is **strictly greater**
  than the highest level it already holds (re-entrant re-acquisition of
  the same :class:`TrackedRLock` is always allowed).
* **Same-level** acquisition is allowed only for locks whose spec sets
  ``timeout_required`` (per-table writer locks, shard stripes) and only
  with a **bounded** acquire — a timeout converts a potential deadlock
  into a clean :class:`~repro.errors.TransactionConflict`-style failure.

Two checkers enforce this:

* The **static pass** (:mod:`repro.analysis.concurrency`) extracts every
  acquisition from the source tree, builds the held-while-acquiring
  graph, and reports cycles, hierarchy violations, unbounded same-level
  acquires, blocking calls under hot locks, and unguarded mutations of
  registered shared fields.  ``python -m repro.analysis.concurrency
  check`` is a CI hard gate.
* The **runtime race detector** (opt-in: ``REPRO_RACE=1``) records every
  acquisition with its call stack, detects hierarchy violations and
  lock-order inversions the moment they happen, and raises a
  :class:`LockOrderViolation` whose blame report names both locks, both
  threads and both acquisition sites.  With the detector off — the
  default — a ``TrackedLock`` costs one module-global read per
  operation and no bookkeeping at all.

Cross-thread hand-off (a server acquires a writer lock on an admission
worker and releases it on the connection thread at commit) is supported:
held-lock bookkeeping is keyed globally by lock identity, not in
thread-local storage.
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "HIERARCHY", "LockSpec", "LockOrderViolation", "RaceDetector",
    "TrackedCondition", "TrackedLock", "TrackedRLock", "detector",
    "install_detector", "level_of", "race_detection", "spec_for",
    "uninstall_detector",
]


class LockOrderViolation(RuntimeError):
    """A lock-order / hierarchy violation detected at runtime.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in the
    engine (degradation ladder, wire error mapping, chaos recovery) may
    absorb it — a violation is a bug in the engine, never a query error.
    """

    def __init__(self, message: str, report: str = "") -> None:
        super().__init__(message if not report
                         else f"{message}\n{report}")
        self.report = report


# ---------------------------------------------------------------------------
# Declared hierarchy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LockSpec:
    """One declared lock (or family of locks) in the global hierarchy."""

    #: Exact lock name; for ``dynamic`` specs, instances are named
    #: ``"<name>:<qualifier>"`` (e.g. ``storage.writer:orders``).
    name: str
    #: Hierarchy level.  Acquisition order must be strictly ascending.
    level: int
    #: True when many instances share this spec (per-table, per-shard).
    dynamic: bool = False
    #: Same-level multiple acquisition is legal for this spec, but every
    #: acquire must be *bounded* (carry a timeout) so a cross-order race
    #: resolves as a timeout instead of a deadlock.
    timeout_required: bool = False
    #: Hot locks serialize fast paths; blocking calls (fsync, socket IO,
    #: unbounded waits) must never run while one is held.
    hot: bool = False
    #: True for re-entrant locks.
    reentrant: bool = False
    doc: str = ""


#: The global lock hierarchy, lowest level acquired first.  The static
#: pass and the runtime detector both key off this single declaration;
#: adding a lock anywhere in the engine means adding a row here (see
#: DESIGN.md "Concurrency invariants").
HIERARCHY: tuple[LockSpec, ...] = (
    LockSpec("db.ddl", 10, reentrant=True,
             doc="Serializes DDL end to end (validate -> log -> apply); "
                 "shared by Database and DurabilityManager."),
    LockSpec("storage.writer", 20, dynamic=True, timeout_required=True,
             doc="Per-table single-writer lock serializing installs; "
                 "transactions and the checkpointer may hold several, so "
                 "every acquire must be bounded."),
    LockSpec("wal.log", 30,
             doc="Serializes WAL appends and LSN assignment; fsync runs "
                 "under it by design (log order = durability order)."),
    LockSpec("storage.tables", 40, reentrant=True, hot=True,
             doc="Guards the table-version map and data_version."),
    LockSpec("catalog.schema", 50, reentrant=True, hot=True,
             doc="Guards table/view/index definitions and the schema "
                 "version."),
    LockSpec("stats.corrections", 55, hot=True,
             doc="Guards the runtime cardinality-correction store."),
    LockSpec("matview.stats", 58, hot=True,
             doc="Materialized-view manager observability counters."),
    LockSpec("plancache.shard", 60, dynamic=True, hot=True,
             doc="One LRU stripe of the plan cache."),
    LockSpec("plancache.stats", 62, hot=True,
             doc="Plan-cache counters (hits/misses/evictions)."),
    LockSpec("admission.queue", 70, hot=True,
             doc="Admission-controller queues, rotation and counters "
                 "(condition variable)."),
    LockSpec("server.pool", 72,
             doc="Global resource-pool budget (condition variable)."),
    LockSpec("dbapi.pool", 80,
             doc="DB-API connection-pool free list (condition variable)."),
    LockSpec("wire.active", 84, hot=True,
             doc="In-flight request counter of the wire server."),
    LockSpec("wire.conns", 86,
             doc="Connection-thread registry of the wire server."),
    LockSpec("db.sessions", 90, hot=True,
             doc="Open-session registry of a Database."),
    LockSpec("feedback.stats", 92, hot=True,
             doc="Feedback-loop observability counters."),
    LockSpec("algebra.columns", 95, hot=True,
             doc="Global column-id counter (leaf; nothing may be "
                 "acquired while holding it)."),
)

_SPEC_BY_NAME: dict[str, LockSpec] = {s.name: s for s in HIERARCHY}


def spec_for(name: str) -> LockSpec:
    """Resolve a lock *instance* name to its declared spec.

    Exact match first; otherwise the prefix before ``:`` must name a
    ``dynamic`` spec (``storage.writer:orders`` -> ``storage.writer``).
    """
    spec = _SPEC_BY_NAME.get(name)
    if spec is not None:
        return spec
    base, _, qualifier = name.partition(":")
    spec = _SPEC_BY_NAME.get(base)
    if spec is not None and spec.dynamic and qualifier:
        return spec
    raise ValueError(
        f"lock name {name!r} is not declared in the hierarchy; add a "
        f"LockSpec to repro.concurrency.HIERARCHY (or pass level=)")


def level_of(name: str) -> int:
    return spec_for(name).level


# ---------------------------------------------------------------------------
# Runtime race detector
# ---------------------------------------------------------------------------

def _call_site(skip: int = 2, limit: int = 10) -> tuple[tuple[str, int, str],
                                                        ...]:
    """A cheap call-stack summary: (filename, lineno, function) frames,
    innermost first.  Avoids :mod:`traceback`'s source-line loading —
    capture cost bounds the detector's overhead on the commit path."""
    try:
        frame = sys._getframe(skip)
    except ValueError:  # shallower stack than skip
        return ()
    frames: list[tuple[str, int, str]] = []
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(frames)


def _render_site(stack: tuple[tuple[str, int, str], ...],
                 indent: str = "    ") -> str:
    if not stack:
        return f"{indent}<no stack recorded>"
    return "\n".join(f"{indent}{fn}:{line} in {func}()"
                     for fn, line, func in stack)


@dataclass
class _Held:
    """One acquisition currently held somewhere in the process.

    The lock itself is referenced *weakly*: tests that simulate crashes
    abandon transactions (and whole databases) with locks still held, and
    a dead lock's entry must not poison later ordering checks — once the
    lock object is unreachable, no thread can ever wait on it again, so
    it cannot participate in a deadlock.
    """

    ref: "weakref.ref[TrackedLock] | weakref.ref[TrackedRLock]"
    lock_id: int
    name: str
    level: int
    spec: LockSpec
    bounded: bool
    stack: tuple[tuple[str, int, str], ...]
    thread_ident: int
    thread_name: str
    count: int = 1  # re-entrant depth for TrackedRLock


@dataclass
class _Edge:
    """First recorded held-while-acquiring pair (for inversion blame)."""

    held_name: str
    acquired_name: str
    bounded: bool
    held_stack: tuple[tuple[str, int, str], ...]
    acquire_stack: tuple[tuple[str, int, str], ...]
    thread_name: str
    count: int = 1


@dataclass
class Violation:
    """One detected hierarchy violation or lock-order inversion."""

    kind: str           # "hierarchy" | "inversion" | "same-level"
    message: str
    report: str


class RaceDetector:
    """Records acquisitions, checks ordering, dumps blame reports.

    ``mode="strict"`` raises :class:`LockOrderViolation` at the faulty
    acquisition; ``mode="warn"`` only collects into :attr:`violations`.
    Bounded *inversions* (both directions acquired with timeouts — the
    sanctioned first-committer-wins pattern on writer locks) are recorded
    in :attr:`bounded_inversions` but never raised: the timeout is the
    deadlock-freedom argument.
    """

    def __init__(self, mode: str = "strict") -> None:
        if mode not in ("strict", "warn"):
            raise ValueError("detector mode must be 'strict' or 'warn'")
        self.mode = mode
        # The detector's own mutex is deliberately a *raw* lock: it must
        # not recurse into the tracking machinery it implements.
        self._mu = threading.Lock()
        self._held_by_lock: dict[int, _Held] = {}       # id(lock) -> held
        self._held_by_thread: dict[int, list[int]] = {}  # ident -> [id(lock)]
        self._edges: dict[tuple[str, str], _Edge] = {}
        self.violations: list[Violation] = []
        self.bounded_inversions: list[tuple[_Edge, _Edge]] = []
        self.acquisitions = 0

    # -- bookkeeping (called from TrackedLock) -------------------------------------

    def _prune_dead_locked(self) -> None:
        """Drop entries whose lock object has been garbage-collected
        (abandoned by a crash-simulation test).  Caller holds ``_mu``."""
        dead = [lock_id for lock_id, entry in self._held_by_lock.items()
                if entry.ref() is None]
        for lock_id in dead:
            entry = self._held_by_lock.pop(lock_id)
            bucket = self._held_by_thread.get(entry.thread_ident)
            if bucket is not None:
                try:
                    bucket.remove(lock_id)
                except ValueError:
                    pass
                if not bucket:
                    del self._held_by_thread[entry.thread_ident]

    def before_acquire(self, lock: "TrackedLock | TrackedRLock",
                       blocking: bool, timeout: float) -> None:
        """Order checks run *before* blocking on the inner lock, so a
        violation is reported instead of deadlocking."""
        if not blocking or timeout == 0:
            return  # try-acquire can never deadlock
        violation = self._order_violation(lock, timeout)
        if violation is not None:
            # A held entry may belong to an abandoned lock trapped in a
            # reference cycle (crash-simulation tests drop databases with
            # transactions open).  Collect and re-check once before
            # blaming anyone; this path only runs when a violation is
            # about to be reported, so the clean path never pays for it.
            import gc
            gc.collect()
            violation = self._order_violation(lock, timeout)
        if violation is not None:
            self._report(violation)

    def _order_violation(self, lock: "TrackedLock | TrackedRLock",
                         timeout: float) -> Optional[Violation]:
        ident = threading.get_ident()
        bounded = timeout is not None and timeout >= 0
        with self._mu:
            self._prune_dead_locked()
            held_ids = self._held_by_thread.get(ident, ())
            if not held_ids:
                return None
            held = [self._held_by_lock[i] for i in held_ids
                    if i in self._held_by_lock]
            if not held:
                return None
            for entry in held:
                if entry.lock_id == id(lock):
                    if lock.spec.reentrant:
                        return None  # re-entrant re-acquisition
                    break
            return self._check_order(lock, bounded, held)

    def on_acquired(self, lock: "TrackedLock | TrackedRLock",
                    blocking: bool, timeout: float) -> None:
        ident = threading.get_ident()
        bounded = blocking and timeout is not None and timeout >= 0
        stack = _call_site(skip=3)
        with self._mu:
            self._prune_dead_locked()
            self.acquisitions += 1
            existing = self._held_by_lock.get(id(lock))
            if existing is not None:
                existing.count += 1  # re-entrant
                return
            entry = _Held(ref=weakref.ref(lock), lock_id=id(lock),
                          name=lock.name, level=lock.level, spec=lock.spec,
                          bounded=bounded, stack=stack,
                          thread_ident=ident,
                          thread_name=threading.current_thread().name)
            for held_id in self._held_by_thread.get(ident, ()):
                other = self._held_by_lock.get(held_id)
                if other is not None:
                    self._record_edge(other, entry)
            self._held_by_lock[id(lock)] = entry
            self._held_by_thread.setdefault(ident, []).append(id(lock))

    def on_release(self, lock: "TrackedLock | TrackedRLock") -> None:
        with self._mu:
            entry = self._held_by_lock.get(id(lock))
            if entry is None:
                return  # acquired before the detector was installed
            entry.count -= 1
            if entry.count > 0:
                return
            del self._held_by_lock[id(lock)]
            bucket = self._held_by_thread.get(entry.thread_ident)
            if bucket is not None:
                try:
                    bucket.remove(id(lock))
                except ValueError:
                    pass
                if not bucket:
                    del self._held_by_thread[entry.thread_ident]

    # -- checks --------------------------------------------------------------------

    def _check_order(self, lock: "TrackedLock | TrackedRLock",
                     bounded: bool,
                     held: list[_Held]) -> Optional[Violation]:
        """Caller holds ``self._mu``."""
        top = max(held, key=lambda e: e.level)
        if lock.level < top.level:
            return self._hierarchy_violation(lock, top)
        if lock.level == top.level and top.lock_id != id(lock):
            same = top
            if lock.spec.timeout_required and same.spec.timeout_required \
                    and bounded:
                return None  # sanctioned bounded same-level group
            return Violation(
                kind="same-level",
                message=(f"unbounded same-level acquisition: "
                         f"{lock.name!r} (level {lock.level}) while "
                         f"holding {same.name!r} "
                         f"(level {same.level})"),
                report=self._blame(same, lock))
        return None

    def _hierarchy_violation(self, lock: "TrackedLock | TrackedRLock",
                             held: _Held) -> Violation:
        return Violation(
            kind="hierarchy",
            message=(f"lock hierarchy violation: acquiring "
                     f"{lock.name!r} (level {lock.level}) while holding "
                     f"{held.name!r} (level {held.level})"),
            report=self._blame(held, lock))

    def _record_edge(self, held: _Held,
                     acquiring: _Held) -> None:
        """Caller holds ``self._mu``.  Records the edge and flags an
        inversion when the reverse edge was seen earlier."""
        key = (held.name, acquiring.name)
        edge = self._edges.get(key)
        if edge is not None:
            edge.count += 1
            return
        edge = _Edge(held_name=held.name,
                     acquired_name=acquiring.name,
                     bounded=acquiring.bounded,
                     held_stack=held.stack,
                     acquire_stack=acquiring.stack,
                     thread_name=acquiring.thread_name)
        self._edges[key] = edge
        reverse = self._edges.get((key[1], key[0]))
        if reverse is None or key[0] == key[1]:
            return
        if edge.bounded and reverse.bounded:
            self.bounded_inversions.append((edge, reverse))
            return
        violation = Violation(
            kind="inversion",
            message=(f"lock-order inversion: {key[0]!r} -> {key[1]!r} "
                     f"here, but {key[1]!r} -> {key[0]!r} was acquired "
                     f"earlier"),
            report=self._render_inversion(edge, reverse))
        # _mu is held; defer raising until after release to keep the
        # detector re-entrant-safe.
        self.violations.append(violation)
        if self.mode == "strict":
            raise LockOrderViolation(violation.message, violation.report)

    # -- blame reports -------------------------------------------------------------

    def _blame(self, held: _Held,
               acquiring: "TrackedLock | TrackedRLock") -> str:
        lines = [
            "lock-order blame report",
            f"  cycle: {held.name} -> {acquiring.name} "
            f"-> {held.name} (hierarchy levels "
            f"{held.level} -> {acquiring.level})",
            f"  thread {threading.current_thread().name!r} acquiring "
            f"{acquiring.name!r} at:",
            _render_site(_call_site(skip=4)),
            f"  while holding {held.name!r} (acquired by thread "
            f"{held.thread_name!r}) at:",
            _render_site(held.stack),
        ]
        return "\n".join(lines)

    def _render_inversion(self, edge: _Edge, reverse: _Edge) -> str:
        lines = [
            "lock-order inversion blame report",
            f"  cycle: {edge.held_name} -> {edge.acquired_name} "
            f"-> {edge.held_name}",
            f"  thread {edge.thread_name!r} acquired "
            f"{edge.acquired_name!r} while holding {edge.held_name!r}:",
            _render_site(edge.acquire_stack),
            f"    ({edge.held_name!r} held from:)",
            _render_site(edge.held_stack, indent="      "),
            f"  thread {reverse.thread_name!r} earlier acquired "
            f"{reverse.acquired_name!r} while holding "
            f"{reverse.held_name!r}:",
            _render_site(reverse.acquire_stack),
            f"    ({reverse.held_name!r} held from:)",
            _render_site(reverse.held_stack, indent="      "),
        ]
        return "\n".join(lines)

    def _report(self, violation: Violation) -> None:
        with self._mu:
            self.violations.append(violation)
        if self.mode == "strict":
            raise LockOrderViolation(violation.message, violation.report)

    # -- observability -------------------------------------------------------------

    def edges(self) -> list[tuple[str, str, int]]:
        with self._mu:
            return [(e.held_name, e.acquired_name, e.count)
                    for e in self._edges.values()]

    def report(self) -> str:
        """Render every recorded violation plus the sanctioned bounded
        inversions (empty string when nothing was recorded)."""
        with self._mu:
            violations = list(self.violations)
            bounded = list(self.bounded_inversions)
        sections = [f"[{v.kind}] {v.message}\n{v.report}"
                    for v in violations]
        sections.extend(
            f"[bounded-inversion] {e.held_name!r} <-> {r.held_name!r} "
            f"(both bounded; resolved by first-committer-wins)\n"
            + self._render_inversion(e, r)
            for e, r in bounded)
        return "\n\n".join(sections)


#: The installed detector, or ``None`` (the zero-overhead default).
_DETECTOR: Optional[RaceDetector] = None
_DETECTOR_GUARD = threading.Lock()


def detector() -> Optional[RaceDetector]:
    return _DETECTOR


def install_detector(mode: str = "strict") -> RaceDetector:
    """Install a fresh global detector (replacing any existing one)."""
    global _DETECTOR
    with _DETECTOR_GUARD:
        _DETECTOR = RaceDetector(mode)
        return _DETECTOR


def uninstall_detector() -> None:
    global _DETECTOR
    with _DETECTOR_GUARD:
        _DETECTOR = None


class race_detection:
    """Context manager: run a block under a fresh race detector.

    ::

        with race_detection() as det:
            ...concurrent code...
        assert not det.violations
    """

    def __init__(self, mode: str = "strict") -> None:
        self.mode = mode
        self.detector: Optional[RaceDetector] = None
        self._previous: Optional[RaceDetector] = None

    def __enter__(self) -> RaceDetector:
        global _DETECTOR
        with _DETECTOR_GUARD:
            self._previous = _DETECTOR
            self.detector = RaceDetector(self.mode)
            _DETECTOR = self.detector
        return self.detector

    def __exit__(self, *exc_info: Any) -> None:
        global _DETECTOR
        with _DETECTOR_GUARD:
            if _DETECTOR is self.detector:
                _DETECTOR = self._previous


def _env_mode() -> Optional[str]:
    raw = os.environ.get("REPRO_RACE", "").strip().lower()
    if raw in ("1", "on", "strict", "true"):
        return "strict"
    if raw == "warn":
        return "warn"
    return None


_mode = _env_mode()
if _mode is not None:
    install_detector(_mode)
del _mode


# ---------------------------------------------------------------------------
# Tracked locks
# ---------------------------------------------------------------------------

class TrackedLock:
    """A named, levelled ``threading.Lock``.

    Drop-in for the subset of the ``Lock`` API the engine uses
    (``acquire(blocking, timeout)``, ``release``, context manager,
    ``locked``).  ``_is_owned`` makes it a valid ``threading.Condition``
    carrier lock.  Cross-thread release is legal (writer-lock hand-off);
    pass ``assert_owner=True`` for locks that must be released by their
    acquiring thread — violated only under an installed detector.
    """

    __slots__ = ("name", "level", "spec", "assert_owner", "_inner",
                 "_owner", "__weakref__")

    _lock_factory: Callable[[], Any] = staticmethod(threading.Lock)

    def __init__(self, name: str, level: Optional[int] = None,
                 assert_owner: bool = False) -> None:
        if level is None:
            self.spec = spec_for(name)
            self.level = self.spec.level
        else:
            base, _, qualifier = name.partition(":")
            self.spec = LockSpec(base, level, dynamic=bool(qualifier))
            self.level = level
        self.name = name
        self.assert_owner = assert_owner
        self._inner = self._lock_factory()
        self._owner: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        det = _DETECTOR
        if det is not None:
            det.before_acquire(self, blocking, timeout)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            if det is not None:
                det.on_acquired(self, blocking, timeout)
        return acquired

    def release(self) -> None:
        det = _DETECTOR
        if det is not None:
            if (self.assert_owner and self._owner is not None
                    and self._owner != threading.get_ident()):
                raise LockOrderViolation(
                    f"lock {self.name!r} released by thread "
                    f"{threading.current_thread().name!r} but acquired "
                    f"by another thread (assert_owner)")
            det.on_release(self)
        self._owner = None
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def _is_owned(self) -> bool:
        """``threading.Condition`` support."""
        return self._owner == threading.get_ident()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"level={self.level})")


class TrackedRLock(TrackedLock):
    """A named, levelled re-entrant lock."""

    __slots__ = ("_depth",)

    _lock_factory = staticmethod(threading.RLock)

    def __init__(self, name: str, level: Optional[int] = None,
                 assert_owner: bool = False) -> None:
        super().__init__(name, level, assert_owner)
        if not self.spec.reentrant:
            self.spec = LockSpec(
                self.spec.name, self.spec.level, dynamic=self.spec.dynamic,
                timeout_required=self.spec.timeout_required,
                hot=self.spec.hot, reentrant=True, doc=self.spec.doc)
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        det = _DETECTOR
        if det is not None and self._owner != threading.get_ident():
            det.before_acquire(self, blocking, timeout)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            self._depth += 1
            if det is not None:
                det.on_acquired(self, blocking, timeout)
        return acquired

    def release(self) -> None:
        det = _DETECTOR
        if det is not None:
            det.on_release(self)
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._inner.release()

    def locked(self) -> bool:
        return self._depth > 0

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()


class TrackedCondition(threading.Condition):
    """A ``Condition`` whose carrier lock is a :class:`TrackedLock`.

    ``wait``/``notify`` behave exactly like the stdlib's; the carrier's
    ``_is_owned`` keeps ``Condition`` from probing ownership with an
    untracked try-acquire.
    """

    def __init__(self, name: str, level: Optional[int] = None) -> None:
        self.name = name
        super().__init__(TrackedLock(name, level))


def iter_specs() -> Iterator[LockSpec]:
    """The declared hierarchy, lowest level first (CLI/listing hook)."""
    return iter(sorted(HIERARCHY, key=lambda s: s.level))


@dataclass
class _FieldGuard:
    """Declares that mutations of ``cls.field`` require ``cls.lock_attr``
    to be held.  Consumed by the static pass (guarded-field lint); kept
    here so the runtime hierarchy and the static registry live in one
    module and cannot drift apart."""

    class_name: str
    lock_attr: str
    fields: tuple[str, ...]
    doc: str = ""


#: Shared mutable state and its guarding lock, per class.  The static
#: pass flags any mutation of a listed field outside a ``with
#: self.<lock_attr>`` block (``__init__`` is exempt: the object is not
#: yet shared).
GUARDED_FIELDS: tuple[_FieldGuard, ...] = (
    _FieldGuard("Storage", "_lock",
                ("_tables", "_writer_locks", "data_version")),
    _FieldGuard("Catalog", "_lock",
                ("_tables", "_indexes", "_views", "_matviews",
                 "version")),
    _FieldGuard("CorrectionStore", "_lock", ("_entries", "version")),
    _FieldGuard("_Shard", "lock", ("entries",)),
    _FieldGuard("AdmissionController", "_cv",
                ("_queues", "_rotation", "_closed", "_active", "_shed",
                 "_completed", "_failed")),
    _FieldGuard("ResourcePool", "_cv",
                ("_memory_available", "_rows_available")),
    _FieldGuard("QueryServer", "_active_lock", ("_active_requests",)),
    _FieldGuard("Database", "_sessions_lock", ("_open_sessions",)),
    _FieldGuard("FeedbackLoop", "_lock",
                ("plans_recorded", "corrections_recorded",
                 "plans_invalidated", "dropped")),
    _FieldGuard("ConnectionPool", "_cv", ("_free", "_closed")),
    _FieldGuard("MatViewManager", "_stats_lock",
                ("rewrites", "maintained_commits", "refreshes",
                 "auto_created")),
)
