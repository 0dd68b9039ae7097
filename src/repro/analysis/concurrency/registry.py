"""Declared facts the static pass keys off.

The lock hierarchy itself and the guarded-field declarations live in
:mod:`repro.concurrency` (one source of truth shared with the runtime
detector); this module adds the *static-resolution* facts: which
attributes hold which object types, which methods return locks, which
functions run with locks already held, and which calls block.
"""

from __future__ import annotations

from ...concurrency import GUARDED_FIELDS, HIERARCHY  # noqa: F401

#: Attribute name → class name, for resolving ``x.attr.method()`` call
#: receivers and local assignments like ``storage = database.storage``.
#: Only attribute names that denote one class everywhere in the engine
#: belong here.
ATTR_TYPES: dict[str, str] = {
    "storage": "Storage",
    "catalog": "Catalog",
    "plan_cache": "PlanCache",
    "corrections": "CorrectionStore",
    "wal": "DurabilityManager",
    "_db": "Database",
    "database": "Database",
    "admission": "AdmissionController",
    "_pool": "ResourcePool",
    "feedback": "FeedbackLoop",
    "_durability": "DurabilityManager",
    "matviews": "MatViewManager",
}

#: Method simple name → lock group returned.  ``writer_lock`` is the only
#: lock-returning accessor in the engine; the name is unambiguous.
LOCK_RETURNING: dict[str, str] = {
    "writer_lock": "storage.writer",
}

#: Method simple name → lock group of the *second* element of each
#: yielded pair (``for name, lock in storage.all_writer_locks():``).
PAIR_ITER_LOCKS: dict[str, str] = {
    "all_writer_locks": "storage.writer",
}

#: (class, container attr) → lock group of the values it stores
#: (``for lock in self.locks.values(): lock.release()``).
CONTAINER_LOCKS: dict[tuple[str, str], str] = {
    ("_Transaction", "locks"): "storage.writer",
    ("_CommitMaintenance", "locks"): "storage.writer",
}

#: (class, function) → lock groups the function's contract requires the
#: caller to hold on entry.  These seed the held-set so the analyzer
#: sees the cross-function edges (commit holds writer locks around the
#: WAL append and the install).
HELD_ON_ENTRY: dict[tuple[str, str], tuple[str, ...]] = {
    ("Storage", "install"): ("storage.writer",),
    ("Storage", "install_many"): ("storage.writer",),
    ("DurabilityManager", "log_commit"): ("storage.writer",),
    ("DurabilityManager", "log_ddl"): ("db.ddl",),
    ("Database", "_apply_ddl"): ("db.ddl",),
    ("_Transaction", "commit"): ("storage.writer",),
    ("_Transaction", "_release"): ("storage.writer",),
    ("MatViewManager", "prepare_commit"): ("storage.writer",),
    ("_CommitMaintenance", "release"): ("storage.writer",),
    ("AdmissionController", "_next_job"): ("admission.queue",),
}

#: Attribute names whose call always blocks (IO, sleeps).
BLOCKING_ALWAYS: frozenset[str] = frozenset({
    "fsync", "sendall", "recv", "accept", "connect", "sleep",
})

#: Attribute names whose call blocks *unboundedly* unless a timeout
#: argument is passed.  ``wait``/``wait_for`` on the currently held
#: condition are exempt: the condition releases its carrier while
#: waiting.
BLOCKING_UNBOUNDED: frozenset[str] = frozenset({
    "join", "wait", "wait_for",
})

#: Files (basenames) allowed to construct raw ``threading`` locks: the
#: substrate itself needs a raw mutex for the detector.
RAW_LOCK_ALLOWED: frozenset[str] = frozenset({"concurrency.py"})

#: Raw ``threading`` constructors the substrate replaces.
RAW_LOCK_NAMES: frozenset[str] = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Container-mutating method names for the guarded-field lint.
MUTATORS: frozenset[str] = frozenset({
    "append", "appendleft", "extend", "add", "insert", "remove",
    "discard", "clear", "pop", "popleft", "popitem", "update",
    "setdefault", "move_to_end",
})

#: Method names that hand out live views of a container (the
#: iterator-escape lint: returning one of these over a guarded field
#: without the guard held leaks a view that breaks under concurrent
#: mutation).
LIVE_VIEWS: frozenset[str] = frozenset({"values", "items", "keys"})
