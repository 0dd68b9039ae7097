"""Parameterized plan cache: LRU over compiled query plans.

Prepared statements and transparently-cached ad-hoc queries both land here.
A cache entry holds everything needed to re-execute a statement without
repeating parse → bind → normalize → optimize → compile: the optimized
physical plan, the prepared executable, the output schema and the parameter
list.  Entries are keyed on the *token-normalized* SQL text (whitespace,
comments and letter case of keywords do not fragment the cache), the
execution-mode name, the execution engine the plan was compiled for, and
the catalog schema version at plan time.

Soundness comes from three mechanisms:

* **Schema versioning** — the key embeds ``catalog.version``; any DDL bumps
  it, so post-DDL lookups miss and replan against the new schema.
* **Explicit invalidation** — DDL entry points also call
  :meth:`PlanCache.invalidate`, dropping entries eagerly instead of letting
  them age out of the LRU.
* **Statistics drift** — each entry snapshots the row counts of the tables
  it references (:mod:`repro.stats_version`); a hit whose snapshot drifted
  beyond the threshold is discarded and replanned, so a plan costed against
  an empty table does not survive a bulk load.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from . import faultinject
from .concurrency import TrackedLock
from .stats_version import (DEFAULT_DRIFT_THRESHOLD, StatsSnapshot, capture,
                            drifted)


@dataclass
class CachedPlan:
    """One compiled statement: plan, executable, schema, provenance."""

    sql_key: Hashable
    mode_name: str
    catalog_version: int
    names: list[str]
    types: list[Any]
    parameters: tuple
    plan: Any
    rel: Any
    executable: Any
    snapshot: StatsSnapshot
    #: Execution engine the ``executable`` was prepared for ("tuple" or
    #: "vectorized").  Part of the cache key: the two engines compile the
    #: same physical plan into incompatible executables (row iterators vs
    #: batch iterators), so entries must never collide across engines.
    engine: str = "tuple"
    table_names: frozenset[str] = field(default_factory=frozenset)
    #: True when the entry came out of the graceful-degradation ladder
    #: (heuristic plan or naive interpretation).  Degraded entries are
    #: returned to the caller but never admitted into the cache.
    degraded: bool = False
    fallback_reason: str | None = None
    #: Set by the feedback loop (:mod:`repro.feedback`) when this plan's
    #: observed max Q-error exceeded the staleness threshold.  The next
    #: cache lookup discards the entry and replans against the corrected
    #: statistics.  Flagging never touches the entry's plan or
    #: executable, so executions already holding the entry are
    #: unaffected (plans are immutable once built).
    feedback_stale: bool = False
    #: Cache hits served for this entry, incremented under the cache's
    #: entry lock.  The materialized-view advisor mines this as its
    #: query-frequency signal (repro.matview.advisor).
    hits: int = 0
    #: When the plan was transparently rewritten to scan a materialized
    #: view: the view's name and the rewritten SQL it was compiled from
    #: (both ``None`` for unrewritten plans).  Surfaced by EXPLAIN.
    matview_name: str | None = None
    rewritten_sql: str | None = None
    #: The query's canonical aggregate fingerprint
    #: (:class:`repro.matview.canonical.CanonicalAggregate`) when it has
    #: one — the advisor's matching signal; ``None`` otherwise.
    fingerprint: Any = None
    #: What EXPLAIN draws beside ``plan``: the normalized logical tree
    #: the optimizer was given (``None`` in naive mode, which interprets
    #: ``rel`` as bound) and the optimizer's cost for ``plan`` (``None``
    #: for naive and degraded entries).
    normalized: Any = None
    cost: float | None = None

    @property
    def key(self) -> tuple:
        return (self.sql_key, self.mode_name, self.engine,
                self.catalog_version)


@dataclass
class CacheStats:
    """Observable cache behaviour, for tests and monitoring.

    The owning cache updates counters under a dedicated stats lock, so
    concurrent sessions never lose increments.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale: int = 0
    #: entries refused admission by the cache's validator hook
    rejected: int = 0
    #: entries discarded because runtime feedback flagged their plan
    #: (max Q-error over threshold; see repro.feedback)
    feedback_stale: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.invalidations = self.stale = self.rejected = 0
        self.feedback_stale = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations, "stale": self.stale,
                "rejected": self.rejected,
                "feedback_stale": self.feedback_stale,
                "hit_rate": self.hit_rate}


class PlanCache:
    """LRU cache of :class:`CachedPlan` entries.

    ``row_count_of`` supplies current table sizes for the drift test; pass
    ``None`` to disable staleness checking (entries then live until DDL
    invalidation or LRU eviction).

    Thread safety: one lock guards the entry map, so eviction order is
    the exact global LRU.  The validator and staleness callbacks run
    *outside* that lock: they may be slow (the static analyzer,
    row-count probes) and must not serialize unrelated lookups.
    """

    def __init__(self, capacity: int = 128,
                 row_count_of: Callable[[str], int] | None = None,
                 drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
                 validator: Callable[[CachedPlan], bool] | None = None
                 ) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self.drift_threshold = drift_threshold
        self._row_count_of = row_count_of
        self._validator = validator
        self._lock = TrackedLock("plancache.entries")
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        #: Exact text → ``sql_key`` of the plain queries looked up
        #: lately, so that a repeated text skips the lexer (see
        #: :meth:`text_key`).  Written under ``_lock``, read without it;
        #: at most ``capacity`` texts, the oldest dropped first.  Keys
        #: only, never token lists (they would keep a statement's worth
        #: of young objects alive).
        self._text_keys: dict[str, Hashable] = {}
        self.stats = CacheStats()
        self._stats_lock = TrackedLock("plancache.stats")

    def _bump(self, field_name: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, field_name,
                    getattr(self.stats, field_name) + n)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, sql_key: Hashable, mode_name: str,
            catalog_version: int,
            engine: str = "tuple") -> CachedPlan | None:
        """Look up a cached plan, applying LRU touch and staleness check."""
        faultinject.hit("plancache.get")
        key = (sql_key, mode_name, engine, catalog_version)
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            self._bump("misses")
            return None
        if entry.feedback_stale:
            with self._lock:
                if self._entries.get(key) is entry:
                    del self._entries[key]
            self._bump("feedback_stale")
            self._bump("misses")
            return None
        if self._is_stale(entry):
            with self._lock:
                self._entries.pop(key, None)
            self._bump("stale")
            self._bump("misses")
            return None
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                entry.hits += 1
        self._bump("hits")
        return entry

    def text_key(self, sql: str) -> Hashable | None:
        """The ``sql_key`` remembered for this exact text, if any.  A
        text's key depends on nothing but the text, so it never goes
        stale."""
        return self._text_keys.get(sql)

    def remember_text(self, sql: str, sql_key: Hashable) -> None:
        with self._lock:
            texts = self._text_keys
            texts[sql] = sql_key
            while len(texts) > self.capacity:
                del texts[next(iter(texts))]

    def put(self, entry: CachedPlan) -> None:
        faultinject.hit("plancache.put")
        if self._validator is not None and not self._validator(entry):
            self._bump("rejected")
            return
        key = entry.key
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self._bump("evictions", evicted)

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop cached plans; all of them, or those touching one table.

        Returns the number of entries removed.  Called from every DDL
        entry point — the schema-version key component already guarantees
        correctness, so this is about reclaiming memory eagerly rather
        than stranding dead entries until LRU eviction.
        """
        with self._lock:
            if table_name is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                wanted = table_name.lower()
                doomed = [key for key, entry in self._entries.items()
                          if wanted in entry.table_names]
                for key in doomed:
                    del self._entries[key]
                removed = len(doomed)
        if removed:
            self._bump("invalidations", removed)
        return removed

    def entries(self) -> list[CachedPlan]:
        """A point-in-time list of every cached entry."""
        with self._lock:
            return list(self._entries.values())

    def capture_snapshot(self,
                         table_names: Sequence[str]) -> StatsSnapshot:
        """Snapshot current row counts for a new entry's staleness check."""
        if self._row_count_of is None:
            return StatsSnapshot({})
        return capture(self._row_count_of, table_names)

    def _is_stale(self, entry: CachedPlan) -> bool:
        if self._row_count_of is None:
            return False
        return drifted(entry.snapshot, self._row_count_of,
                       self.drift_threshold)
