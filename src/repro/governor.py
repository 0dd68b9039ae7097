"""Per-query resource governance: timeouts, budgets and execution stats.

A :class:`ResourceGovernor` travels with one query through optimization and
execution.  It is checked *cooperatively*: the optimizer ticks it once per
rule application, executors pass row streams through :meth:`guard` and
account for buffered rows at materialization points (sorts, hash tables,
aggregates, spools).  Checks are batched — counters are plain integer
adds, and the wall clock is consulted only every ``check_interval`` rows —
so governed execution stays within a few percent of ungoverned execution
(``benchmarks/test_governor_overhead.py`` keeps this honest).

Limit violations raise :class:`~repro.errors.QueryTimeout` or
:class:`~repro.errors.ResourceExhausted`; optimizer-budget violations
raise :class:`~repro.errors.OptimizerBudgetExceeded`, which
``Database.execute`` converts into a graceful fallback to a heuristic
plan instead of a failure (see DESIGN.md, "Resource governor").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from .errors import (OptimizerBudgetExceeded, QueryTimeout,
                     ResourceExhausted)

#: How many rows flow between wall-clock checks.  Budget counters are
#: exact; only the (comparatively expensive) deadline check is batched.
DEFAULT_CHECK_INTERVAL = 1024

#: How many optimizer ticks flow between wall-clock checks.
OPTIMIZER_CHECK_INTERVAL = 128


@dataclass(frozen=True)
class OptimizerBudget:
    """Task budget for cost-based optimization.

    ``max_rule_applications`` bounds total transformation-rule
    applications across all memo variants of one query;
    ``max_memo_groups`` bounds the number of groups any single memo may
    create.  Both defaults sit far above what the TPC-H workload needs
    while still stopping a combinatorial blow-up in seconds.
    """

    max_rule_applications: int = 200_000
    max_memo_groups: int = 10_000


@dataclass
class QueryStats:
    """Observable per-query execution statistics (``QueryResult.stats``).

    ``rows_examined``/``peak_rows_buffered``/``rule_applications``/
    ``memo_groups`` are only collected when the query ran under a
    governor (``governed`` is True); they read 0 otherwise.
    """

    elapsed_seconds: float = 0.0
    degraded: bool = False
    fallback_reason: Optional[str] = None
    governed: bool = False
    rows_examined: int = 0
    peak_rows_buffered: int = 0
    rule_applications: int = 0
    memo_groups: int = 0
    timeout: Optional[float] = None
    row_budget: Optional[int] = None
    memory_budget: Optional[int] = None
    #: Worst per-node Q-error observed by the feedback loop for this
    #: execution; ``None`` when the query ran without profiling.
    max_q_error: Optional[float] = None

    #: Wire-format field names, frozen: the server protocol and the
    #: EXPLAIN ANALYZE dict output both embed :meth:`as_dict` verbatim,
    #: so renaming a field is a protocol change, not a refactor.
    FIELDS = ("elapsed_seconds", "degraded", "fallback_reason", "governed",
              "rows_examined", "peak_rows_buffered", "rule_applications",
              "memo_groups", "timeout", "row_budget", "memory_budget",
              "max_q_error")

    def as_dict(self) -> dict:
        """JSON-safe snapshot under the frozen :data:`FIELDS` names."""
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryStats":
        """Rebuild stats from :meth:`as_dict` output (wire round-trip).

        Unknown keys are ignored so newer servers can talk to older
        clients; missing keys keep their defaults for the converse.
        """
        known = {k: v for k, v in payload.items() if k in cls.FIELDS}
        return cls(**known)


class ResourceGovernor:
    """Cooperative limits for one query.

    * ``timeout`` — wall-clock seconds covering optimization *and*
      execution (the clock starts at :meth:`start`);
    * ``row_budget`` — total rows examined: base-table rows scanned or
      seeked plus rows delivered to the result;
    * ``memory_budget`` — maximum rows buffered *simultaneously* by
      blocking operators (sort inputs, hash-join build sides,
      aggregation groups, segment spools);
    * ``optimizer_budget`` — an :class:`OptimizerBudget` for the
      cost-based search.

    A governor is single-query state; create a fresh one per execution
    (``Database.execute`` does this from its keyword arguments).
    """

    __slots__ = ("timeout", "row_budget", "memory_budget",
                 "optimizer_budget", "rows_examined", "rows_buffered",
                 "peak_rows_buffered", "rule_applications", "memo_groups",
                 "_check_interval", "_deadline", "_started_at",
                 "_since_deadline_check")

    def __init__(self, timeout: Optional[float] = None,
                 row_budget: Optional[int] = None,
                 memory_budget: Optional[int] = None,
                 optimizer_budget: Optional[OptimizerBudget] = None,
                 check_interval: int = DEFAULT_CHECK_INTERVAL) -> None:
        if timeout is not None and timeout < 0:
            raise ValueError("timeout must be non-negative")
        for name, value in (("row_budget", row_budget),
                            ("memory_budget", memory_budget)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1")
        self.timeout = timeout
        self.row_budget = row_budget
        self.memory_budget = memory_budget
        self.optimizer_budget = optimizer_budget or OptimizerBudget()
        self.rows_examined = 0
        self.rows_buffered = 0
        self.peak_rows_buffered = 0
        self.rule_applications = 0
        self.memo_groups = 0
        # Tight budgets deserve prompt verdicts: never batch past them.
        interval = max(1, check_interval)
        for budget in (row_budget, memory_budget):
            if budget is not None:
                interval = min(interval, max(1, budget))
        self._check_interval = interval
        self._deadline: Optional[float] = None
        self._started_at: Optional[float] = None
        self._since_deadline_check = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the wall clock (idempotent)."""
        if self._started_at is None:
            self._started_at = time.monotonic()
            if self.timeout is not None:
                self._deadline = self._started_at + self.timeout

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    @property
    def check_interval(self) -> int:
        return self._check_interval

    # -- checks ------------------------------------------------------------------

    def check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise QueryTimeout(self.timeout, self.elapsed())

    def consume_rows(self, n: int = 1) -> None:
        """Account for ``n`` rows examined; enforce budget and deadline."""
        self.rows_examined += n
        if self.row_budget is not None and \
                self.rows_examined > self.row_budget:
            raise ResourceExhausted("row", self.row_budget,
                                    self.rows_examined)
        self._since_deadline_check += n
        if self._since_deadline_check >= self._check_interval:
            self._since_deadline_check = 0
            self.check_deadline()

    def hold_rows(self, n: int = 1) -> None:
        """Account for ``n`` rows entering an in-memory buffer."""
        self.rows_buffered += n
        if self.rows_buffered > self.peak_rows_buffered:
            self.peak_rows_buffered = self.rows_buffered
        if self.memory_budget is not None and \
                self.rows_buffered > self.memory_budget:
            raise ResourceExhausted("memory", self.memory_budget,
                                    self.rows_buffered)

    def release_rows(self, n: int) -> None:
        """Account for ``n`` rows leaving an in-memory buffer."""
        self.rows_buffered -= n
        if self.rows_buffered < 0:  # defensive: never go negative
            self.rows_buffered = 0

    def tick_optimizer(self) -> None:
        """One optimizer task (rule application); enforce the budget."""
        self.rule_applications += 1
        limit = self.optimizer_budget.max_rule_applications
        if self.rule_applications > limit:
            raise OptimizerBudgetExceeded("rule-application", limit)
        if self.rule_applications % OPTIMIZER_CHECK_INTERVAL == 0:
            self.check_deadline()

    def note_memo_groups(self, count: int) -> None:
        """Record a memo's group count; enforce the group cap."""
        if count > self.memo_groups:
            self.memo_groups = count
        limit = self.optimizer_budget.max_memo_groups
        if count > limit:
            raise OptimizerBudgetExceeded("memo-group", limit)

    # -- iterator instrumentation -------------------------------------------------

    def guard(self, iterable: Iterable[tuple]) -> Iterator[tuple]:
        """Yield from ``iterable`` while metering rows examined.

        Rows are pulled in ``check_interval`` chunks (``islice`` runs at
        C speed) and charged per chunk, so the per-row Python overhead is
        a bare generator resume.  A chunk is charged as soon as it is
        pulled — before its rows are yielded — which means a consumer
        that stops early may be charged for up to one prefetched chunk;
        tight budgets shrink the chunk size (see ``__init__``), keeping
        the overshoot bounded by the budget itself.
        """
        interval = self._check_interval
        it = iter(iterable)
        while True:
            batch = list(islice(it, interval))
            if not batch:
                return
            self.consume_rows(len(batch))
            yield from batch

    def guard_scan(self, rows) -> Iterator[tuple]:
        """Meter a base-table scan.

        Stored tables are in-memory sequences, so their cardinality is
        known at open time.  When it fits the remaining row budget the
        whole scan is charged up front and the raw (C-speed) iterator is
        returned — no per-row wrapper at all, which is what keeps
        governed scans within a few percent of ungoverned ones.  A scan
        that may overrun the budget, or a source of unknown size, is
        metered incrementally through :meth:`guard` instead, so budget
        verdicts stay exact.  The up-front charge can overcount when a
        consumer stops early (e.g. LIMIT), but never produces a false
        budget trip on the scan itself.
        """
        try:
            n = len(rows)
        except TypeError:
            return self.guard(rows)
        if self.row_budget is not None and \
                self.rows_examined + n > self.row_budget:
            return self.guard(rows)
        self.consume_rows(n)
        return iter(rows)

    def hold_iter(self, iterable: Iterable[tuple]) -> Iterator[tuple]:
        """Yield from ``iterable`` while metering rows buffered.

        Same chunked pulling as :meth:`guard`.  The caller owns the
        release: it knows when its buffer dies and how many rows it
        retained (``release_rows``).
        """
        interval = self._check_interval
        it = iter(iterable)
        while True:
            batch = list(islice(it, interval))
            if not batch:
                return
            self.hold_rows(len(batch))
            yield from batch

    def guard_into_list(self, iterable: Iterable[tuple]) -> list:
        """Materialize ``iterable`` into a list while metering examined
        rows per chunk — the C-speed counterpart of :meth:`guard` for
        consumers that collect the whole stream (the executor's root
        does, to detect output explosions incrementally).
        """
        out: list = []
        interval = self._check_interval
        it = iter(iterable)
        while True:
            batch = list(islice(it, interval))
            if not batch:
                return out
            self.consume_rows(len(batch))
            out.extend(batch)

    def hold_into_list(self, iterable: Iterable[tuple]) -> list:
        """Materialize ``iterable`` into a list while metering buffered
        rows per chunk.  For consumers that buffer their whole input
        anyway (sort inputs, materialized join inners) this replaces the
        per-row :meth:`hold_iter` wrapper with C-speed ``islice`` +
        ``extend``, at identical budget granularity.  The caller still
        owns the release of ``len(result)`` rows.
        """
        out: list = []
        interval = self._check_interval
        it = iter(iterable)
        while True:
            batch = list(islice(it, interval))
            if not batch:
                return out
            self.hold_rows(len(batch))
            out.extend(batch)

    # -- reporting ---------------------------------------------------------------

    def fill_stats(self, stats: QueryStats) -> None:
        stats.governed = True
        stats.rows_examined = self.rows_examined
        stats.peak_rows_buffered = self.peak_rows_buffered
        stats.rule_applications = self.rule_applications
        stats.memo_groups = self.memo_groups
        stats.timeout = self.timeout
        stats.row_budget = self.row_budget
        stats.memory_budget = self.memory_budget
