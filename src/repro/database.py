"""Public facade: an embedded SQL engine running the paper's pipeline.

``Database`` owns a catalog and in-memory storage and executes SQL through
parse → bind (algebrize) → normalize (decorrelate) → cost-based optimize →
physical execution.  Two rules keep it a facade:

* **one compile pipeline** — :meth:`Database._compile` is the only place a
  statement is parsed, bound, normalized, verified and optimized.
  ``execute`` and ``prepare`` cache its result, ``EXPLAIN`` renders it,
  ``plan`` returns its plan, and ``EXPLAIN ANALYZE`` *is* ``execute``
  with a profile;
* **one DDL applier** — a catalog change is a record: live DDL validates,
  logs it and applies it through the function WAL replay and checkpoint
  loading use (:mod:`repro.recovery`).

Re-exported here: modes and engines (:mod:`repro.modes`),
:class:`QueryResult` and parameter binding (:mod:`repro.result`),
:class:`ExplainOptions` (:mod:`repro.explain`).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Iterable, Sequence

from .algebra import DataType, Get, RelationalOp, collect_nodes
from .analysis import PlanAnalyzer
from .binder import Binder
from .catalog import Catalog, ColumnDef, IndexDef, TableDef
from .catalog.catalog import index_def_to_dict
from .catalog.statistics import CorrectionStore
from .concurrency import TrackedLock, TrackedRLock
from .core.normalize import normalize
from .core.optimizer import Estimator, Optimizer
from .durability import DEFAULT_CHECKPOINT_BYTES, DurabilityManager
from .errors import (BindError, CatalogError, DurabilityError,
                     ExecutionError, InjectedFault,
                     OptimizerBudgetExceeded, PlanError, ReproError)
from .executor import NaiveInterpreter
from .executor.physical import PhysicalExecutor
from .executor.vector_expressions import split_conjuncts
from .executor.vectorized import DEFAULT_BATCH_SIZE, VectorizedExecutor
from .explain import ExplainOptions, explain_options, render
from .feedback import DEFAULT_Q_ERROR_THRESHOLD, FeedbackLoop
from .governor import OptimizerBudget, QueryStats, ResourceGovernor
from .matview import MatViewManager, canonicalize
from .modes import (CORRELATED, DECORRELATE_ONLY, NAIVE,  # noqa: F401
                    ENGINES, FULL, MODES, ExecutionMode)
from .physical import PhysicalOp
from .plancache import CachedPlan, PlanCache
from .recovery import apply_record, recover
from .result import Params, QueryResult, bind_parameters
from .sql import (MatViewStatement, Statement, classify_statement,
                  lex_query, parse)
from .storage import DEFAULT_CHUNK_ROWS, Storage
from .storage.columnar import compile_zone_filters


class PreparedStatement:
    """A statement compiled once and executed many times with new bindings.

    Obtained from :meth:`Database.prepare`.  The compiled plan lives in
    the database's plan cache; each :meth:`execute` consults the cache, so
    DDL or significant data growth between executions transparently
    triggers a replan (the handle never serves a stale plan).
    """

    def __init__(self, database: "Database", sql: str,
                 mode: ExecutionMode, engine: str = "tuple") -> None:
        self._database = database
        self.sql = sql
        self.mode = mode
        self.engine = engine
        self._statement = lex_query(sql)
        self._entry()  # compile eagerly

    def _entry(self) -> CachedPlan:
        return self._database._cached_plan(self._statement, self.mode,
                                           engine=self.engine)

    @property
    def parameters(self) -> tuple:
        """The statement's parameter markers, in slot order."""
        return self._entry().parameters

    @property
    def names(self) -> list[str]:
        """Output column names."""
        return list(self._entry().names)

    @property
    def plan(self) -> PhysicalOp | None:
        """The cached physical plan (``None`` in naive mode)."""
        return self._entry().plan

    def execute(self, params: Params = None, *,
                timeout: float | None = None,
                row_budget: int | None = None,
                memory_budget: int | None = None,
                optimizer_budget: OptimizerBudget | None = None,
                governor: ResourceGovernor | None = None) -> QueryResult:
        return self._database.execute(
            self._statement, self.mode, params, timeout=timeout,
            row_budget=row_budget, memory_budget=memory_budget,
            optimizer_budget=optimizer_budget, governor=governor,
            engine=self.engine)

    def explain(self, *, options: ExplainOptions | None = None,
                analyze: bool = False, costs: bool = False,
                format: str = "text",
                params: Params = None) -> "str | dict":
        """Explain this statement (see :meth:`Database.explain`).

        ``analyze=True`` executes the statement once with per-operator
        row counting; pass ``params`` for statements with parameter
        markers.
        """
        return self._database._explain(
            self._statement, self.mode,
            explain_options(options, analyze, costs, format),
            self.engine, params)

    def __repr__(self) -> str:
        return (f"PreparedStatement({self.sql!r}, mode={self.mode.name}, "
                f"engine={self.engine})")


class Database:
    """An embedded SQL database running the paper's optimizer pipeline."""

    def __init__(self, plan_cache_capacity: int = 128,
                 default_engine: str = "tuple",
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 plan_cache_shards: int = 1,
                 feedback: bool = False,
                 q_error_threshold: float = DEFAULT_Q_ERROR_THRESHOLD,
                 path: str | None = None,
                 fsync: bool = True,
                 checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS
                 ) -> None:
        if default_engine not in ENGINES:
            raise ValueError(
                f"unknown execution engine {default_engine!r}; "
                f"expected one of: {', '.join(ENGINES)}")
        self.catalog = Catalog()
        self.storage = Storage(chunk_rows=chunk_rows)
        self._binder = Binder(self.catalog)
        self._executor = PhysicalExecutor(self.storage)
        self._vectorized = VectorizedExecutor(self.storage,
                                              batch_size=batch_size)
        self.default_engine = default_engine
        #: Runtime cardinality observations (repro.feedback); consulted
        #: by every optimizer this database builds.
        self.corrections = CorrectionStore(row_count_of=self._row_count)
        self.feedback = FeedbackLoop(self.corrections, self._row_count,
                                     q_error_threshold=q_error_threshold)
        #: When True, every execution counts actual rows per operator
        #: and feeds them back through :attr:`feedback`.  Off by default:
        #: ungoverned execution stays at zero profiling overhead, and
        #: ``EXPLAIN ANALYZE`` profiles its one execution regardless.
        self.feedback_enabled = feedback
        # ``plan_cache_shards=1`` keeps exact global LRU order (the
        # single-threaded default); more shards trade that order for
        # less lock contention between concurrent sessions.
        self.plan_cache = PlanCache(plan_cache_capacity,
                                    row_count_of=self._row_count,
                                    validator=self._plan_admissible,
                                    shards=plan_cache_shards)
        self._sessions_lock = TrackedLock("db.sessions")
        self._open_sessions: set[str] = set()
        #: Materialized views (repro.matview): lifecycle, transparent
        #: rewrite and per-commit incremental maintenance.  The storage
        #: hook makes every transactional install fold its deltas into
        #: affected view backings within the same snapshot swap.
        self.matviews = MatViewManager(self)
        self.storage.matviews = self.matviews
        # -- durability (repro.durability) -----------------------------
        # ``path=None`` (the default) is a purely in-memory database:
        # no file is ever touched and nothing below runs.  With a path,
        # recovery rebuilds the committed state from checkpoint + WAL
        # *before* the first query, then every commit logs-and-fsyncs
        # ahead of its in-memory install (``Storage.wal``) and every DDL
        # logs ahead of its catalog change (:attr:`_ddl_lock`).
        self.path = path
        self._durability: DurabilityManager | None = None
        self._ddl_lock: TrackedRLock = TrackedRLock("db.ddl")
        if path is not None:
            manager = DurabilityManager(path, fsync=fsync,
                                        checkpoint_bytes=checkpoint_bytes)
            try:
                recover(self, manager)
            except BaseException:
                manager.close()
                raise
            self._durability = manager
            self._ddl_lock = manager.ddl_lock
            self.storage.wal = manager

    # -- DDL / DML ---------------------------------------------------------------

    def _apply_ddl(self, record: dict, contents: Sequence[tuple] = ()):
        """Log → apply, the second half of every catalog change.  The
        caller holds :attr:`_ddl_lock` and has validated ``record``: a
        doomed change logs nothing, and because the lock spans log and
        apply, no commit can reference an object whose creation record
        trails it in the WAL."""
        if self._durability is not None:
            self._durability.log_ddl(record)
        return apply_record(self.catalog, self.storage, record, contents)

    def _ddl_applied(self) -> None:
        self.plan_cache.invalidate()
        self._maybe_checkpoint()

    def create_table(self, name: str,
                     columns: Sequence[tuple],
                     primary_key: Sequence[str] = (),
                     unique_keys: Sequence[Sequence[str]] = ()) -> TableDef:
        """Create a table.

        ``columns`` is a sequence of ``(name, DataType)`` or
        ``(name, DataType, nullable)`` tuples.
        """
        defs = []
        for spec in columns:
            if len(spec) == 2:
                defs.append(ColumnDef(spec[0], spec[1]))
            else:
                defs.append(ColumnDef(spec[0], spec[1], spec[2]))
        table = TableDef(name, defs, primary_key, unique_keys)
        with self._ddl_lock:
            if self.catalog.has_table(name):
                raise CatalogError(f"table {name!r} already exists")
            if self.catalog.has_view(name):
                raise CatalogError(f"{name!r} already names a view")
            table = self._apply_ddl({"kind": "create_table",
                                     "table": table.to_dict()})
        self.corrections.invalidate(name)
        self._ddl_applied()
        return table

    def create_index(self, index_name: str, table_name: str,
                     column_names: Sequence[str],
                     kind: str = "hash") -> IndexDef:
        index = IndexDef(index_name, table_name, tuple(column_names), kind)
        with self._ddl_lock:
            if self.catalog.has_index(index_name):
                raise CatalogError(f"index {index_name!r} already exists")
            table = self.catalog.get_table(table_name)
            for col in index.column_names:
                if not table.has_column(col):
                    raise CatalogError(
                        f"index column {col!r} not in table {table.name!r}")
            index = self._apply_ddl({"kind": "create_index",
                                     "index": index_def_to_dict(index)})
        self._ddl_applied()
        return index

    def create_view(self, name: str, sql: str) -> None:
        """Create a view: a named query expanded (and then normalized and
        optimized) wherever it is referenced.  The definition is validated
        immediately by binding it once."""
        bound = self._binder.bind(parse(sql))  # validate eagerly
        if bound.parameters:
            raise BindError(
                "view definitions cannot contain parameters")
        with self._ddl_lock:
            if self.catalog.has_view(name):
                raise CatalogError(f"view {name!r} already exists")
            if self.catalog.has_table(name):
                raise CatalogError(f"{name!r} already names a table")
            self._apply_ddl({"kind": "create_view", "name": name,
                             "sql": sql})
        self._ddl_applied()

    def drop_view(self, name: str) -> None:
        with self._ddl_lock:
            if not self.catalog.has_view(name):
                raise CatalogError(f"unknown view {name!r}")
            self._apply_ddl({"kind": "drop_view", "name": name})
        self._ddl_applied()

    def drop_table(self, name: str) -> None:
        """Drop a table, its storage, its indexes — and cascade-drop any
        materialized view defined over it (a view whose base is gone can
        never be maintained or refreshed again)."""
        with self._ddl_lock:
            if self.catalog.has_matview(name):
                raise CatalogError(
                    f"{name!r} is a materialized view; use DROP "
                    "MATERIALIZED VIEW")
            if not self.catalog.has_table(name):
                raise CatalogError(f"unknown table {name!r}")
            for viewdef in self.catalog.matviews_on(name):
                self.matviews.drop(getattr(viewdef, "name"))
            self._apply_ddl({"kind": "drop_table", "name": name})
        self.corrections.invalidate(name)
        self._ddl_applied()

    def table_names(self) -> list[str]:
        return [t.name for t in self.catalog.tables()]

    def table_statistics(self, name: str):
        """Current statistics for a stored table (recomputed lazily)."""
        return self.storage.get(name).statistics()

    def insert(self, table_name: str,
               rows: Iterable[Sequence[Any] | dict]) -> int:
        """Autocommit batch insert (copy-on-write: all-or-nothing, and
        concurrent snapshot readers never see a partial batch).  On a
        durable database the batch is logged and fsynced before it is
        installed."""
        self._reject_matview_insert(table_name)
        count = self.storage.apply_insert(table_name, rows)
        self._maybe_checkpoint()
        return count

    def _reject_matview_insert(self, table_name: str) -> None:
        if self.catalog.has_matview(table_name):
            raise CatalogError(
                f"cannot insert into materialized view {table_name!r}; "
                "its contents are maintained automatically")

    # -- durability ----------------------------------------------------------------

    @property
    def durable(self) -> bool:
        """True when this database persists to disk (``path=`` given)."""
        return self._durability is not None

    def durability_status(self) -> dict | None:
        """Durability observability (``None`` for in-memory databases):
        WAL size, next LSN, last checkpoint and the recovery report."""
        if self._durability is None:
            return None
        return self._durability.status()

    def checkpoint(self, force: bool = True) -> bool:
        """Checkpoint now: serialize the current state and rotate the
        WAL.  Returns True when a checkpoint was published (``force=
        False`` applies the size trigger; a busy writer lock makes the
        attempt a no-op either way).  Raises
        :class:`~repro.errors.DurabilityError` on an in-memory database.
        """
        if self._durability is None:
            raise DurabilityError(
                "checkpoint requires a durable database "
                "(Database(path=...))")
        return self._durability.checkpoint(self, force=force)

    def close(self) -> None:
        """Release durability file handles.  Safe to call repeatedly and
        a no-op in-memory.  Deliberately does not checkpoint: the WAL
        already holds every committed change and recovery replays it."""
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _maybe_checkpoint(self) -> None:
        """Size-triggered checkpoint, called after commit paths.  An
        injected ``wal.checkpoint`` fault aborts the rotation but never
        the triggering commit — the commit is already durable in the
        WAL, and the previous checkpoint + intact log remain the
        authoritative recovery source."""
        if self._durability is None or not self._durability.checkpoint_due:
            return
        try:
            self._durability.checkpoint(self)
        except InjectedFault:
            pass

    # -- queries -------------------------------------------------------------------

    def execute(self, sql: "str | Statement",
                mode: ExecutionMode | str = FULL,
                params: Params = None, *,
                timeout: float | None = None,
                row_budget: int | None = None,
                memory_budget: int | None = None,
                optimizer_budget: OptimizerBudget | None = None,
                governor: ResourceGovernor | None = None,
                engine: str | None = None,
                snapshot=None,
                use_matviews: bool = True) -> QueryResult:
        """Execute ``sql``, binding ``params`` to its parameter markers.

        Plans are served from :attr:`plan_cache`: re-executing the same
        statement text (modulo whitespace and keyword case) skips parse,
        bind, normalization and optimization entirely.  ``mode`` accepts
        an :class:`ExecutionMode` or its name (``"full"``, ``"naive"``,
        ...).  ``engine`` selects the runtime — ``"tuple"`` (iterator) or
        ``"vectorized"`` (batch-at-a-time columnar); it defaults to the
        database's :attr:`default_engine` and does not affect results,
        only how the chosen physical plan is evaluated.

        Resource governance: ``timeout`` (wall-clock seconds, covering
        optimization and execution), ``row_budget`` (rows examined),
        ``memory_budget`` (rows buffered in flight) and
        ``optimizer_budget`` build a per-query
        :class:`~repro.governor.ResourceGovernor`; alternatively pass a
        pre-built ``governor``.  Timeout and budget violations raise
        :class:`~repro.errors.QueryTimeout` /
        :class:`~repro.errors.ResourceExhausted`.  Optimizer failures
        (budget exhaustion, plan errors, injected faults) never fail the
        query: execution degrades to a heuristic plan — ultimately to
        naive interpretation — and the result is flagged via
        ``QueryResult.degraded`` and ``QueryResult.stats``.

        ``snapshot`` pins the data the query reads: pass a
        :class:`~repro.storage.table.StorageSnapshot` (or any object with
        a compatible ``get``) and execution resolves every table from it
        instead of live storage.  Sessions use this for snapshot
        isolation; plans and the plan cache are unaffected (a plan is
        data-version agnostic).

        ``use_matviews=False`` forces the statement to run against base
        tables even when a materialized view matches.

        ``CREATE MATERIALIZED VIEW name AS select``, ``DROP MATERIALIZED
        VIEW name`` and ``REFRESH MATERIALIZED VIEW name`` are routed to
        :attr:`matviews` and return a one-row status result.

        The text is lexed once, here; a caller that already holds the
        :class:`~repro.sql.Statement` (sessions, prepared statements)
        passes it in place of the text.
        """
        resolved = self._resolve_mode(mode)
        resolved_engine = self._resolve_engine(engine)
        statement = (sql if isinstance(sql, Statement)
                     else classify_statement(sql))
        if statement.matview is not None:
            return self._execute_matview_ddl(statement.matview)
        gov = governor
        if gov is None and (timeout is not None or row_budget is not None
                            or memory_budget is not None
                            or optimizer_budget is not None):
            gov = ResourceGovernor(timeout=timeout, row_budget=row_budget,
                                   memory_budget=memory_budget,
                                   optimizer_budget=optimizer_budget)
        started = time.monotonic()
        if gov is not None:
            gov.start()
        if statement.explain:
            # SQL-level EXPLAIN [ANALYZE]: the unified explain path, its
            # rendering returned as a one-column result.
            rendered = self._explain(
                statement, resolved,
                ExplainOptions(analyze=statement.analyze),
                resolved_engine, params, gov, snapshot, use_matviews)
            return QueryResult(["plan"],
                               [(line,) for line in rendered.split("\n")],
                               [DataType.VARCHAR])
        # ``analyze`` without ``explain`` is :meth:`_explain` calling
        # back: run profiled and hand the profile to the renderer.
        analyze = statement.analyze
        entry = self._cached_plan(statement, resolved, gov,
                                  resolved_engine, use_matviews, snapshot)
        # The token stream and key are garbage once the plan is in hand:
        # dropped before execution, so a long query does not carry a
        # statement's worth of young objects through every collection.
        del statement
        if entry.matview_name is not None:
            self.matviews.note_rewrite()
        values = bind_parameters(entry.parameters, params)
        degraded = entry.degraded
        reason = entry.fallback_reason
        profile: dict[Any, int] | None = (
            {} if analyze or (self.feedback_enabled
                              and entry.plan is not None)
            else None)
        try:
            rows = self._run_entry(entry, values, gov, snapshot, profile)
        except InjectedFault as fault:
            # The physical executor died on an injected infrastructure
            # fault before any row reached the caller (results are fully
            # materialized): re-run on the independent naive interpreter.
            degraded = True
            reason = f"executor fault: {fault}"
            profile = None  # partial counts from the dead run are noise
            rows = self._run_naive(entry.rel, values, gov, snapshot)
        stats = QueryStats(elapsed_seconds=time.monotonic() - started,
                           degraded=degraded, fallback_reason=reason)
        if gov is not None:
            gov.fill_stats(stats)
        if profile:
            observed = self.feedback.record(entry, profile)
            if observed is not None:
                stats.max_q_error = observed.max_q_error
        result = QueryResult(list(entry.names), rows, entry.types,
                             degraded=degraded, stats=stats)
        if analyze:
            result.profiled = (entry, profile or {})
        return result

    def _execute_matview_ddl(self,
                             statement: MatViewStatement) -> QueryResult:
        if statement.kind == "create":
            self.matviews.create(statement.name, statement.sql)
            message = f"created materialized view {statement.name}"
        elif statement.kind == "drop":
            self.matviews.drop(statement.name)
            message = f"dropped materialized view {statement.name}"
        else:
            self.matviews.refresh(statement.name)
            message = f"refreshed materialized view {statement.name}"
        return QueryResult(["status"], [(message,)], [DataType.VARCHAR])

    def _run_entry(self, entry: CachedPlan, values: tuple,
                   gov: ResourceGovernor | None,
                   snapshot=None,
                   profile: dict[Any, int] | None = None) -> list[tuple]:
        if entry.executable is None:
            # Naive mode, or a degraded entry whose fallback plan could
            # not be built: interpret the bound logical tree directly.
            return self._run_naive(entry.rel, values, gov, snapshot,
                                   profile)
        return self._executor_for(entry.engine).run_prepared(
            entry.executable, values, gov, storage=snapshot,
            profile=profile)

    def _executor_for(self, engine: str):
        return self._vectorized if engine == "vectorized" else self._executor

    def _run_naive(self, rel: RelationalOp, values: tuple,
                   gov: ResourceGovernor | None,
                   snapshot=None,
                   profile: dict[Any, int] | None = None) -> list[tuple]:
        source = snapshot if snapshot is not None else self.storage
        interpreter = NaiveInterpreter(
            lambda name: source.get(name).rows, governor=gov,
            profile=profile)
        return interpreter.run(rel, values)

    def prepare(self, sql: str,
                mode: ExecutionMode | str = FULL,
                engine: str | None = None) -> PreparedStatement:
        """Compile ``sql`` once for repeated execution with fresh bindings."""
        return PreparedStatement(self, sql, self._resolve_mode(mode),
                                 self._resolve_engine(engine))

    # -- sessions ------------------------------------------------------------------

    def session(self, lock_timeout: float = 5.0,
                default_mode: ExecutionMode | str = FULL,
                default_engine: str | None = None):
        """Open a :class:`~repro.server.sessions.Session` on this database.

        Sessions provide begin/commit/rollback with copy-on-write
        snapshot isolation and are safe to use from one thread each;
        any number of sessions may run concurrently.
        """
        from .server.sessions import Session  # deferred: avoid cycle
        return Session(self, lock_timeout=lock_timeout,
                       default_mode=self._resolve_mode(default_mode),
                       default_engine=self._resolve_engine(default_engine))

    def _register_session(self, session_id: str) -> None:
        with self._sessions_lock:
            self._open_sessions.add(session_id)

    def _deregister_session(self, session_id: str) -> None:
        with self._sessions_lock:
            self._open_sessions.discard(session_id)

    @property
    def open_session_count(self) -> int:
        with self._sessions_lock:
            return len(self._open_sessions)

    def _resolve_engine(self, engine: str | None) -> str:
        if engine is None:
            return self.default_engine
        if engine not in ENGINES:
            raise ValueError(
                f"unknown execution engine {engine!r}; "
                f"expected one of: {', '.join(ENGINES)}")
        return engine

    def _resolve_mode(self, mode: ExecutionMode | str) -> ExecutionMode:
        if isinstance(mode, ExecutionMode):
            return mode
        try:
            return MODES[mode]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown execution mode {mode!r}; expected an "
                f"ExecutionMode or one of: "
                f"{', '.join(sorted(MODES))}") from None

    def _cached_plan(self, statement: Statement, mode: ExecutionMode,
                     gov: ResourceGovernor | None = None,
                     engine: str = "tuple",
                     allow_rewrite: bool = True,
                     snapshot=None) -> CachedPlan:
        """The compiled form of ``statement``, from cache or built fresh
        by :meth:`_compile`.

        Fault-tolerant: a failing plan-cache lookup is a cache miss and a
        failing insertion is skipped.  Degraded entries are returned but
        never admitted to the cache, so one optimizer hiccup cannot pin a
        bad plan for future queries.

        Rewrite-enabled and rewrite-disabled compilations of the same
        text cache under distinct mode keys (``"<mode>"`` vs
        ``"<mode>#raw"``): a ``use_matviews=False`` execution must never
        be served a view-scanning plan.  The key depends only on what
        the caller *requested* — never on whether views currently exist,
        which a concurrent DROP/CREATE cycle can flip between sampling
        it and consulting the cache; keying on that racy state once let
        a raw lookup land on a rewritten entry.  Only ``#raw`` entries
        are guaranteed view-free, which the ``snapshot`` guard below
        relies on: a pinned snapshot may predate the view, so when the
        backing table is not resolvable from it the statement is
        recompiled against base tables instead of failing mid-execution.
        """
        mode_key = mode.name if allow_rewrite else mode.name + "#raw"
        try:
            entry = self.plan_cache.get(statement.key, mode_key,
                                        self.catalog.version, engine)
        except InjectedFault:
            entry = None
        if entry is None:
            entry = self._compile(statement, mode, gov, engine, mode_key,
                                  allow_rewrite
                                  and self.catalog.has_matviews())
            if not entry.degraded:
                try:
                    self.plan_cache.put(entry)
                except InjectedFault:
                    pass  # uncached, but the compiled entry is still good
        if entry.matview_name is not None and snapshot is not None:
            try:
                snapshot.get(entry.matview_name)
            except ReproError:
                return self._cached_plan(statement, mode, gov, engine,
                                         allow_rewrite=False)
        return entry

    def _compile(self, statement: Statement, mode: ExecutionMode,
                 gov: ResourceGovernor | None, engine: str,
                 mode_key: str, rewriting: bool) -> CachedPlan:
        """The one compile pipeline: parse → bind (→ materialized-view
        substitution when ``rewriting``) → normalize → verify → optimize
        → prepare for ``engine``.  A cost-based-optimizer failure
        degrades to a fallback plan (:meth:`_degraded_plan`) instead of
        failing the statement.  What EXPLAIN shows beside the plan (the
        normalized tree, the cost) stays on the entry, so it draws
        exactly what ``execute`` runs."""
        bound, fingerprint, matview_name, rewritten_sql = \
            self._bind_with_rewrite(statement, rewriting)
        table_names = frozenset(
            get.table_name.lower()
            for get in collect_nodes(bound.rel,
                                     lambda n: isinstance(n, Get)))
        if fingerprint is not None:
            table_names |= {fingerprint.table}
        normalized = plan = executable = cost = reason = None
        if not mode.use_naive_interpreter:
            # Normalization runs outside the fallback ladder: its errors
            # (e.g. the plan-depth cap) also doom the fallback tiers.
            normalized = normalize(bound.rel, mode.normalize_config)
            analyzer = PlanAnalyzer.for_admission(self._index_provider)
            try:
                if analyzer is not None:
                    analyzer.check_logical(normalized,
                                           stage="admission:logical")
                costed = self._optimizer(mode, gov).optimize_with_cost(
                    normalized)
                plan, cost = costed.plan, costed.cost
                executable = self._executor_for(engine).prepare(plan)
                if analyzer is not None:
                    analyzer.check_physical(plan,
                                            stage="admission:physical")
            except (PlanError, OptimizerBudgetExceeded, InjectedFault,
                    ExecutionError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                cost = None
                plan, executable = self._degraded_plan(mode, normalized,
                                                       engine)
        return CachedPlan(
            sql_key=statement.key,
            mode_name=mode_key,
            catalog_version=self.catalog.version,
            engine=engine,
            names=list(bound.names),
            types=bound.column_types,
            parameters=bound.parameters,
            plan=plan,
            rel=bound.rel,
            executable=executable,
            snapshot=self.plan_cache.capture_snapshot(table_names),
            table_names=table_names,
            degraded=reason is not None,
            fallback_reason=reason,
            matview_name=matview_name,
            rewritten_sql=rewritten_sql,
            fingerprint=fingerprint,
            normalized=normalized,
            cost=cost)

    def _bind_with_rewrite(self, statement: Statement, rewriting: bool):
        """Bind ``statement``; when rewriting, try to substitute a
        matching materialized view.

        Returns ``(bound, fingerprint, matview_name, rewritten_sql)``.
        The substitution is accepted only when the rewritten query binds
        to the *identical* output schema and parameter list — any
        discrepancy falls back to the original binding, so the rewrite
        can degrade silently but never change results.
        """
        parsed = parse(statement.sql, tokens=statement.tokens)
        bound = self._binder.bind(parsed)
        fingerprint = canonicalize(parsed)
        if (not rewriting or fingerprint is None
                or not fingerprint.aggregates):
            return bound, fingerprint, None, None
        candidate = self.matviews.rewrite_candidate(fingerprint)
        if candidate is None:
            return bound, fingerprint, None, None
        view_name, rewritten = candidate
        try:
            rebound = self._binder.bind(parse(rewritten))
        except ReproError:
            return bound, fingerprint, None, None
        if (list(rebound.names) != list(bound.names)
                or rebound.column_types != bound.column_types
                or rebound.parameters != bound.parameters):
            return bound, fingerprint, None, None
        return rebound, fingerprint, view_name, rewritten

    def _degraded_plan(self, mode: ExecutionMode, normalized: RelationalOp,
                       engine: str = "tuple"
                       ) -> tuple[PhysicalOp | None, Any]:
        """Fallback tiers after a cost-based-optimizer failure.

        First a heuristic plan (the normalized tree implemented with no
        exploration and no budgets); if even that fails, ``(None, None)``
        selects naive interpretation of the bound tree — an independent
        code path that cannot share the optimizer's failure mode.  Each
        tier is statically verified before being accepted, so a fallback
        never smuggles in a plan the primary tier would have rejected.
        """
        analyzer = PlanAnalyzer.for_admission(self._index_provider)
        try:
            plan = self._optimizer(mode).heuristic_plan(normalized)
            executable = self._executor_for(engine).prepare(plan)
            if analyzer is not None:
                analyzer.check_physical(plan, stage="fallback:heuristic")
            return plan, executable
        except (PlanError, OptimizerBudgetExceeded, InjectedFault,
                ExecutionError):
            return None, None

    def _row_count(self, table_name: str) -> int:
        try:
            return len(self.storage.get(table_name).rows)
        except ReproError:
            return 0

    def _plan_admissible(self, entry: CachedPlan) -> bool:
        """Plan-cache admission gate: entries that fail static
        verification are refused (never cached), independently of the
        louder per-stage checks in :meth:`_cached_plan`."""
        analyzer = PlanAnalyzer.for_admission(self._index_provider)
        if analyzer is None:
            return True
        return analyzer.admissible(entry.rel, entry.plan)

    def explain(self, sql: str, mode: ExecutionMode | str = FULL,
                *, options: ExplainOptions | None = None,
                analyze: bool = False, costs: bool = False,
                format: str = "text", engine: str | None = None,
                params: Params = None) -> "str | dict":
        """The query's plan — estimated, and with ``analyze`` also actual.

        The default renders the normalized logical tree and the chosen
        physical plan as text — the plan ``execute`` would run, so a
        materialized-view substitution or a degradation rung shows up
        here too.  ``costs=True`` appends the optimizer's estimated cost
        (arbitrary work units) and estimated output rows.
        ``analyze=True`` *executes the query once*, counting actual rows
        per operator, and annotates every plan node with estimated rows,
        actual rows and their Q-error; the observation is also fed into
        the database's feedback loop.  ``format="dict"`` returns JSON-safe
        nested dicts instead of text (node keys: ``op``,
        ``estimated_rows``, ``actual_rows``, ``q_error``, ``children``).
        All settings can be bundled in an :class:`ExplainOptions` via
        ``options=``, which the other explain entry points share.
        """
        return self._explain(lex_query(sql), self._resolve_mode(mode),
                             explain_options(options, analyze, costs,
                                             format),
                             engine, params)

    def _explain(self, statement: Statement, mode: ExecutionMode,
                 options: ExplainOptions, engine: str | None,
                 params: Params, gov: ResourceGovernor | None = None,
                 snapshot=None,
                 use_matviews: bool = True) -> "str | dict":
        """Render the entry ``execute`` would run under the same
        governor, read view and rewrite policy; with ``options.analyze``
        run it, through :meth:`execute` itself, and annotate the run."""
        engine = self._resolve_engine(engine)
        result = None
        if options.analyze:
            result = self.execute(
                replace(statement, explain=False, analyze=True), mode,
                params, governor=gov, engine=engine, snapshot=snapshot,
                use_matviews=use_matviews)
            entry = result.profiled[0]
        else:
            entry = self._cached_plan(statement, mode, gov, engine,
                                      use_matviews, snapshot)
        return render(entry, statement.sql, mode.name, options,
                      Estimator(self._stats_provider,
                                corrections=self.corrections), result)

    def plan(self, sql: str,
             mode: ExecutionMode | str = FULL) -> PhysicalOp | None:
        """The physical plan a fresh compilation of ``sql`` chooses
        (``None`` when the mode or the degradation ladder ends in naive
        interpretation)."""
        mode = self._resolve_mode(mode)
        return self._compile(
            lex_query(sql), mode, None, self.default_engine, mode.name,
            self.catalog.has_matviews()).plan

    def _optimizer(self, mode: ExecutionMode,
                   gov: ResourceGovernor | None = None) -> Optimizer:
        return Optimizer(self._stats_provider, self._index_provider,
                         mode.optimizer_config, governor=gov,
                         corrections=self.corrections,
                         zone_provider=self._zone_skip_rows)

    # -- optimizer services ------------------------------------------------------

    def _stats_provider(self, table_name: str):
        try:
            return self.storage.get(table_name).statistics()
        except ReproError:
            return None

    def _index_provider(self, table_name: str) -> list[tuple[str, ...]]:
        try:
            table = self.catalog.get_table(table_name)
        except ReproError:
            return []
        candidates = [tuple(key) for key in table.all_keys()]
        for index in self.catalog.indexes_on(table_name):
            candidates.append(tuple(index.column_names))
        return candidates

    def _zone_skip_rows(self, table_name: str, predicate,
                        scan_columns) -> float:
        """Rows the chunk zone maps prove unreachable for ``predicate``
        — the optimizer's zone provider (literal conjuncts only; at
        plan time parameter values are unknown)."""
        try:
            table = self.storage.get(table_name)
        except ReproError:
            return 0.0
        layout = {c.cid: i for i, c in enumerate(scan_columns)}
        prunes = compile_zone_filters(split_conjuncts(predicate), layout,
                                      allow_params=False)
        if not prunes:
            return 0.0
        no_params: dict = {}
        skipped = 0
        for unit in table.scan_units():
            if any(fn(unit.zones, no_params) for fn in prunes):
                skipped += unit.nrows
        return float(skipped)
