"""Iterator-based physical plan executor.

``PhysicalExecutor.prepare`` compiles a physical plan once — expressions
become closures, layouts become position maps — and returns an executable
whose ``rows(ctx)`` can be iterated many times (crucial for the inner side
of ``PNLApply``, which re-opens per outer row).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Any, Callable, Iterator, Sequence

from .. import faultinject
from ..algebra.aggregates import descriptor
from ..algebra.columns import Column
from ..algebra.relational import JoinKind
from ..algebra.scalar import AggregateCall, ScalarExpr, parameter_slot
from ..errors import ExecutionError, SubqueryReturnedMultipleRows
from ..physical.plan import (PConstantScan, PDifference, PFilter,
                             PHashAggregate, PHashJoin, PIndexSeek,
                             PMax1row, PNestedLoopsJoin, PNLApply, PProject,
                             PScalarAggregate, PSegmentApply, PSegmentRef,
                             PSort, PStreamAggregate, PTableScan, PTop,
                             PUnionAll, PhysicalOp, apply_bindings_key,
                             outer_references)
from ..storage.table import Storage
from .expressions import build_layout, compile_expr
from .naive import _SortValue


class ExecutionContext:
    """Per-run mutable state: correlation parameters, current segments,
    the optional per-query resource governor, and the storage view the
    run reads from."""

    __slots__ = ("params", "segments", "governor", "storage", "profile")

    def __init__(self, governor=None, storage=None, profile=None) -> None:
        self.params: dict[int, Any] = {}
        #: Current segment per SegmentRef column set: a list of row
        #: tuples under the tuple engine, a columnar Batch under the
        #: vectorized engine (each engine only reads what it wrote).
        self.segments: dict[frozenset[int], Any] = {}
        #: ResourceGovernor | None — checked cooperatively by operators.
        self.governor = governor
        #: Where leaf operators resolve tables *at open time*: the live
        #: :class:`~repro.storage.table.Storage` or a pinned
        #: :class:`~repro.storage.table.StorageSnapshot`.  Run-time
        #: resolution is what makes one cached executable serve both the
        #: latest data and any session snapshot.
        self.storage = storage
        #: ``dict[int, int] | None`` — actual rows produced per plan
        #: node, keyed by ``id(node)``.  ``None`` (the default) disables
        #: row counting entirely; EXPLAIN ANALYZE and feedback-enabled
        #: executions pass a dict (see repro.feedback).
        self.profile = profile


class _Executable:
    """A prepared operator: ``rows(ctx)`` yields output tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Callable[[ExecutionContext], Iterator[tuple]]):
        self.rows = rows


def _count_rows(source: Iterator[tuple], profile: dict,
                key: int) -> Iterator[tuple]:
    """Count the rows flowing out of one operator into ``profile[key]``.

    The count lands in the ``finally`` so early-terminated consumers
    (Top, Max1row, semi-join probes) still record the rows they actually
    pulled before closing the iterator.
    """
    n = 0
    try:
        for row in source:
            n += 1
            yield row
    finally:
        profile[key] = profile.get(key, 0) + n


def _profiled(inner: Callable[[ExecutionContext], Iterator[tuple]],
              key: int) -> Callable[[ExecutionContext], Iterator[tuple]]:
    """Wrap a prepared ``rows(ctx)`` callable with per-node row counting.

    With profiling off (``ctx.profile is None`` — the default) the cost
    per operator *open* is one extra call and one attribute test; the
    raw iterator is returned untouched, so the per-row path is
    completely unchanged.
    """
    def rows(ctx: ExecutionContext) -> Iterator[tuple]:
        profile = ctx.profile
        if profile is None:
            return inner(ctx)
        return _count_rows(inner(ctx), profile, key)
    return rows


class PhysicalExecutor:
    """Executes physical plans against a storage engine.

    ``aggregate_spill_threshold`` bounds the in-memory group count of hash
    aggregation: when exceeded, the current partial states are flushed as
    a run and recombined at the end via the aggregates' *local/global*
    merge — the paper's footnote 3 ("the implementation ... requires this
    ability of splitting an aggregate into local and global components, if
    it has to spill data to disk and then recombine it").  ``None``
    disables spilling (all groups stay in memory).
    """

    def __init__(self, storage: Storage,
                 aggregate_spill_threshold: int | None = None) -> None:
        self._storage = storage
        self._spill_threshold = aggregate_spill_threshold

    def run(self, plan: PhysicalOp,
            params: Sequence[Any] | None = None,
            governor=None) -> list[tuple]:
        return self.run_prepared(self.prepare(plan), params, governor)

    def run_prepared(self, executable: _Executable,
                     params: Sequence[Any] | None = None,
                     governor=None, storage=None,
                     profile: dict | None = None) -> list[tuple]:
        """Execute a prepared plan, optionally binding query parameters.

        ``params`` is a sequence in slot order; slot ``i`` is published to
        expression evaluation under ``parameter_slot(i)`` so one compiled
        plan can run under many bindings.  With a ``governor`` the run is
        metered cooperatively: result rows count against the row budget
        (catching output explosions above any guarded operator) and the
        deadline gets a final deterministic check even for empty results.
        ``storage`` overrides where table scans and seeks resolve their
        data — pass a pinned snapshot to run against it; the executor's
        live storage is the default.  ``profile`` (a dict) enables
        per-node actual-row counting for EXPLAIN ANALYZE and the
        cardinality-feedback loop; counts accumulate keyed by plan-node
        id.
        """
        faultinject.hit("executor.open")
        ctx = ExecutionContext(
            governor, storage if storage is not None else self._storage,
            profile)
        if params is not None:
            for i, value in enumerate(params):
                ctx.params[parameter_slot(i)] = value
        if governor is None:
            return list(executable.rows(ctx))
        governor.start()
        rows = governor.guard_into_list(executable.rows(ctx))
        governor.check_deadline()
        return rows

    # -- preparation ------------------------------------------------------------

    def prepare(self, plan: PhysicalOp) -> _Executable:
        method = getattr(self, "_prepare_" + type(plan).__name__, None)
        if method is None:
            raise ExecutionError(
                f"no executor for physical operator {type(plan).__name__}")
        executable = method(plan)
        executable.rows = _profiled(executable.rows, id(plan))
        return executable

    def _prepare_PTableScan(self, plan: PTableScan) -> _Executable:
        name = plan.table_name
        which = self._storage.get(name).positions(plan.columns)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            scanned = ctx.storage.get(name).row_view(which)
            governor = ctx.governor
            if governor is None:
                return iter(scanned)
            return governor.guard_scan(scanned)
        return _Executable(rows)

    def _prepare_PIndexSeek(self, plan: PIndexSeek) -> _Executable:
        resolve = index_resolver(self._storage, plan,
                                 lambda expr: compile_expr(expr, {}))
        which = self._storage.get(plan.table_name).positions(plan.columns)
        residual = (compile_expr(plan.residual, build_layout(plan.columns))
                    if plan.residual is not None else None)
        empty = ()

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            table, index, key_fns = resolve(ctx.storage)
            governor = ctx.governor
            params = ctx.params
            positions = index.lookup(
                tuple([fn(empty, params) for fn in key_fns]))
            if governor is not None and positions:
                governor.consume_rows(len(positions))
            columns = table.columns_at(positions, which)
            for row in (zip(*columns) if columns
                        else itertools.repeat((), len(positions))):
                if residual is None or residual(row, params) is True:
                    yield row
        return _Executable(rows)

    def _prepare_PConstantScan(self, plan: PConstantScan) -> _Executable:
        data = list(plan.rows)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            return iter(data)
        return _Executable(rows)

    def _prepare_PSegmentRef(self, plan: PSegmentRef) -> _Executable:
        key = frozenset(c.cid for c in plan.columns)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            try:
                return iter(ctx.segments[key])
            except KeyError:
                raise ExecutionError(
                    "segment reference outside SegmentApply") from None
        return _Executable(rows)

    def _prepare_PFilter(self, plan: PFilter) -> _Executable:
        child = self.prepare(plan.child)
        predicate = compile_expr(plan.predicate,
                                 build_layout(plan.child.columns))

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            for row in child.rows(ctx):
                if predicate(row, params) is True:
                    yield row
        return _Executable(rows)

    def _prepare_PProject(self, plan: PProject) -> _Executable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        fns = [compile_expr(e, layout) for _, e in plan.items]

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            for row in child.rows(ctx):
                yield tuple(fn(row, params) for fn in fns)
        return _Executable(rows)

    def _prepare_PHashJoin(self, plan: PHashJoin) -> _Executable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_keys = [compile_expr(e, left_layout) for e in plan.left_keys]
        right_keys = [compile_expr(e, right_layout) for e in plan.right_keys]
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        residual = (compile_expr(plan.residual, combined_layout)
                    if plan.residual is not None else None)
        kind = plan.kind
        pad = (None,) * len(plan.right.columns)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            governor = ctx.governor
            table: dict[tuple, list[tuple]] = {}
            built = 0      # build-side rows charged to the memory budget
            pending = 0    # charged in batches to keep the hot loop cheap
            for row in right.rows(ctx):
                key = tuple(fn(row, params) for fn in right_keys)
                if any(part is None for part in key):
                    continue
                table.setdefault(key, []).append(row)
                if governor is not None:
                    pending += 1
                    if pending >= 1024:
                        governor.hold_rows(pending)
                        built += pending
                        pending = 0
            if governor is not None and pending:
                governor.hold_rows(pending)
                built += pending
            try:
                for row in left.rows(ctx):
                    key = tuple(fn(row, params) for fn in left_keys)
                    bucket = (table.get(key, ())
                              if not any(p is None for p in key) else ())
                    yield from _loop_join_row(row, bucket, residual, params,
                                              kind, pad)
            finally:
                if governor is not None:
                    governor.release_rows(built)
        return _Executable(rows)

    def _prepare_PNestedLoopsJoin(self, plan: PNestedLoopsJoin) -> _Executable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        predicate = (compile_expr(plan.predicate, combined_layout)
                     if plan.predicate is not None else None)
        kind = plan.kind
        pad = (None,) * len(plan.right.columns)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            governor = ctx.governor
            if governor is None:
                materialized = list(right.rows(ctx))
            else:
                materialized = governor.hold_into_list(right.rows(ctx))
            try:
                for row in left.rows(ctx):
                    yield from _loop_join_row(row, materialized, predicate,
                                              params, kind, pad)
            finally:
                if governor is not None:
                    governor.release_rows(len(materialized))
        return _Executable(rows)

    def _prepare_PNLApply(self, plan: PNLApply) -> _Executable:
        """The correlated nested loop: per left row, evaluate the guard,
        bind the columns the inner side references as parameters,
        re-open the inner side and join."""
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        referenced = outer_references(plan.right)
        bindings = [(cid, position) for cid, position in left_layout.items()
                    if cid in referenced]
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        predicate = (compile_expr(plan.predicate, combined_layout)
                     if plan.predicate is not None else None)
        guard = (compile_expr(plan.guard, left_layout)
                 if plan.guard is not None else None)
        kind = plan.kind
        pad = (None,) * len(plan.right.columns)
        executions_key = apply_bindings_key(plan)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            governor = ctx.governor
            # Cooperative checks per outer row: correlated loops can spin
            # for a long time without touching a guarded scan.  Charged
            # in small batches so the per-row cost is an integer add.
            interval = min(64, governor.check_interval) if governor else 0
            pending = 0
            executions = 0
            try:
                for row in left.rows(ctx):
                    if governor is not None:
                        pending += 1
                        if pending >= interval:
                            governor.consume_rows(pending)
                            pending = 0
                    if guard is not None and guard(row, params) is not True:
                        yield row + pad  # §2.4: inner side never evaluated
                        continue
                    for cid, position in bindings:
                        params[cid] = row[position]
                    executions += 1
                    yield from _loop_join_row(row, right.rows(ctx),
                                              predicate, params, kind, pad)
            finally:
                profile = ctx.profile
                if profile is not None:
                    # How often the inner side ran: feedback divides the
                    # inner nodes' cumulative actuals by it
                    # (repro.feedback).
                    profile[executions_key] = (
                        profile.get(executions_key, 0) + executions)
                if pending:
                    governor.consume_rows(pending)
        return _Executable(rows)

    def _prepare_PHashAggregate(self, plan: PHashAggregate) -> _Executable:
        return self._prepare_grouped(plan.child, plan.group_columns,
                                     plan.aggregates)

    def _prepare_PStreamAggregate(self, plan: PStreamAggregate) -> _Executable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        group_positions = [layout[c.cid] for c in plan.group_columns]
        folder = _AggregateFolder(plan.aggregates, layout)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            current_key: tuple | None = None
            states = None
            any_rows = False
            for row in child.rows(ctx):
                any_rows = True
                key = tuple(row[p] for p in group_positions)
                if key != current_key:
                    if states is not None:
                        yield current_key + folder.finalize(states)
                    current_key = key
                    states = folder.initial()
                folder.step(states, row, params)
            if any_rows and states is not None:
                yield current_key + folder.finalize(states)
        return _Executable(rows)

    def _prepare_grouped(self, child_plan: PhysicalOp,
                         group_columns: Sequence[Column],
                         aggregates) -> _Executable:
        child = self.prepare(child_plan)
        layout = build_layout(child_plan.columns)
        group_positions = [layout[c.cid] for c in group_columns]
        folder = _AggregateFolder(aggregates, layout)
        # Distinct aggregates track seen-value sets that cannot be merged
        # across spilled runs without double counting; they pin the groups
        # in memory (real engines sort instead).
        spill_threshold = (self._spill_threshold
                           if not folder.has_distinct else None)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            governor = ctx.governor
            held = 0
            runs: list[dict[tuple, Any]] = []
            groups: dict[tuple, Any] = {}
            try:
                for row in child.rows(ctx):
                    key = tuple(row[p] for p in group_positions)
                    states = groups.get(key)
                    if states is None:
                        if spill_threshold is not None and \
                                len(groups) >= spill_threshold:
                            runs.append(groups)  # flush partial aggregates
                            groups = {}
                        states = folder.initial()
                        groups[key] = states
                        # Memory scales with distinct groups, not input
                        # rows: charge the budget per group state.
                        if governor is not None:
                            governor.hold_rows(1)
                            held += 1
                    folder.step(states, row, params)
                if runs:
                    runs.append(groups)
                    groups = {}
                    for run in runs:
                        for key, states in run.items():
                            existing = groups.get(key)
                            if existing is None:
                                groups[key] = states
                            else:
                                folder.merge_into(existing, states)
                for key, states in groups.items():
                    yield key + folder.finalize(states)
            finally:
                if governor is not None:
                    governor.release_rows(held)
        return _Executable(rows)

    def _prepare_PScalarAggregate(self, plan: PScalarAggregate) -> _Executable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        folder = _AggregateFolder(plan.aggregates, layout)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            states = folder.initial()
            for row in child.rows(ctx):
                folder.step(states, row, params)
            yield folder.finalize(states)
        return _Executable(rows)

    def _prepare_PSort(self, plan: PSort) -> _Executable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        compiled = [(compile_expr(e, layout), asc) for e, asc in plan.keys]

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            params = ctx.params
            governor = ctx.governor

            def sort_key(row: tuple):
                return [_SortValue(fn(row, params), asc)
                        for fn, asc in compiled]
            if governor is None:
                return iter(sorted(child.rows(ctx), key=sort_key))

            def governed() -> Iterator[tuple]:
                data = governor.hold_into_list(child.rows(ctx))
                data.sort(key=sort_key)
                try:
                    yield from data
                finally:
                    governor.release_rows(len(data))
            return governed()
        return _Executable(rows)

    def _prepare_PTop(self, plan: PTop) -> _Executable:
        child = self.prepare(plan.child)
        count = plan.count
        offset = plan.offset

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            return itertools.islice(child.rows(ctx), offset,
                                    offset + count)
        return _Executable(rows)

    def _prepare_PTopN(self, plan) -> _Executable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        compiled = [(compile_expr(e, layout), asc) for e, asc in plan.keys]
        keep = plan.count + plan.offset

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            if keep == 0:
                return iter(())
            params = ctx.params

            def sort_key(row: tuple):
                return [_SortValue(fn(row, params), asc)
                        for fn, asc in compiled]

            # The best ``keep`` rows of the stable sort, in a bounded heap
            # (``nsmallest`` is ``sorted(...)[:keep]``, ties included).
            return iter(heapq.nsmallest(keep, child.rows(ctx),
                                        key=sort_key)[plan.offset:])
        return _Executable(rows)

    def _prepare_PMax1row(self, plan: PMax1row) -> _Executable:
        child = self.prepare(plan.child)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            produced = 0
            for row in child.rows(ctx):
                produced += 1
                if produced > 1:
                    raise SubqueryReturnedMultipleRows()
                yield row
        return _Executable(rows)

    def _prepare_PUnionAll(self, plan: PUnionAll) -> _Executable:
        prepared = []
        for source, imap in zip(plan.inputs, plan.input_maps):
            layout = build_layout(source.columns)
            positions = [layout[c.cid] for c in imap]
            prepared.append((self.prepare(source), positions))

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            for source, positions in prepared:
                for row in source.rows(ctx):
                    yield tuple(row[p] for p in positions)
        return _Executable(rows)

    def _prepare_PDifference(self, plan: PDifference) -> _Executable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_positions = [left_layout[c.cid] for c in plan.left_map]
        right_positions = [right_layout[c.cid] for c in plan.right_map]

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            remaining: Counter = Counter()
            for row in right.rows(ctx):
                remaining[tuple(row[p] for p in right_positions)] += 1
            for row in left.rows(ctx):
                key = tuple(row[p] for p in left_positions)
                if remaining[key] > 0:
                    remaining[key] -= 1
                    continue
                yield key
        return _Executable(rows)

    def _prepare_PSegmentApply(self, plan: PSegmentApply) -> _Executable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        seg_positions = [left_layout[c.cid] for c in plan.segment_columns]
        ref_key = frozenset(c.cid for c in plan.inner_columns)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            governor = ctx.governor
            segments: dict[tuple, list[tuple]] = {}
            order: list[tuple] = []
            held = 0
            source = (left.rows(ctx) if governor is None
                      else governor.hold_iter(left.rows(ctx)))
            for row in source:
                key = tuple(row[p] for p in seg_positions)
                bucket = segments.get(key)
                if bucket is None:
                    bucket = []
                    segments[key] = bucket
                    order.append(key)
                bucket.append(row)
                held += 1
            previous = ctx.segments.get(ref_key)
            try:
                for key in order:
                    ctx.segments[ref_key] = segments[key]
                    for inner_row in right.rows(ctx):
                        yield key + inner_row
            finally:
                if previous is None:
                    ctx.segments.pop(ref_key, None)
                else:
                    ctx.segments[ref_key] = previous
                if governor is not None:
                    governor.release_rows(held)
        return _Executable(rows)


def index_resolver(storage: Storage, plan: PIndexSeek,
                   compile_key: Callable[[ScalarExpr], Any]
                   ) -> Callable[[Any], tuple]:
    """``resolve(storage)``: ``(table, index, key_fns)`` for the version
    of ``plan``'s table that ``storage`` holds — the index on the seek's
    key columns and its key expressions, compiled by ``compile_key``, in
    the index's column order.  Shared by every engine's seek.

    Table versions are immutable once installed, so the resolution is
    memoized per version as one atomically swapped triple: concurrent
    runs over different snapshots stay consistent because each reads the
    triple it resolved.  The index is checked eagerly against
    ``storage`` and again for each new version."""
    name = plan.table_name
    names = [c.name for c in plan.key_columns]

    def lookup_index(table):
        index = table.key_lookup_index(names)
        if index is None:
            raise ExecutionError(f"no index on {name}({', '.join(names)})")
        return index

    table = storage.get(name)
    lookup_index(table)
    fn_for = {table.definition.column_index(c.name): compile_key(e)
              for c, e in zip(plan.key_columns, plan.key_exprs)}
    resolved: tuple = (None, None, None)

    def resolve(storage) -> tuple:
        nonlocal resolved
        table = storage.get(name)
        current = resolved
        if current[0] is not table:
            index = lookup_index(table)
            current = resolved = (table, index,
                                  [fn_for[p] for p in index.positions])
        return current
    return resolve


def _loop_join_row(row: tuple, inner_rows, predicate, params,
                   kind: JoinKind, pad: tuple) -> Iterator[tuple]:
    if kind is JoinKind.INNER:
        for match in inner_rows:
            combined = row + match
            if predicate is None or predicate(combined, params) is True:
                yield combined
    elif kind is JoinKind.LEFT_OUTER:
        matched = False
        for match in inner_rows:
            combined = row + match
            if predicate is None or predicate(combined, params) is True:
                matched = True
                yield combined
        if not matched:
            yield row + pad
    elif kind is JoinKind.LEFT_SEMI:
        for match in inner_rows:
            if predicate is None or predicate(row + match, params) is True:
                yield row
                return
    else:  # LEFT_ANTI
        for match in inner_rows:
            if predicate is None or predicate(row + match, params) is True:
                return
        yield row


class _AggregateFolder:
    """Shared fold machinery for hash/stream/scalar aggregation."""

    def __init__(self, aggregates: Sequence[tuple[Column, AggregateCall]],
                 layout) -> None:
        self._specs = []
        self.has_distinct = False
        for _, call in aggregates:
            desc = descriptor(call.func)
            argument = (compile_expr(call.argument, layout)
                        if call.argument is not None else None)
            self._specs.append((desc, argument, call.distinct))
            self.has_distinct = self.has_distinct or call.distinct

    def initial(self) -> list:
        return [(desc.initial(), set() if distinct else None)
                for desc, _, distinct in self._specs]

    def step(self, states: list, row: tuple, params) -> None:
        for i, (desc, argument, distinct) in enumerate(self._specs):
            value = argument(row, params) if argument is not None else None
            state, seen = states[i]
            if seen is not None:
                if value in seen:
                    continue
                seen.add(value)
            states[i] = (desc.step(state, value), seen)

    def merge_into(self, target: list, other: list) -> None:
        """Combine spilled partial states (never used with distinct)."""
        for i, (desc, _, _) in enumerate(self._specs):
            state, seen = target[i]
            other_state, _ = other[i]
            target[i] = (desc.merge(state, other_state), seen)

    def finalize(self, states: list) -> tuple:
        return tuple(desc.final(state)
                     for (desc, _, _), (state, _)
                     in zip(self._specs, states))
