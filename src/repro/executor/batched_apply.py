"""Batched Apply: set-oriented execution of ``NLApply`` inner sides.

The paper removes most correlation at normalization time, but exception
subqueries (``Max1row``), CASE-guarded subqueries and index-lookup joins
keep ``Apply`` in the final plan (Sections 2.4-2.5).  The tuple engine
runs such a plan literally: bind one outer row, re-open the inner plan,
repeat.  This module is how the vectorized engine runs the *same
physical plan* one outer batch at a time (Guravannavar's batched
bindings, which is the paper's own Apply-removal identity applied at run
time to one batch of parameter values):

1. evaluate the Section 2.4 ``guard`` over the outer batch; guarded-out
   rows contribute no binding;
2. project the columns the inner side actually references
   (:func:`~repro.physical.plan.outer_references`) and de-duplicate them
   — each distinct binding gets an *ordinal*; nothing survives the
   batch, so memory is bounded by one outer batch;
3. run the inner plan **once** through operators that carry the binding
   ordinal as a leading column: ``params[cid]`` holds one value per
   distinct binding, and a correlated column reference compiles to a
   gather through the ordinal (:func:`.vector_expressions.compile_vector`
   with ``bound``);
4. stitch the inner rows back to the outer rows by ordinal for the
   inner / left-outer / semi / anti kinds, evaluating the residual
   predicate over all candidate pairs at once.

Every batched operator returns a single :class:`~.vectorized.Batch`
whose rows are sorted by ordinal and, within one ordinal, in exactly the
order the tuple engine would have produced them — so the stitched output
is bit-identical to the tuple engine's.

Which plans batch is decided at prepare time from the plan shape alone:
:func:`compile_batched_apply` returns ``None`` when any operator of the
inner side has no batched form, and the vectorized engine then runs the
whole statement on the tuple engine.  Batched forms exist for
``PIndexSeek``, ``PFilter``, ``PProject``, ``PTableScan`` (under a
filter with a correlated equality, or under an uncorrelated Apply), the
three aggregates, ``PTopN``/``PSort``/``PTop``/``PMax1row``,
``PUnionAll`` and nested ``PNLApply``.  A semi/anti Apply
stops pulling its inner side at the first match; its inner side batches
only when that early stop is observable at its root alone — a chain of
``PProject``/``PMax1row`` ending in an index seek or a blocking operator.

Accounting is *logical*: profile row counts and governor charges are
what the tuple engine would have recorded — a de-duplicated binding
counts once per outer row sharing it (:attr:`Bindings.weights`).  The one
documented exception is below a per-ordinal ``PTop``, whose child is
counted as drained, like everywhere else in the vectorized engine.

Errors are not handled here.  An inner run evaluates every binding of
its outer batch and every inner row of a semi probe, which is more than
a row-at-a-time run reaches, so it may raise (a division by zero,
``Max1row``'s violation) where the tuple engine would not.  The
statement then re-runs on the tuple engine
(:meth:`~.vectorized.VectorizedExecutor.run_prepared`), which decides.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate
from typing import Callable, Optional, Sequence

from ..algebra.relational import JoinKind
from ..algebra.scalar import Comparison, ScalarExpr, conjuncts
from ..errors import SubqueryReturnedMultipleRows
from ..physical.plan import (PFilter, PHashAggregate, PIndexSeek, PMax1row,
                             PNLApply, PProject, PScalarAggregate, PSort,
                             PStreamAggregate, PTableScan, PTop, PTopN,
                             PUnionAll, PhysicalOp, apply_bindings_key,
                             outer_references)
from ..storage.table import Storage, StoredTable
from .physical import ExecutionContext, index_resolver
from .vector_expressions import CompiledVector, compile_vector
from .vectorized import (Batch, _aggregate_specs, _GroupStates,
                         _rank_function, _select, compile_predicate,
                         compile_residual, filter_batch,
                         hash_aggregate_batches, match_rows,
                         stream_aggregate_batches, take_batch)


class Bindings:
    """The distinct parameter bindings of one outer batch.

    Ordinals are ``range(count)``; the binding values themselves live in
    ``ctx.params[cid]`` as one list per bound column.  ``weights[o]`` is
    the number of (logical) outer rows sharing ordinal ``o`` — ``None``
    when every binding stands for exactly one, and always ``None`` when
    nothing meters the run.  ``executions`` is how many times the tuple
    engine would have opened the inner side for this batch.
    """

    __slots__ = ("count", "weights", "executions")

    def __init__(self, count: int, weights: Optional[list[int]],
                 executions: int) -> None:
        self.count = count
        self.weights = weights
        self.executions = executions


#: A prepared inner operator: all bindings in, one ordinal-led batch out.
BatchedOp = Callable[[ExecutionContext, Bindings], Batch]

#: ``process(ctx, outer_batch, row_weights)``: one outer batch through a
#: batched Apply; ``None`` when no row comes out.
ApplyBatch = Callable[[ExecutionContext, Batch, Optional[list[int]]],
                      Optional[Batch]]


class _Unbatchable(Exception):
    """Raised at prepare time: this plan has no batched form, so its
    statement runs on the tuple engine."""


def compile_batched_apply(storage: Storage,
                          plan: PNLApply) -> Optional[ApplyBatch]:
    """The batched form of ``plan``, or ``None`` when its inner side has
    an operator (or an early-stopping shape) without one."""
    try:
        return _compile_apply(storage, plan, frozenset(), nested=False)
    except _Unbatchable:
        return None


# -- helpers -------------------------------------------------------------------------

def _gather(column, indexes) -> list:
    return list(map(column.__getitem__, indexes))


def _empty(ncols: int) -> Batch:
    """No rows, ``ncols`` columns behind the ordinal."""
    return Batch([[] for _ in range(ncols + 1)], 0)


def _starts(ordinals: Sequence[int], count: int) -> list[int]:
    """Offsets of each ordinal's rows in an ordinal-sorted column:
    ordinal ``o`` owns ``[starts[o], starts[o + 1])``."""
    per_ordinal = [0] * count
    for ordinal, n in Counter(ordinals).items():
        per_ordinal[ordinal] = n
    return list(accumulate(per_ordinal, initial=0))


def _logical_rows(ordinals: Sequence[int], bind: Bindings) -> int:
    """Rows the tuple engine would have counted for these result rows."""
    weights = bind.weights
    if weights is None:
        return len(ordinals)
    return sum(map(weights.__getitem__, ordinals))


def _led_layout(columns, lead: int = 1) -> dict[int, int]:
    """Column id → position behind ``lead`` leading columns."""
    return {c.cid: i + lead for i, c in enumerate(columns)}


def _probe_batch(bind: Bindings) -> Batch:
    """One row per binding: expressions over bound columns only."""
    return Batch([list(range(bind.count))], bind.count)


def _fetch(table: StoredTable, hits: Sequence[Sequence[int]],
           which: list[int]) -> Batch:
    """Gather the stored columns ``which`` of the rows at
    ``hits[ordinal]`` behind their ordinal."""
    ordinals: list[int] = []
    positions: list[int] = []
    for ordinal, found in enumerate(hits):
        if found:
            ordinals.extend([ordinal] * len(found))
            positions.extend(found)
    if not positions:
        return _empty(len(which))
    return Batch([ordinals] + table.columns_at(positions, which),
                 len(positions))


def compile_index_seek(storage: Storage, plan: PIndexSeek,
                       bound: frozenset[int] = frozenset()) -> BatchedOp:
    """``plan`` probed once per binding: one ``lookup_many`` over the
    distinct bindings' keys, the hits fetched behind their ordinals and
    the residual applied.  The vectorized engine's plain seek is this
    run with one binding."""
    resolve = index_resolver(storage, plan,
                             lambda expr: compile_vector(expr, {}, bound))
    residual = (compile_predicate(conjuncts(plan.residual),
                                  _led_layout(plan.columns), bound)
                if plan.residual is not None else [])
    which = storage.get(plan.table_name).positions(plan.columns)

    def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
        table, index, key_fns = resolve(ctx.storage)
        params = ctx.params
        probe = _probe_batch(bind)
        hits = index.lookup_many(zip(*[fn(probe, params) for fn in key_fns]))
        fetched = _fetch(table, hits, which)
        if ctx.governor is not None and fetched.nrows:
            # every fetched row, before the residual, like the loop
            ctx.governor.consume_rows(_logical_rows(fetched.columns[0], bind))
        return filter_batch(fetched, residual, params)
    return run


# -- inner operators -----------------------------------------------------------------

class _InnerCompiler:
    """Prepares the operators below one batched Apply.

    ``bound`` are the column ids this Apply binds per ordinal;
    ``uncounted`` the nodes whose profile count the Apply computes itself
    (the early-stop chain of a semi/anti Apply).
    """

    def __init__(self, storage: Storage, bound: frozenset[int],
                 uncounted: frozenset[int]) -> None:
        self.storage = storage
        self.bound = bound
        self.uncounted = uncounted

    def prepare(self, plan: PhysicalOp) -> BatchedOp:
        method = getattr(self, "_prepare_" + type(plan).__name__, None)
        if method is None:
            raise _Unbatchable(type(plan).__name__)
        run = method(plan)
        if id(plan) in self.uncounted:
            return run
        key = id(plan)

        def counted(ctx: ExecutionContext, bind: Bindings) -> Batch:
            out = run(ctx, bind)
            profile = ctx.profile
            if profile is not None:
                profile[key] = (profile.get(key, 0)
                                + _logical_rows(out.columns[0], bind))
            return out
        return counted

    def _vector(self, expr: ScalarExpr, layout) -> CompiledVector:
        return compile_vector(expr, layout, self.bound)

    # -- leaves ----------------------------------------------------------------------

    def _prepare_PIndexSeek(self, plan: PIndexSeek) -> BatchedOp:
        return compile_index_seek(self.storage, plan, self.bound)

    def _prepare_PTableScan(self, plan: PTableScan) -> BatchedOp:
        if self.bound:
            # One copy of the table per binding; only a filter with a
            # correlated equality makes a scan set-oriented.
            raise _Unbatchable("table scan per binding")
        which = self.storage.get(plan.table_name).positions(plan.columns)
        name = plan.table_name

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            # Nothing is bound, so there is exactly one binding.
            table = ctx.storage.get(name)
            nrows = len(table)
            if ctx.governor is not None:
                ctx.governor.consume_rows(nrows * bind.executions)
            return Batch([[0] * nrows] + table.columns(which), nrows)
        return run

    # -- row-level operators ---------------------------------------------------------

    def _prepare_PFilter(self, plan: PFilter) -> BatchedOp:
        if isinstance(plan.child, PTableScan) and self.bound:
            return self._prepare_hash_scan(plan, plan.child)
        child = self.prepare(plan.child)
        predicate = compile_predicate(conjuncts(plan.predicate),
                                      _led_layout(plan.columns), self.bound)

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            return filter_batch(child(ctx, bind), predicate, ctx.params)
        return run

    def _prepare_hash_scan(self, plan: PFilter,
                           scan: PTableScan) -> BatchedOp:
        """A correlated equality filter over a scan: hash the bindings on
        the equality's outer side, scan the table once and probe —
        O(bindings + rows) where a per-row loop pays their product."""
        which = self.storage.get(scan.table_name).positions(scan.columns)
        name = scan.table_name
        scan_ids = {c.cid for c in scan.columns}
        pairs: list[tuple[ScalarExpr, ScalarExpr]] = []
        rest: list[ScalarExpr] = []
        for conjunct in conjuncts(plan.predicate):
            pair = _scan_equality(conjunct, scan_ids)
            if pair is None:
                rest.append(conjunct)
            else:
                pairs.append(pair)
        if not any(outer.free_columns().ids() & self.bound
                   for _, outer in pairs):
            raise _Unbatchable("no correlated equality over the scan")
        scan_layout = _led_layout(scan.columns, 0)
        scan_fns = [compile_vector(inner, scan_layout) for inner, _ in pairs]
        bind_fns = [self._vector(outer, {}) for _, outer in pairs]
        predicate = compile_predicate(rest, _led_layout(plan.columns),
                                      self.bound)
        scan_key = id(scan)

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            params = ctx.params
            table = ctx.storage.get(name)
            # The tuple engine scans the whole table once per execution.
            scanned = len(table) * bind.executions
            if ctx.governor is not None:
                ctx.governor.consume_rows(scanned)
            if ctx.profile is not None:
                ctx.profile[scan_key] = (ctx.profile.get(scan_key, 0)
                                         + scanned)
            probe = _probe_batch(bind)
            ordinals_of: dict[tuple, list[int]] = {}
            for ordinal, key in enumerate(
                    zip(*[fn(probe, params) for fn in bind_fns])):
                if None not in key:  # NULL = anything is never TRUE
                    ordinals_of.setdefault(key, []).append(ordinal)
            hits: list[list[int]] = [[] for _ in range(bind.count)]
            if ordinals_of:
                get = ordinals_of.get
                base = 0
                for unit in table.scan_units():
                    column = unit.column
                    chunk = Batch([column(p) for p in which], unit.nrows)
                    for i, key in enumerate(
                            zip(*[fn(chunk, params) for fn in scan_fns])):
                        found = get(key)
                        if found is not None:
                            for ordinal in found:
                                hits[ordinal].append(base + i)
                    base += unit.nrows
            return filter_batch(_fetch(table, hits, which), predicate,
                                params)
        return run

    def _prepare_PProject(self, plan: PProject) -> BatchedOp:
        child = self.prepare(plan.child)
        layout = _led_layout(plan.child.columns)
        fns = [self._vector(e, layout) for _, e in plan.items]

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            batch = child(ctx, bind)
            params = ctx.params
            return Batch([batch.columns[0]]
                         + [fn(batch, params) for fn in fns], batch.nrows)
        return run

    # -- aggregation -----------------------------------------------------------------

    def _prepare_PScalarAggregate(self, plan: PScalarAggregate) -> BatchedOp:
        child = self.prepare(plan.child)
        arg_fns, specs = _aggregate_specs(
            plan.aggregates, _led_layout(plan.child.columns), self.bound)

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            batch = child(ctx, bind)
            params = ctx.params
            count = bind.count
            # Exactly one row per binding, the empty group included
            # (count = 0, every other aggregate NULL).
            states = _GroupStates(specs, count)
            if batch.nrows:
                ordinals = batch.columns[0]
                states.fold([fn(batch, params) for fn in arg_fns], ordinals,
                            list(dict.fromkeys(ordinals)), batch.nrows)
            return Batch([list(range(count))] + states.finals(), count)
        return run

    def _prepare_PHashAggregate(self, plan: PHashAggregate) -> BatchedOp:
        return self._grouped(plan, hash_aggregate_batches)

    def _prepare_PStreamAggregate(self, plan: PStreamAggregate) -> BatchedOp:
        return self._grouped(plan, stream_aggregate_batches)

    def _grouped(self, plan, aggregate_batches) -> BatchedOp:
        """Vector aggregation per binding is the engine's own grouped
        fold with the ordinal as the leading group column."""
        child = self.prepare(plan.child)
        layout = _led_layout(plan.child.columns)
        group_positions = [0] + [layout[c.cid] for c in plan.group_columns]
        arg_fns, specs = _aggregate_specs(plan.aggregates, layout,
                                          self.bound)
        ncols = len(plan.columns)

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            batch = child(ctx, bind)
            if not batch.nrows:
                return _empty(ncols)
            (out,) = aggregate_batches(ctx, (batch,), group_positions,
                                       arg_fns, specs, sys.maxsize)
            return out
        return run

    # -- ordering and limits ---------------------------------------------------------

    def _prepare_PSort(self, plan: PSort) -> BatchedOp:
        return self._ordered(plan, 0, None)

    def _prepare_PTopN(self, plan: PTopN) -> BatchedOp:
        return self._ordered(plan, plan.offset, plan.count + plan.offset)

    def _ordered(self, plan, first: int, last: Optional[int]) -> BatchedOp:
        """Stable sort within each binding, keeping ranks
        ``[first, last)`` — the tuple engine's full sort and bounded
        heap both reduce to exactly that."""
        child = self.prepare(plan.child)
        layout = _led_layout(plan.child.columns)
        compiled = [(self._vector(e, layout), asc) for e, asc in plan.keys]

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            batch = child(ctx, bind)
            if not batch.nrows:
                return batch
            params = ctx.params
            rank = _rank_function(
                [(fn(batch, params), asc) for fn, asc in compiled])
            starts = _starts(batch.columns[0], bind.count)
            picked: list[int] = []
            for o in range(bind.count):
                start, stop = starts[o], starts[o + 1]
                if stop > start:
                    picked.extend(rank(start, stop)[first:last])
            return _select(batch, picked)
        return run

    def _prepare_PTop(self, plan: PTop) -> BatchedOp:
        child = self.prepare(plan.child)
        count = plan.count
        offset = plan.offset

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            batch = child(ctx, bind)
            starts = _starts(batch.columns[0], bind.count)
            picked: list[int] = []
            for o in range(bind.count):
                first = starts[o] + offset
                picked.extend(range(first,
                                    min(starts[o + 1], first + count)))
            return take_batch(batch, picked)
        return run

    def _prepare_PMax1row(self, plan: PMax1row) -> BatchedOp:
        child = self.prepare(plan.child)

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            batch = child(ctx, bind)
            ordinals = batch.columns[0]
            if len(set(ordinals)) != len(ordinals):
                # Some binding saw a second row.  Whether the tuple
                # engine reaches it is for its re-run of the statement
                # to decide (VectorizedExecutor.run_prepared).
                raise SubqueryReturnedMultipleRows()
            return batch
        return run

    # -- set operations --------------------------------------------------------------

    def _prepare_PUnionAll(self, plan: PUnionAll) -> BatchedOp:
        prepared = []
        for source, imap in zip(plan.inputs, plan.input_maps):
            layout = _led_layout(source.columns)
            prepared.append((self.prepare(source),
                             [0] + [layout[c.cid] for c in imap]))
        ncols = len(plan.columns)

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            parts = []
            for source, positions in prepared:
                batch = source(ctx, bind)
                if batch.nrows:
                    parts.append(Batch([batch.columns[p] for p in positions],
                                       batch.nrows))
            if not parts:
                return _empty(ncols)
            if len(parts) == 1:
                return parts[0]
            # Per binding: first input's rows, then the second's, ... —
            # a stable sort of the concatenation by ordinal.
            whole = _empty(ncols)
            for part in parts:
                for column, values in zip(whole.columns, part.columns):
                    column.extend(values)
                whole.nrows += part.nrows
            ordinals = whole.columns[0]
            return _select(whole, sorted(range(whole.nrows),
                                         key=ordinals.__getitem__))
        return run

    # -- nested Apply ----------------------------------------------------------------

    def _prepare_PNLApply(self, plan: PNLApply) -> BatchedOp:
        left = self.prepare(plan.left)
        process = _compile_apply(self.storage, plan, self.bound, nested=True)
        ncols = len(plan.columns)

        def run(ctx: ExecutionContext, bind: Bindings) -> Batch:
            outer = left(ctx, bind)
            if not outer.nrows:
                return _empty(ncols)
            weights = bind.weights
            out = process(ctx, outer,
                          None if weights is None
                          else _gather(weights, outer.columns[0]))
            return out if out is not None else _empty(ncols)
        return run


def _scan_equality(conjunct: ScalarExpr, scan_ids: set[int]
                   ) -> Optional[tuple[ScalarExpr, ScalarExpr]]:
    """``(scan side, outer side)`` of an equality between an expression
    over the scanned columns and one that reads none of them."""
    if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
        return None
    for inner, outer in ((conjunct.left, conjunct.right),
                         (conjunct.right, conjunct.left)):
        inner_ids = inner.free_columns().ids()
        if inner_ids and inner_ids <= scan_ids \
                and not outer.free_columns().ids() & scan_ids:
            return inner, outer
    return None


# -- the Apply itself ----------------------------------------------------------------

def _early_stop_chain(inner: PhysicalOp) -> frozenset[int]:
    """The inner nodes of a semi/anti Apply whose row counts depend on
    where the probe stops: one-to-one operators down to the first seek
    or blocking operator.  They all produce the same rows per binding,
    so the Apply can count them itself; any other shape (a filter, a
    union, a nested Apply ... in that prefix) has no batched form."""
    keys = []
    node = inner
    while True:
        keys.append(id(node))
        if isinstance(node, (PProject, PMax1row)):
            node = node.child
        elif isinstance(node, (PIndexSeek, PScalarAggregate, PHashAggregate,
                               PTopN, PSort)):
            return frozenset(keys)
        else:
            raise _Unbatchable("early stop below " + type(node).__name__)


def _compile_apply(storage: Storage, plan: PNLApply,
                   outer_bound: frozenset[int], nested: bool) -> ApplyBatch:
    """Compile ``plan`` for batched execution.

    ``nested`` Applies run inside another batched inner side: their outer
    batch leads with the enclosing ordinal (carried through like any
    other outer column) and ``outer_bound`` columns are read through it.
    """
    kind = plan.kind
    if plan.guard is not None and kind is not JoinKind.LEFT_OUTER:
        raise _Unbatchable("guard on a non-outer Apply")
    left_layout = _led_layout(plan.left.columns, 1 if nested else 0)
    combined_layout = dict(left_layout)
    n_left = len(left_layout) + (1 if nested else 0)
    for i, column in enumerate(plan.right.columns):
        combined_layout[column.cid] = n_left + i
    # What the inner side reads from outside: this Apply's own outer
    # columns, and (nested) columns the enclosing Apply bound, which are
    # re-bound under this Apply's ordinals for the inner run.
    referenced = outer_references(plan.right)
    local = sorted(cid for cid in referenced if cid in left_layout)
    rebound = sorted(cid for cid in referenced
                     if cid in outer_bound and cid not in left_layout)
    positions = [left_layout[cid] for cid in local]
    left_only = kind.left_only_output
    chain = _early_stop_chain(plan.right) if left_only else frozenset()
    right = _InnerCompiler(storage, frozenset(local + rebound),
                           chain).prepare(plan.right)
    guard = (compile_vector(plan.guard, left_layout, outer_bound)
             if plan.guard is not None else None)
    predicate = compile_residual(plan.predicate, combined_layout, outer_bound)
    n_right = len(plan.right.columns)
    executions_key = apply_bindings_key(plan)

    def process(ctx: ExecutionContext, outer: Batch,
                row_weights: Optional[list[int]]) -> Optional[Batch]:
        params = ctx.params
        governor = ctx.governor
        profile = ctx.profile
        n = outer.nrows
        if governor is not None:  # one cooperative check per outer row
            governor.consume_rows(n if row_weights is None
                                  else sum(row_weights))

        # 1. Section 2.4: rows the guard rejects never reach the inner
        #    side, so they contribute no binding.
        active: Optional[list[int]] = None
        if guard is not None:
            mask = guard(outer, params)
            kept = [i for i, v in enumerate(mask) if v is True]
            if len(kept) != n:
                active = kept
        m = n if active is None else len(active)
        if active is not None and row_weights is not None:
            row_weights = _gather(row_weights, active)
        executions = m if row_weights is None else sum(row_weights)
        if profile is not None:
            profile[executions_key] = (profile.get(executions_key, 0)
                                       + executions)

        # 2. + 3. Bind the distinct parameter values, run the inner side.
        inner: Optional[Batch] = None
        ordinal_of: Optional[list[int]] = None  # per active row
        count = m
        if m:
            columns = [outer.columns[p] for p in positions]
            for cid in rebound:
                columns.append(_gather(params[cid], outer.columns[0]))
            if active is not None:
                columns = [_gather(column, active) for column in columns]
            if not columns:
                count = 1
                if m > 1:
                    ordinal_of = [0] * m
            else:
                # Type-strict keys: 1 and 1.0 are equal but not the same
                # binding (the inner side may project the value).
                keys = list(zip(*columns,
                                *[map(type, column) for column in columns]))
                distinct = dict.fromkeys(keys)
                count = len(distinct)
                if count != m:
                    for ordinal, key in enumerate(distinct):
                        distinct[key] = ordinal
                    ordinal_of = _gather(distinct, keys)
                    columns = [list(values) for values
                               in zip(*distinct)][:len(columns)]
            weights: Optional[list[int]] = None
            if governor is not None or profile is not None:
                if ordinal_of is None:
                    weights = row_weights
                else:
                    weights = [0] * count
                    for ordinal, weight in zip(
                            ordinal_of, row_weights or [1] * m):
                        weights[ordinal] += weight
            saved = [params[cid] for cid in rebound]
            for cid, column in zip(local + rebound, columns):
                params[cid] = column
            try:
                inner = right(ctx, Bindings(count, weights, executions))
            finally:
                for cid, column in zip(rebound, saved):
                    params[cid] = column
            if governor is not None:
                # The inner result stays materialized while it is
                # stitched.  Nothing else buffers during the stitch, so
                # holding and releasing here records the same peak (and
                # trips the same memory budget) as holding across it.
                governor.hold_rows(inner.nrows)
                governor.release_rows(inner.nrows)

        # 4. Stitch inner rows back to outer rows by ordinal.
        if inner is None:
            right_cols: list[list] = [[] for _ in range(n_right)]
            buckets: list = [()] * n
        else:
            right_cols = inner.columns[1:]
            if ordinal_of is None and active is None and predicate is None:
                # Every outer row is its own binding: the ordinal column
                # *is* the outer row index.
                if kind is JoinKind.INNER:
                    if not inner.nrows:
                        return None
                    return Batch([_gather(column, inner.columns[0])
                                  for column in outer.columns] + right_cols,
                                 inner.nrows)
                if kind is JoinKind.LEFT_OUTER and inner.nrows == n \
                        and inner.columns[0] == list(range(n)):
                    return Batch(outer.columns + right_cols, n)
            starts = _starts(inner.columns[0], count)
            spans = [range(starts[o], starts[o + 1]) for o in range(count)]
            if ordinal_of is not None:
                spans = _gather(spans, ordinal_of)
            if active is None:
                buckets = spans
            else:
                buckets = [()] * n
                for i, span in zip(active, spans):
                    buckets[i] = span
        pad_index = len(right_cols[0]) if right_cols else 0
        if kind is JoinKind.LEFT_OUTER:
            right_cols = [column + [None] for column in right_cols]
        pulled: Optional[list[int]] = (
            [] if profile is not None and chain else None)
        li, ri = match_rows(kind, buckets, outer, right_cols, predicate,
                            params, pad_index, pulled)
        if pulled is not None and inner is not None:
            # The chain produced what the probes consumed before
            # stopping, not what the batch run materialized.
            consumed = (sum(pulled) if row_weights is None else
                        sum(p * w for p, w in zip(pulled, row_weights)))
            for key in chain:
                profile[key] = profile.get(key, 0) + consumed
        if not li:
            return None
        out = [_gather(column, li) for column in outer.columns]
        if not left_only:
            out += [_gather(column, ri) for column in right_cols]
        return Batch(out, len(li))

    return process
