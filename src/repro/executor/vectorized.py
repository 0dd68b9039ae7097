"""Vectorized (batch-at-a-time) physical plan executor.

The third execution engine: instead of pulling one tuple at a time
(:mod:`.physical`), operators exchange :class:`Batch` objects — a list of
column value lists plus an explicit row count — of at most ``batch_size``
rows (default 1024).  Scans slice column chunks straight off storage,
filters compact batches conjunct-by-conjunct (predicate short-circuiting
at batch granularity), hash join and hash aggregation build on column
arrays, and ``SegmentApply`` binds whole column segments (the paper's
Section 3.4 segmented execution, batched).

Correctness contract: results are *identical*, row for row, to the tuple
executor — same values (shared scalar semantics via
:mod:`.vector_expressions`), same fold order inside aggregates, same
output order.  The differential oracle (tests/test_differential.py)
enforces this across randomly generated queries and the TPC-H corpus.

Uncorrelated nested loops, full sorts and Top-N bridge to row form and
reuse the tuple executor's loops.  Correlated ``NLApply`` — what is left
of the paper's Apply after normalization, and every index nested-loops
join — runs set-at-a-time: one outer batch's distinct bindings through
the inner plan at once (:mod:`.batched_apply`); only inner plans with
an operator that has no batched form loop per outer row.

Invariants:

* operators never yield empty batches (a scan of an empty table yields
  nothing);
* column lists inside a batch are immutable by convention — operators
  share them freely (a project may return its input's column object) and
  always allocate fresh lists for new data;
* batches are *at most* ``batch_size`` rows from scans, but joins may
  emit larger batches (one output batch per probe batch).

Resource governance is cooperative like the tuple engine, charged per
batch instead of per row: scans consume their chunk sizes, hash builds /
sorts / segment buffers hold and release their materialized row counts,
and the top-level driver meters result rows batch-wise.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import (AbstractSet, Any, Callable, Iterable, Iterator, Optional,
                    Sequence)

from .. import faultinject
from ..algebra.aggregates import AggregateFunction
from ..algebra.columns import Column
from ..algebra.relational import JoinKind
from ..algebra.scalar import AggregateCall, parameter_slot
from ..errors import (ExecutionError, InjectedFault, ResourceError,
                      SubqueryReturnedMultipleRows)
from ..physical.plan import (PConstantScan, PDifference, PFilter,
                             PHashAggregate, PHashJoin, PIndexSeek,
                             PMax1row, PNestedLoopsJoin, PNLApply, PProject,
                             PScalarAggregate, PSegmentApply, PSegmentRef,
                             PSort, PStreamAggregate, PTableScan, PTop,
                             PTopN, PUnionAll, PhysicalOp,
                             apply_bindings_key)
from ..storage.columnar import ScanUnit, compile_zone_filters
from ..storage.table import Storage
from .expressions import build_layout, compile_expr
from .naive import _SortValue
from .physical import (ExecutionContext, PhysicalExecutor, _loop_join_row,
                       _TopNEntry, compile_apply_loop)
from .vector_expressions import compile_vector, split_conjuncts

DEFAULT_BATCH_SIZE = 1024


def _contains_segment_ref(plan: PhysicalOp) -> bool:
    if isinstance(plan, PSegmentRef):
        return True
    return any(_contains_segment_ref(c) for c in plan.children)


class Batch:
    """A horizontal slice of a relation in columnar form.

    ``columns[c][i]`` is row ``i``'s value for output column position
    ``c``; ``nrows`` is explicit so zero-column batches (pure-existence
    streams) keep their cardinality.
    """

    __slots__ = ("columns", "nrows")

    def __init__(self, columns: list[list], nrows: int) -> None:
        self.columns = columns
        self.nrows = nrows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({len(self.columns)} cols x {self.nrows} rows)"


def take_batch(batch: Batch, indexes: list[int]) -> Batch:
    """Select rows by position.  ``indexes`` must be strictly increasing
    (a filter mask), so a full-length selection is the identity and the
    input batch is returned unchanged."""
    if len(indexes) == batch.nrows:
        return batch
    return Batch([[col[i] for i in indexes] for col in batch.columns],
                 len(indexes))


def batch_rows(batch: Batch) -> list[tuple]:
    """The batch pivoted back to row tuples."""
    if batch.columns:
        return list(zip(*batch.columns))
    return [()] * batch.nrows


def rows_to_batches(rows: Iterator[tuple], ncols: int,
                    size: int) -> Iterator[Batch]:
    """Re-batch a row stream into column chunks of at most ``size``."""
    while True:
        chunk = list(itertools.islice(rows, size))
        if not chunk:
            return
        if ncols:
            yield Batch([list(c) for c in zip(*chunk)], len(chunk))
        else:
            yield Batch([], len(chunk))


def columns_to_batches(columns: list[list], total: int,
                       size: int) -> Iterator[Batch]:
    """Chunk materialized output columns into batches."""
    if total == 0:
        return
    if total <= size:
        yield Batch(columns, total)
        return
    for start in range(0, total, size):
        stop = min(start + size, total)
        yield Batch([col[start:stop] for col in columns], stop - start)


def _key_iter(batch: Batch, positions: list[int]):
    """Per-row key tuples over the given column positions."""
    if positions:
        return zip(*[batch.columns[p] for p in positions])
    return itertools.repeat((), batch.nrows)


def match_rows(kind: JoinKind, buckets: Sequence[Sequence[int]], lb: Batch,
               right_cols: list[list], residual, params, pad_index: int,
               pulled: Optional[list[int]] = None
               ) -> tuple[list[int], list[int]]:
    """Pair every left row of ``lb`` with its candidate right rows.

    ``buckets[i]`` holds the right-row indexes (into ``right_cols``) that
    left row ``i`` may match; ``residual`` (a compiled vector predicate
    over left columns followed by right columns, or ``None``) decides
    which candidates do.  Returns parallel index lists ``(li, ri)`` of
    the emitted pairs, left row order first, bucket order within a row —
    the order a tuple-at-a-time probe produces.  ``ri`` is meaningful
    for INNER and LEFT_OUTER only; an unmatched LEFT_OUTER row pairs
    with ``pad_index``.  Shared by the hash join (buckets from the build
    table) and the batched Apply (buckets from the binding ordinal).

    ``pulled``, when given for a SEMI/ANTI probe, receives per left row
    how many candidates a tuple-at-a-time probe would have consumed
    before stopping at its first match.
    """
    li: list[int] = []
    ri: list[int] = []
    semi = kind is JoinKind.LEFT_SEMI
    if residual is None:
        if kind is JoinKind.INNER or kind is JoinKind.LEFT_OUTER:
            outer = kind is JoinKind.LEFT_OUTER
            for i, bucket in enumerate(buckets):
                if bucket:
                    li.extend([i] * len(bucket))
                    ri.extend(bucket)
                elif outer:
                    li.append(i)
                    ri.append(pad_index)
        else:
            li = [i for i, bucket in enumerate(buckets)
                  if bool(bucket) is semi]
            if pulled is not None:
                pulled.extend([1 if bucket else 0 for bucket in buckets])
        return li, ri
    # Gather all candidate pairs, evaluate the residual once over the
    # candidate batch, then emit per left row in bucket order.
    cli: list[int] = []
    cri: list[int] = []
    bounds: list[int] = [0]
    for i, bucket in enumerate(buckets):
        if bucket:
            cli.extend([i] * len(bucket))
            cri.extend(bucket)
        bounds.append(len(cri))
    if cri:
        candidates = Batch(
            [[col[i] for i in cli] for col in lb.columns] +
            [[col[j] for j in cri] for col in right_cols],
            len(cri))
        mask = residual(candidates, params)
    else:
        mask = []
    if kind is JoinKind.INNER or kind is JoinKind.LEFT_OUTER:
        outer = kind is JoinKind.LEFT_OUTER
        for i in range(len(buckets)):
            matched = False
            for pos in range(bounds[i], bounds[i + 1]):
                if mask[pos] is True:
                    li.append(i)
                    ri.append(cri[pos])
                    matched = True
            if outer and not matched:
                li.append(i)
                ri.append(pad_index)
        return li, ri
    for i in range(len(buckets)):
        start, stop = bounds[i], bounds[i + 1]
        consumed = stop - start
        matched = False
        for pos in range(start, stop):
            if mask[pos] is True:
                matched = True
                consumed = pos - start + 1
                break
        if matched is semi:
            li.append(i)
        if pulled is not None:
            pulled.append(consumed)
    return li, ri


class _VecExecutable:
    """A prepared operator: ``batches(ctx)`` yields output batches."""

    __slots__ = ("batches",)

    def __init__(self,
                 batches: Callable[[ExecutionContext], Iterator[Batch]]):
        self.batches = batches


def _count_batches(source: Iterator[Batch], profile: dict,
                   key: int) -> Iterator[Batch]:
    """Accumulate ``batch.nrows`` per batch into ``profile[key]`` — the
    vectorized engine counts at batch granularity, never per row."""
    n = 0
    try:
        for batch in source:
            n += batch.nrows
            yield batch
    finally:
        profile[key] = profile.get(key, 0) + n


def _vec_profiled(inner: Callable[[ExecutionContext], Iterator[Batch]],
                  key: int) -> Callable[[ExecutionContext], Iterator[Batch]]:
    """Batch-engine twin of the tuple engine's ``_profiled`` wrapper:
    with ``ctx.profile`` unset the raw batch iterator is returned and
    the per-batch path is unchanged."""
    def batches(ctx: ExecutionContext) -> Iterator[Batch]:
        profile = ctx.profile
        if profile is None:
            return inner(ctx)
        return _count_batches(inner(ctx), profile, key)
    return batches


class VectorizedExecutor:
    """Executes physical plans batch-at-a-time against a storage engine.

    Accepts exactly the plans the tuple executor accepts and produces
    identical row lists; only the evaluation shape differs.  No spilling:
    hash aggregation keeps all groups in memory (the tuple engine is the
    spill-capable path).
    """

    def __init__(self, storage: Storage,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ExecutionError("batch_size must be at least 1")
        self._storage = storage
        self._batch_size = batch_size
        # Row-engine sibling for the per-row Apply path: inner plans
        # with no batched form, and the replay of a batch whose batched
        # inner raised (see _prepare_PNLApply).
        self._row_executor = PhysicalExecutor(storage)

    # -- driving ----------------------------------------------------------------

    def run(self, plan: PhysicalOp,
            params: Sequence[Any] | None = None,
            governor=None) -> list[tuple]:
        return self.run_prepared(self.prepare(plan), params, governor)

    def run_prepared(self, executable: _VecExecutable,
                     params: Sequence[Any] | None = None,
                     governor=None, storage=None,
                     profile: dict | None = None) -> list[tuple]:
        """Execute a prepared plan; same contract as the tuple engine's
        ``run_prepared`` (slot-ordered ``params``, cooperative governor,
        rows returned as tuples, optional ``storage`` view override,
        optional per-node ``profile`` row counting)."""
        faultinject.hit("executor.open.vectorized")
        ctx = ExecutionContext(
            governor, storage if storage is not None else self._storage,
            profile)
        if params is not None:
            for i, value in enumerate(params):
                ctx.params[parameter_slot(i)] = value
        out: list[tuple] = []
        if governor is None:
            for batch in executable.batches(ctx):
                out.extend(batch_rows(batch))
            return out
        governor.start()
        for batch in executable.batches(ctx):
            governor.consume_rows(batch.nrows)
            out.extend(batch_rows(batch))
        governor.check_deadline()
        return out

    # -- preparation ------------------------------------------------------------

    def prepare(self, plan: PhysicalOp) -> _VecExecutable:
        method = getattr(self, "_prepare_" + type(plan).__name__, None)
        if method is None:
            raise ExecutionError(
                f"no vectorized executor for physical operator "
                f"{type(plan).__name__}")
        executable = method(plan)
        executable.batches = _vec_profiled(executable.batches, id(plan))
        return executable

    # -- leaves -----------------------------------------------------------------

    def _prepare_PTableScan(self, plan: PTableScan) -> _VecExecutable:
        self._storage.get(plan.table_name)  # validate eagerly
        return _VecExecutable(self._make_scan(plan, None))

    def _make_scan(self, plan: PTableScan, predicate
                   ) -> Callable[[ExecutionContext], Iterator[Batch]]:
        """A scan source over native storage chunks, optionally fused
        with a filter predicate.

        With a predicate, each chunk's zone maps are consulted first: a
        chunk no row of which can satisfy the predicate is skipped
        without decoding.  Skipped rows are still charged to the
        governor and to the scan node's profile count, so `EXPLAIN
        ANALYZE` actuals and budget accounting stay identical to the
        tuple engine (which scans every row).
        """
        name = plan.table_name
        size = self._batch_size
        if predicate is not None:
            layout = build_layout(plan.columns)
            conjunct_exprs = split_conjuncts(predicate)
            filters = [compile_vector(c, layout) for c in conjunct_exprs]
            prunes = compile_zone_filters(conjunct_exprs, layout)
        else:
            filters = []
            prunes = []
        fused = predicate is not None
        scan_key = id(plan)

        def process_unit(unit: ScanUnit, params
                         ) -> tuple[list[tuple[int, Optional[Batch]]], bool]:
            """Decode and filter one storage chunk.  Returns the ordered
            (rows_charged, surviving_batch_or_None) steps plus whether
            the chunk was zone-map pruned without decoding."""
            if prunes and any(fn(unit.zones, params) for fn in prunes):
                return [(unit.nrows, None)], True
            cols = unit.columns()
            total = unit.nrows
            steps: list[tuple[int, Optional[Batch]]] = []
            for start in range(0, total, size):
                stop = min(start + size, total)
                if stop - start == total:
                    # whole-chunk batch: share the decoded lists
                    batch: Optional[Batch] = Batch(cols, total)
                else:
                    batch = Batch([col[start:stop] for col in cols],
                                  stop - start)
                nrows = stop - start
                for conjunct in filters:
                    mask = conjunct(batch, params)
                    keep = [i for i, v in enumerate(mask) if v is True]
                    if not keep:
                        batch = None
                        break
                    batch = take_batch(batch, keep)
                steps.append((nrows, batch))
            return steps, False

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            table = ctx.storage.get(name)
            units = table.scan_units()
            governor = ctx.governor
            profile = ctx.profile if fused else None
            params = ctx.params
            scanned = 0
            skipped = 0
            try:
                for unit in units:
                    steps, pruned = process_unit(unit, params)
                    if pruned:
                        skipped += 1
                    for charged, batch in steps:
                        if governor is not None:
                            governor.consume_rows(charged)
                        scanned += charged
                        if batch is not None:
                            yield batch
            finally:
                if profile is not None:
                    profile[scan_key] = profile.get(scan_key, 0) + scanned
                    if skipped:
                        # Keyed off-row so the frozen per-node wire stats
                        # stay untouched when nothing was skipped.
                        skip_key = ("chunks_skipped", scan_key)
                        profile[skip_key] = (profile.get(skip_key, 0)
                                             + skipped)
        return batches

    def _prepare_PIndexSeek(self, plan: PIndexSeek) -> _VecExecutable:
        table = self._storage.get(plan.table_name)
        name = plan.table_name
        names = [c.name for c in plan.key_columns]
        if table.key_lookup_index(names) is None:
            raise ExecutionError(
                f"no index on {plan.table_name}({', '.join(names)})")
        fn_for = {table.definition.column_index(c.name): compile_expr(e, {})
                  for c, e in zip(plan.key_columns, plan.key_exprs)}
        residual = (compile_vector(plan.residual,
                                   build_layout(plan.columns))
                    if plan.residual is not None else None)
        empty = ()
        # Per-version memo of the index and the key expressions in its
        # column order, swapped atomically (see the tuple engine's
        # _prepare_PIndexSeek for the concurrency argument).
        resolved: tuple = (None, None, None)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            nonlocal resolved
            table = ctx.storage.get(name)
            cached_table, index, key_fns = resolved
            if table is not cached_table:
                index = table.key_lookup_index(names)
                if index is None:
                    raise ExecutionError(
                        f"no index on {name}({', '.join(names)})")
                key_fns = [fn_for[p] for p in index.positions]
                resolved = (table, index, key_fns)
            governor = ctx.governor
            params = ctx.params
            positions = index.lookup(
                tuple([fn(empty, params) for fn in key_fns]))
            if not positions:
                return
            if governor is not None:
                governor.consume_rows(len(positions))
            fetched = table.rows_at(positions)
            batch = Batch([list(c) for c in zip(*fetched)], len(fetched))
            if residual is not None:
                mask = residual(batch, params)
                keep = [i for i, v in enumerate(mask) if v is True]
                if not keep:
                    return
                batch = take_batch(batch, keep)
            yield batch
        return _VecExecutable(batches)

    def _prepare_PConstantScan(self, plan: PConstantScan) -> _VecExecutable:
        data = list(plan.rows)
        constant = (Batch([list(c) for c in zip(*data)], len(data))
                    if data else None)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            if constant is not None:
                yield constant
        return _VecExecutable(batches)

    def _prepare_PSegmentRef(self, plan: PSegmentRef) -> _VecExecutable:
        key = frozenset(c.cid for c in plan.columns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            try:
                segment = ctx.segments[key]
            except KeyError:
                raise ExecutionError(
                    "segment reference outside SegmentApply") from None
            yield segment
        return _VecExecutable(batches)

    # -- row-level operators ----------------------------------------------------

    def _prepare_PFilter(self, plan: PFilter) -> _VecExecutable:
        if isinstance(plan.child, PTableScan):
            # Fuse filter into the scan: zone-map chunk skipping plus
            # per-chunk decode-and-filter.  The scan node's profile count
            # is maintained inside the fused source.
            self._storage.get(plan.child.table_name)  # validate eagerly
            return _VecExecutable(
                self._make_scan(plan.child, plan.predicate))
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        conjuncts = [compile_vector(c, layout)
                     for c in split_conjuncts(plan.predicate)]

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            for batch in child.batches(ctx):
                for predicate in conjuncts:
                    mask = predicate(batch, params)
                    keep = [i for i, v in enumerate(mask) if v is True]
                    if not keep:
                        batch = None
                        break
                    batch = take_batch(batch, keep)
                if batch is not None:
                    yield batch
        return _VecExecutable(batches)

    def _prepare_PProject(self, plan: PProject) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        fns = [compile_vector(e, layout) for _, e in plan.items]

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            for batch in child.batches(ctx):
                yield Batch([fn(batch, params) for fn in fns], batch.nrows)
        return _VecExecutable(batches)

    # -- joins ------------------------------------------------------------------

    def _prepare_PHashJoin(self, plan: PHashJoin) -> _VecExecutable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_key_fns = [compile_vector(e, left_layout)
                        for e in plan.left_keys]
        right_key_fns = [compile_vector(e, right_layout)
                         for e in plan.right_keys]
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        residual = (compile_vector(plan.residual, combined_layout)
                    if plan.residual is not None else None)
        kind = plan.kind
        n_right = len(plan.right.columns)
        left_only = kind.left_only_output

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            # Build on the right: accumulate columns, bucket row indexes.
            # Rows with a NULL key part can never match and are dropped.
            right_cols: list[list] = [[] for _ in range(n_right)]
            buckets: dict[tuple, list[int]] = {}
            setdefault = buckets.setdefault
            total = 0
            built = 0
            for rb in right.batches(ctx):
                keys = list(zip(*[fn(rb, params) for fn in right_key_fns]))
                valid = [i for i, k in enumerate(keys) if None not in k]
                if not valid:
                    continue
                if len(valid) == rb.nrows:
                    for col, vals in zip(right_cols, rb.columns):
                        col.extend(vals)
                else:
                    for col, vals in zip(right_cols, rb.columns):
                        col.extend([vals[i] for i in valid])
                for pos, i in enumerate(valid, start=total):
                    setdefault(keys[i], []).append(pos)
                total += len(valid)
                if governor is not None:
                    governor.hold_rows(len(valid))
                    built += len(valid)
            pad_index = total
            if kind is JoinKind.LEFT_OUTER:
                for col in right_cols:
                    col.append(None)
            get_bucket = buckets.get
            empty_bucket: tuple = ()
            try:
                for lb in left.batches(ctx):
                    keys = zip(*[fn(lb, params) for fn in left_key_fns])
                    li, ri = match_rows(
                        kind,
                        [empty_bucket if None in k
                         else get_bucket(k, empty_bucket) for k in keys],
                        lb, right_cols, residual, params, pad_index)
                    if not li:
                        continue
                    out_cols = [[col[i] for i in li] for col in lb.columns]
                    if not left_only:
                        out_cols += [[col[j] for j in ri]
                                     for col in right_cols]
                    yield Batch(out_cols, len(li))
            finally:
                if governor is not None:
                    governor.release_rows(built)
        return _VecExecutable(batches)

    def _prepare_PNestedLoopsJoin(self,
                                  plan: PNestedLoopsJoin) -> _VecExecutable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        predicate = (compile_expr(plan.predicate, combined_layout)
                     if plan.predicate is not None else None)
        kind = plan.kind
        pad = (None,) * len(plan.right.columns)
        ncols = len(plan.columns)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            materialized: list[tuple] = []
            for rb in right.batches(ctx):
                if governor is not None:
                    governor.hold_rows(rb.nrows)
                materialized.extend(batch_rows(rb))

            def generate() -> Iterator[tuple]:
                for lb in left.batches(ctx):
                    for row in batch_rows(lb):
                        yield from _loop_join_row(row, materialized,
                                                  predicate, params,
                                                  kind, pad)
            try:
                yield from rows_to_batches(generate(), ncols, size)
            finally:
                if governor is not None:
                    governor.release_rows(len(materialized))
        return _VecExecutable(batches)

    def _prepare_PNLApply(self, plan: PNLApply) -> _VecExecutable:
        """Correlated Apply, batched when the inner side allows it.

        The batched form (:mod:`.batched_apply`) runs the inner plan once
        per outer batch over the batch's distinct bindings.  Which form
        runs is fixed here, from the inner plan's operators alone; an
        inner side without a batched form loops per outer row like the
        tuple engine.

        Errors keep the tuple engine's position: when the batched inner
        raises, the batch is replayed per row, the output rows preceding
        the failing outer row are emitted as a short batch, and the
        error surfaces on the next pull — so a consumer that stops early
        (``LIMIT``) never sees an error the tuple engine would not have
        reached.  Resource-governor verdicts and injected faults are not
        replayed.
        """
        left = self.prepare(plan.left)
        ncols = len(plan.columns)
        size = self._batch_size
        batched = compile_batched_apply(self._storage, plan)
        loop = compile_apply_loop(plan, self._row_inner(plan.right))

        if batched is None:
            def batches(ctx: ExecutionContext) -> Iterator[Batch]:
                rows = (row for lb in left.batches(ctx)
                        for row in batch_rows(lb))
                return rows_to_batches(loop(ctx, rows), ncols, size)
            return _VecExecutable(batches)

        def replay(ctx: ExecutionContext, lb: Batch) -> Iterator[Batch]:
            rows: list[tuple] = []
            try:
                rows.extend(loop(ctx, batch_rows(lb)))
            finally:
                # On an error: first the rows before the failing outer
                # row, then (at the next pull) the error itself.
                yield from rows_to_batches(iter(rows), ncols, len(rows))

        # One inner run materializes the inner rows of all its bindings
        # and one output batch; cutting the outer batches so a run
        # yields about ``limit`` rows keeps that transient (and the
        # process's peak memory) where the per-row loop's re-batching
        # had it, whatever the fan-out.
        limit = 4 * size
        probe = 4  # outer rows of the first cut, before any fan-out is known

        def outer_slices(ctx: ExecutionContext,
                         flow: list[int]) -> Iterator[Batch]:
            """The outer batches, cut by the fan-out observed so far
            (``flow`` = outer rows in, rows out; updated by the caller)."""
            for lb in left.batches(ctx):
                start = 0
                while start < lb.nrows:
                    seen, produced = flow
                    width = (max(1, limit * seen // max(produced, seen))
                             if seen else probe)
                    stop = min(start + width, lb.nrows)
                    if stop - start == lb.nrows:
                        yield lb
                    else:
                        yield Batch([col[start:stop] for col in lb.columns],
                                    stop - start)
                    start = stop

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            governor = ctx.governor
            profile = ctx.profile
            if profile is not None:  # opened, even over an empty outer
                profile.setdefault(apply_bindings_key(plan), 0)
            flow = [0, 0]
            for lb in outer_slices(ctx, flow):
                flow[0] += lb.nrows
                # Counts and charges of a batch that fails are dropped:
                # the replay records what really ran.
                examined = governor.rows_examined if governor else 0
                if profile is not None:
                    ctx.profile = {}
                failed = False
                try:
                    out = batched(ctx, lb, None)
                except (ResourceError, InjectedFault):
                    raise
                except Exception:
                    failed = True
                finally:
                    counts, ctx.profile = ctx.profile, profile
                if failed:
                    if governor is not None:
                        governor.rows_examined = examined
                    yield from replay(ctx, lb)
                    continue
                if profile is not None:
                    for key, value in counts.items():
                        profile[key] = profile.get(key, 0) + value
                if out is not None:
                    flow[1] += out.nrows
                    yield out
        return _VecExecutable(batches)

    def _row_inner(self, inner: PhysicalOp
                   ) -> Callable[[ExecutionContext], Iterator[tuple]]:
        """The inner side of a per-row Apply as a re-openable row source:
        the row engine, unless the plan reads a segment bound by an
        enclosing vectorized SegmentApply (segments are stored as
        batches, which only the vectorized SegmentRef can read)."""
        if not _contains_segment_ref(inner):
            return self._row_executor.prepare(inner).rows
        inner_vec = self.prepare(inner)

        def rows(ctx: ExecutionContext) -> Iterator[tuple]:
            for batch in inner_vec.batches(ctx):
                yield from batch_rows(batch)
        return rows

    # -- aggregation ------------------------------------------------------------

    def _prepare_PHashAggregate(self, plan: PHashAggregate) -> _VecExecutable:
        return self._prepare_grouped(plan.child, plan.group_columns,
                                     plan.aggregates)

    def _prepare_grouped(self, child_plan: PhysicalOp,
                         group_columns: Sequence[Column],
                         aggregates) -> _VecExecutable:
        child = self.prepare(child_plan)
        layout = build_layout(child_plan.columns)
        group_positions = [layout[c.cid] for c in group_columns]
        arg_fns, specs = _aggregate_specs(aggregates, layout)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            return hash_aggregate_batches(ctx, child.batches(ctx),
                                          group_positions, arg_fns, specs,
                                          size)
        return _VecExecutable(batches)

    def _prepare_PStreamAggregate(self,
                                  plan: PStreamAggregate) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        group_positions = [layout[c.cid] for c in plan.group_columns]
        arg_fns, specs = _aggregate_specs(plan.aggregates, layout)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            return stream_aggregate_batches(ctx, child.batches(ctx),
                                            group_positions, arg_fns, specs,
                                            size)
        return _VecExecutable(batches)

    def _prepare_PScalarAggregate(self,
                                  plan: PScalarAggregate) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        arg_fns, specs = _aggregate_specs(plan.aggregates, layout)
        n_args = len(arg_fns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            count = 0
            vals: list[list] = [[] for _ in range(n_args)]
            for batch in child.batches(ctx):
                valcols = [fn(batch, params) for fn in arg_fns]
                count += batch.nrows
                for store, col in zip(vals, valcols):
                    store.extend(col)
            # Exactly one output row, even over empty input.
            yield Batch(
                [[reduce_fn(vals[arg_index]
                            if arg_index is not None else None, count)]
                 for reduce_fn, arg_index in specs],
                1)
        return _VecExecutable(batches)

    # -- ordering and limits ----------------------------------------------------

    def _prepare_PSort(self, plan: PSort) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        compiled = [(compile_expr(e, layout), asc) for e, asc in plan.keys]
        ncols = len(plan.columns)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor

            def sort_key(row: tuple):
                return [_SortValue(fn(row, params), asc)
                        for fn, asc in compiled]
            data: list[tuple] = []
            for batch in child.batches(ctx):
                if governor is not None:
                    governor.hold_rows(batch.nrows)
                data.extend(batch_rows(batch))
            try:
                data.sort(key=sort_key)
                yield from rows_to_batches(iter(data), ncols, size)
            finally:
                if governor is not None:
                    governor.release_rows(len(data))
        return _VecExecutable(batches)

    def _prepare_PTop(self, plan: PTop) -> _VecExecutable:
        child = self.prepare(plan.child)
        count = plan.count
        offset = plan.offset

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            to_skip = offset
            remaining = count
            if remaining <= 0:
                return
            for batch in child.batches(ctx):
                if to_skip >= batch.nrows:
                    to_skip -= batch.nrows
                    continue
                start = to_skip
                to_skip = 0
                stop = min(batch.nrows, start + remaining)
                if start == 0 and stop == batch.nrows:
                    out = batch
                else:
                    out = Batch([col[start:stop] for col in batch.columns],
                                stop - start)
                remaining -= out.nrows
                yield out
                if remaining <= 0:
                    return
        return _VecExecutable(batches)

    def _prepare_PTopN(self, plan: PTopN) -> _VecExecutable:
        import heapq

        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        compiled = [(compile_expr(e, layout), asc) for e, asc in plan.keys]
        keep = plan.count + plan.offset
        offset = plan.offset
        ncols = len(plan.columns)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            if keep == 0:
                return
            params = ctx.params

            def sort_key(row: tuple):
                return [_SortValue(fn(row, params), asc)
                        for fn, asc in compiled]
            heap: list = []
            sequence = 0
            for batch in child.batches(ctx):
                for row in batch_rows(batch):
                    entry = _TopNEntry(sort_key(row), sequence, row)
                    sequence += 1
                    if len(heap) < keep:
                        heapq.heappush(heap, entry)
                    elif heap[0].worse_than(entry):
                        heapq.heapreplace(heap, entry)
            ordered = sorted(heap, key=lambda e: (e.key, e.sequence))
            yield from rows_to_batches(
                iter([e.row for e in ordered[offset:]]), ncols, size)
        return _VecExecutable(batches)

    def _prepare_PMax1row(self, plan: PMax1row) -> _VecExecutable:
        child = self.prepare(plan.child)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            produced = 0
            for batch in child.batches(ctx):
                produced += batch.nrows
                if produced > 1:
                    raise SubqueryReturnedMultipleRows()
                yield batch
        return _VecExecutable(batches)

    # -- set operations ---------------------------------------------------------

    def _prepare_PUnionAll(self, plan: PUnionAll) -> _VecExecutable:
        prepared = []
        for source, imap in zip(plan.inputs, plan.input_maps):
            layout = build_layout(source.columns)
            positions = [layout[c.cid] for c in imap]
            prepared.append((self.prepare(source), positions))

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            for source, positions in prepared:
                for batch in source.batches(ctx):
                    yield Batch([batch.columns[p] for p in positions],
                                batch.nrows)
        return _VecExecutable(batches)

    def _prepare_PDifference(self, plan: PDifference) -> _VecExecutable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_positions = [left_layout[c.cid] for c in plan.left_map]
        right_positions = [right_layout[c.cid] for c in plan.right_map]
        ncols = len(plan.columns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            remaining: Counter = Counter()
            for batch in right.batches(ctx):
                for key in _key_iter(batch, right_positions):
                    remaining[key] += 1
            for batch in left.batches(ctx):
                survivors: list[tuple] = []
                for key in _key_iter(batch, left_positions):
                    if remaining[key] > 0:
                        remaining[key] -= 1
                        continue
                    survivors.append(key)
                if survivors:
                    if ncols:
                        yield Batch([list(c) for c in zip(*survivors)],
                                    len(survivors))
                    else:
                        yield Batch([], len(survivors))
        return _VecExecutable(batches)

    # -- segmented execution ----------------------------------------------------

    def _prepare_PSegmentApply(self, plan: PSegmentApply) -> _VecExecutable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        seg_positions = [left_layout[c.cid] for c in plan.segment_columns]
        ref_key = frozenset(c.cid for c in plan.inner_columns)
        n_left = len(plan.left.columns)
        n_seg = len(plan.segment_columns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            governor = ctx.governor
            # Buffer the left input columnar, partition row indexes by
            # segment key in first-appearance order.
            acc_cols: list[list] = [[] for _ in range(n_left)]
            segments: dict[tuple, list[int]] = {}
            order: list[tuple] = []
            total = 0
            held = 0
            for batch in left.batches(ctx):
                for col, vals in zip(acc_cols, batch.columns):
                    col.extend(vals)
                for i, key in enumerate(_key_iter(batch, seg_positions),
                                        start=total):
                    bucket = segments.get(key)
                    if bucket is None:
                        segments[key] = bucket = []
                        order.append(key)
                    bucket.append(i)
                total += batch.nrows
                if governor is not None:
                    governor.hold_rows(batch.nrows)
                    held += batch.nrows
            previous = ctx.segments.get(ref_key)
            try:
                for key in order:
                    indexes = segments[key]
                    ctx.segments[ref_key] = Batch(
                        [[col[i] for i in indexes] for col in acc_cols],
                        len(indexes))
                    for inner in right.batches(ctx):
                        yield Batch(
                            [[key[j]] * inner.nrows for j in range(n_seg)] +
                            list(inner.columns),
                            inner.nrows)
            finally:
                if previous is None:
                    ctx.segments.pop(ref_key, None)
                else:
                    ctx.segments[ref_key] = previous
                if governor is not None:
                    governor.release_rows(held)
        return _VecExecutable(batches)


# -- grouped aggregation over a batch stream -----------------------------------------
#
# Module-level so the batched Apply (:mod:`.batched_apply`) can group by
# its binding-ordinal column with the very same fold.

def hash_aggregate_batches(ctx: ExecutionContext, source: Iterable[Batch],
                           group_positions: list[int], arg_fns, specs,
                           size: int) -> Iterator[Batch]:
    """Hash-group ``source`` on ``group_positions`` and fold the
    aggregates; groups come out in first-appearance order."""
    params = ctx.params
    governor = ctx.governor
    n_args = len(arg_fns)
    groups: dict[tuple, int] = {}
    keys_list: list[tuple] = []
    counts: list[int] = []
    stores: list[list[list]] = [[] for _ in range(n_args)]
    get_gid = groups.get
    held = 0
    try:
        for batch in source:
            valcols = [fn(batch, params) for fn in arg_fns]
            keys = _key_iter(batch, group_positions)
            fresh = 0
            if n_args == 1:
                store0 = stores[0]
                col0 = valcols[0]
                for i, key in enumerate(keys):
                    gid = get_gid(key)
                    if gid is None:
                        gid = len(keys_list)
                        groups[key] = gid
                        keys_list.append(key)
                        counts.append(0)
                        store0.append([])
                        fresh += 1
                    counts[gid] += 1
                    store0[gid].append(col0[i])
            elif n_args == 0:
                for key in keys:
                    gid = get_gid(key)
                    if gid is None:
                        gid = len(keys_list)
                        groups[key] = gid
                        keys_list.append(key)
                        counts.append(0)
                        fresh += 1
                    counts[gid] += 1
            else:
                for i, key in enumerate(keys):
                    gid = get_gid(key)
                    if gid is None:
                        gid = len(keys_list)
                        groups[key] = gid
                        keys_list.append(key)
                        counts.append(0)
                        for store in stores:
                            store.append([])
                        fresh += 1
                    counts[gid] += 1
                    for store, col in zip(stores, valcols):
                        store[gid].append(col[i])
            # Memory scales with distinct groups, not input rows:
            # charge per new group, batched.
            if governor is not None and fresh:
                governor.hold_rows(fresh)
                held += fresh
        n_groups = len(keys_list)
        if n_groups == 0:
            return
        if group_positions:
            out_cols = [list(c) for c in zip(*keys_list)]
        else:
            out_cols = []
        for reduce_fn, arg_index in specs:
            if arg_index is None:
                out_cols.append([reduce_fn(None, counts[g])
                                 for g in range(n_groups)])
            else:
                store = stores[arg_index]
                out_cols.append([reduce_fn(store[g], counts[g])
                                 for g in range(n_groups)])
        yield from columns_to_batches(out_cols, n_groups, size)
    finally:
        if governor is not None:
            governor.release_rows(held)


def stream_aggregate_batches(ctx: ExecutionContext, source: Iterable[Batch],
                             group_positions: list[int], arg_fns, specs,
                             size: int) -> Iterator[Batch]:
    """Fold aggregates over ``source`` sorted on ``group_positions``: a
    group closes when the key changes."""
    params = ctx.params
    n_args = len(arg_fns)
    out_cols: list[list] = [[] for _ in range(len(group_positions)
                                              + len(specs))]
    emitted = 0
    unset = object()
    current_key: Any = unset
    count = 0
    vals: list[list] = [[] for _ in range(n_args)]

    def finalize() -> None:
        nonlocal emitted
        position = 0
        for part in current_key:
            out_cols[position].append(part)
            position += 1
        for reduce_fn, arg_index in specs:
            value = reduce_fn(
                vals[arg_index] if arg_index is not None else None,
                count)
            out_cols[position].append(value)
            position += 1
        emitted += 1

    for batch in source:
        valcols = [fn(batch, params) for fn in arg_fns]
        for i, key in enumerate(_key_iter(batch, group_positions)):
            if key != current_key:
                if current_key is not unset:
                    finalize()
                current_key = key
                count = 0
                vals = [[] for _ in range(n_args)]
            count += 1
            for store, col in zip(vals, valcols):
                store.append(col[i])
    if current_key is not unset:
        finalize()
    yield from columns_to_batches(out_cols, emitted, size)


# -- batched aggregate reduction ------------------------------------------------

def _aggregate_specs(aggregates: Sequence[tuple[Column, AggregateCall]],
                     layout, bound: AbstractSet[int] = frozenset()):
    """Compile aggregate argument expressions and per-call reducers.

    Returns ``(arg_fns, specs)``: ``arg_fns`` are the batch-compiled
    argument expressions (one per aggregate *with* an argument) and each
    spec is ``(reduce_fn, arg_index)`` where ``reduce_fn(values, count)``
    folds one group's value list — ``arg_index`` is ``None`` for
    ``count(*)`` (no values collected, row count suffices).

    Reducers reproduce the fold semantics of
    :class:`~repro.algebra.aggregates.AggregateDescriptor` exactly
    (builtin ``sum``/``min``/``max`` over the non-NULL values in input
    order equals the left fold, including float evaluation order), so
    both engines compute identical aggregate values.
    """
    arg_fns = []
    specs = []
    for _, call in aggregates:
        if call.argument is None:
            specs.append((_make_reducer(call.func, call.distinct), None))
        else:
            arg_index = len(arg_fns)
            arg_fns.append(compile_vector(call.argument, layout, bound))
            specs.append((_make_reducer(call.func, call.distinct),
                          arg_index))
    return arg_fns, specs


def _dedupe(values: list) -> list:
    """First occurrence of each value, in input order (NULL included),
    mirroring the tuple engine's distinct-tracking set."""
    seen: set = set()
    add = seen.add
    out = []
    append = out.append
    for v in values:
        if v not in seen:
            add(v)
            append(v)
    return out


def _make_reducer(func: AggregateFunction, distinct: bool):
    if func is AggregateFunction.COUNT_STAR:
        if distinct:
            # Degenerate count(distinct *): the shared fold dedupes its
            # (absent) argument, collapsing all rows to one.
            return lambda values, count: 1 if count else 0
        return lambda values, count: count

    if func is AggregateFunction.COUNT:
        def reduce_count(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            return len(values) - values.count(None)
        return reduce_count

    if func is AggregateFunction.SUM:
        def reduce_sum(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = [v for v in values if v is not None]
            return sum(non_null) if non_null else None
        return reduce_sum

    if func is AggregateFunction.MIN:
        def reduce_min(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = [v for v in values if v is not None]
            return min(non_null) if non_null else None
        return reduce_min

    if func is AggregateFunction.MAX:
        def reduce_max(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = [v for v in values if v is not None]
            return max(non_null) if non_null else None
        return reduce_max

    if func is AggregateFunction.AVG:
        def reduce_avg(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = [v for v in values if v is not None]
            if not non_null:
                return None
            return sum(non_null) / len(non_null)
        return reduce_avg

    raise ExecutionError(f"unhandled aggregate {func}")  # pragma: no cover


# Down here because batched_apply builds on the definitions above (Batch,
# match_rows, the aggregate folds); the package imports this module first,
# so the cycle always resolves in this order.
from .batched_apply import compile_batched_apply  # noqa: E402
