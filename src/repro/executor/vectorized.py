"""Vectorized (batch-at-a-time) physical plan executor.

The third execution engine: instead of pulling one tuple at a time
(:mod:`.physical`), operators exchange :class:`Batch` objects — a list of
column value lists plus an explicit row count — of at most ``batch_size``
rows (default 1024).  Scans slice column chunks straight off storage,
filters narrow a selection vector conjunct by conjunct and gather the
survivors once, hash join builds on column arrays, aggregation folds
each group's values left to right into running states, and
``SegmentApply`` binds whole column segments (the paper's Section 3.4
segmented execution, batched).

Correctness contract: results are *identical*, row for row, to the tuple
executor — same values (shared scalar semantics via
:mod:`.vector_expressions`), same fold order inside aggregates, same
output order.  The differential oracle (tests/test_differential.py)
enforces this across randomly generated queries and the TPC-H corpus.

A nested-loops join pairs each left batch with every materialized right
row through the hash join's :func:`match_rows`; sorts and Top-N rank
their key columns.  Correlated ``NLApply`` — what is left of the paper's
Apply after normalization, and every index nested-loops join — runs
set-at-a-time: one outer batch's distinct bindings through the inner
plan at once (:mod:`.batched_apply`), and a plain index seek is that
seek run with one binding.  A plan with an Apply whose inner side has no
batched form runs wholly on the tuple engine, decided at prepare time.

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
import operator
from collections import Counter
from functools import partial, reduce
from itertools import accumulate, compress, repeat
from typing import (AbstractSet, Any, Callable, Iterable, Iterator, Optional,
                    Sequence)

from .. import faultinject
from ..algebra.aggregates import AggregateFunction
from ..algebra.columns import Column
from ..algebra.relational import JoinKind
from ..algebra.scalar import (AggregateCall, ScalarExpr, cannot_raise,
                              conjuncts, parameter_slot)
from ..errors import ExecutionError, SubqueryReturnedMultipleRows
from ..physical.plan import (PConstantScan, PDifference, PFilter,
                             PHashAggregate, PHashJoin, PIndexSeek,
                             PMax1row, PNestedLoopsJoin, PNLApply, PProject,
                             PScalarAggregate, PSegmentApply, PSegmentRef,
                             PSort, PStreamAggregate, PTableScan, PTop,
                             PTopN, PUnionAll, PhysicalOp,
                             apply_bindings_key)
from ..storage.columnar import compile_zone_filters
from ..storage.table import Storage
from .expressions import build_layout
from .naive import _SortValue
from .physical import ExecutionContext, PhysicalExecutor
from .vector_expressions import (CompiledVector, _gatherer,
                                 compile_vector, gather, read_positions)

DEFAULT_BATCH_SIZE = 1024


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


def take_batch(batch: Batch, indexes: Sequence[int]) -> Batch:
    """Select rows by position.  ``indexes`` must be strictly increasing
    (a filter mask), so a full-length selection is the identity and the
    input batch is returned unchanged; a ``range`` is sliced."""
    if len(indexes) == batch.nrows:
        return batch
    return Batch([gather(col, indexes) for col in batch.columns],
                 len(indexes))


def batch_rows(batch: Batch) -> list[tuple]:
    """The batch pivoted back to row tuples."""
    if batch.columns:
        return list(zip(*batch.columns))
    return [()] * batch.nrows


def _select(batch: Batch, indexes: Sequence[int]) -> Batch:
    """Rows of ``batch`` in ``indexes`` order (any order, unlike
    :func:`take_batch`)."""
    return Batch([list(map(col.__getitem__, indexes))
                  for col in batch.columns], len(indexes))


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


def _rechunk(source: Iterator[Batch], ncols: int,
             size: int) -> Iterator[Batch]:
    """``source`` cut into batches of exactly ``size`` rows, the last one
    shorter.  A batch goes out as soon as its last row is in, and the
    short one only once ``source`` is exhausted: what a row source
    re-batched gives, so the operators below release what they hold at
    the same point of the stream (and ``peak_rows_buffered`` is the
    same) whatever batches ``source`` yields."""
    pending: list[list] = [[] for _ in range(ncols)]
    count = 0
    for batch in source:
        for column, values in zip(pending, batch.columns):
            column.extend(values)
        count += batch.nrows
        if count >= size:
            full = count - count % size
            yield from columns_to_batches([col[:full] for col in pending],
                                          full, size)
            pending = [col[full:] for col in pending]
            count -= full
    if count:
        yield Batch(pending, count)


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
    left row ``i`` may match; ``residual`` (from :func:`compile_residual`,
    over left columns followed by right columns) decides which
    candidates do.  Returns parallel index lists ``(li, ri)`` of the
    emitted pairs, left row order first, bucket order within a row —
    the order a tuple-at-a-time probe produces.  ``ri`` is meaningful
    for INNER and LEFT_OUTER only; an unmatched LEFT_OUTER row pairs
    with ``pad_index``.  Shared by the hash join (buckets from the build
    table), the nested-loops join (one bucket of every right row) and
    the batched Apply (buckets from the binding ordinal).

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
        predicate, reads = residual
        columns = ([(col, cli) for col in lb.columns] +
                   [(col, cri) for col in right_cols])
        candidates = Batch([[col[i] for i in rows] if p in reads else []
                            for p, (col, rows) in enumerate(columns)],
                           len(cri))
        mask = predicate(candidates, params)
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


def compile_residual(expr: Optional[ScalarExpr], layout,
                     bound: AbstractSet[int] = frozenset()):
    """The residual of :func:`match_rows`: ``expr`` compiled, and the
    candidate columns it reads (no other one is gathered); ``None``
    without an ``expr``."""
    if expr is None:
        return None
    return (compile_vector(expr, layout, bound),
            read_positions(expr, layout, bound))


def _joined(lb: Batch, li: list[int], right_cols: list[list],
            ri: list[int], left_only: bool) -> Batch:
    """The output batch of :func:`match_rows`' pairs: left rows ``li``,
    followed (unless the join emits left rows only) by right rows
    ``ri``."""
    out = [[col[i] for i in li] for col in lb.columns]
    if not left_only:
        out += [[col[j] for j in ri] for col in right_cols]
    return Batch(out, len(li))


def filter_batch(batch: Batch, predicate: list[tuple[CompiledVector,
                                                    Callable, bool]],
                 params, selected: Optional[Sequence[int]] = None) -> Batch:
    """The rows of ``batch`` on which every conjunct of ``predicate``
    (from :func:`compile_predicate`) is TRUE — the one batch-predicate
    loop of the plain filter, the fused scan, the index-seek residual
    and the batched Apply.

    Conjuncts run one at a time over a selection vector, the positions
    of the rows still in (``selected`` starts it, ``None`` for all rows;
    the fused scan passes a ``range`` of a storage chunk): each conjunct
    gathers only the columns it reads, and the survivors' columns are
    gathered once, at the end.

    Like the row engine's AND, a later conjunct that can raise sees
    every row no earlier conjunct made FALSE, NULL rows included, so it
    raises wherever the row engine would (and maybe on more rows, which
    the re-run in :meth:`VectorizedExecutor.run_prepared` settles)."""
    unknown: Optional[list[bool]] = None  # per selected row: NULL so far
    for conjunct, take, carry in predicate:
        if selected is None:
            if not batch.nrows:
                break
            mask = conjunct(batch, params)
            positions: Sequence[int] = range(batch.nrows)
        else:
            if not selected:
                break
            mask = conjunct(take(batch, selected), params)
            positions = selected
        if unknown is not None:
            mask = [None if u and v is True else v
                    for u, v in zip(unknown, mask)]
            unknown = None
        if carry and None in mask:
            unknown = [v is None for v in mask if v is not False]
            kept = list(compress(positions, map(operator.is_not, mask,
                                                repeat(False))))
        else:
            kept = list(compress(positions, map(operator.is_, mask,
                                                repeat(True))))
        # All kept: keep ``positions``, which a range may be sliced by.
        selected = positions if len(kept) == len(positions) else kept
    return batch if selected is None else take_batch(batch, selected)


def compile_predicate(parts: Sequence[ScalarExpr], layout,
                      bound: AbstractSet[int] = frozenset()
                      ) -> list[tuple[CompiledVector, Callable, bool]]:
    """The conjuncts ``parts`` compiled for :func:`filter_batch`, each
    with a gatherer of the columns it reads and whether a later one can
    raise (so that its NULL rows must go on to it)."""
    out: list[tuple[CompiledVector, Callable, bool]] = []
    raising = False
    for part in reversed(parts):
        out.append((compile_vector(part, layout, bound),
                    _gatherer(part, layout, bound), raising))
        raising = raising or not cannot_raise(part)
    return out[::-1]


class _VecExecutable:
    """A prepared operator: ``batches(ctx)`` yields output batches.  At
    the root of a statement, ``plan`` is the statement's plan and ``row``
    the tuple engine's executable of it once a run needed it; ``batches``
    is ``None`` when the statement runs on the tuple engine alone."""

    __slots__ = ("batches", "plan", "row")

    def __init__(self, batches: Optional[
            Callable[[ExecutionContext], Iterator[Batch]]]):
        self.batches = batches
        self.plan: Optional[PhysicalOp] = None
        self.row = None


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

    Errors follow one rule, applied in :meth:`run_prepared` alone: a run
    that raises a data error (``ArithmeticError`` or ``ExecutionError``,
    ``Max1row``'s violation included) re-runs the same plan on the tuple
    engine, which decides what the statement returns or raises.  Batches
    evaluate more rows than a row-at-a-time run reaches (past a
    ``LIMIT``, past a semi probe's first match), so only the row engine
    knows whether an error is really reached.  Governor verdicts and
    injected faults are neither kind and are never re-run.
    """

    def __init__(self, storage: Storage,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ExecutionError("batch_size must be at least 1")
        self._storage = storage
        self._batch_size = batch_size
        # Row-engine sibling: runs the statements that raised or have an
        # Apply without a batched form (see prepare and run_prepared).
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
        optional per-node ``profile`` row counting).

        A data error re-runs the plan on the tuple engine after the
        partial run's profile counts and governor charges are dropped,
        so nothing is counted twice; the deadline keeps running.  Its
        cost: a statement that raises here pays a partial vectorized run
        plus a full tuple run.  A statement :meth:`prepare` left to the
        tuple engine runs there directly."""
        faultinject.hit("executor.open.vectorized")
        if executable.batches is not None:
            charged = ((governor.rows_examined, governor.rows_buffered,
                        governor.peak_rows_buffered)
                       if governor is not None else None)
            try:
                return self._drive(executable, params, governor, storage,
                                   profile)
            except (ArithmeticError, ExecutionError):
                if profile is not None:
                    profile.clear()
                if governor is not None:
                    (governor.rows_examined, governor.rows_buffered,
                     governor.peak_rows_buffered) = charged
        if executable.row is None:
            executable.row = self._row_executor.prepare(executable.plan)
        return self._row_executor.run_prepared(
            executable.row, params, governor, storage, profile)

    def _drive(self, executable: _VecExecutable, params, governor,
               storage, profile) -> list[tuple]:
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
        """The executable of a statement's plan.  When an Apply of the
        plan has no batched form (``compile_batched_apply`` returns
        ``None``), the whole statement runs on the tuple engine, like a
        statement that raised."""
        try:
            executable = self._prepare(plan)
        except _Unbatchable:
            executable = _VecExecutable(None)
            executable.row = self._row_executor.prepare(plan)
        executable.plan = plan
        return executable

    def _prepare(self, plan: PhysicalOp) -> _VecExecutable:
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
        tuple engine (which scans every row).  Only the chunk columns
        the plan's column subset names are taken.
        """
        name = plan.table_name
        which = self._storage.get(name).positions(plan.columns)  # validates eagerly
        size = self._batch_size
        fused = predicate is not None
        if fused:
            compiled = compile_predicate(conjuncts(predicate),
                                         build_layout(plan.columns))
            # zone maps are per stored column
            prunes = compile_zone_filters(predicate, {
                c.cid: p for c, p in zip(plan.columns, which)})
        else:
            prunes = []
        scan_key = id(plan)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            table = ctx.storage.get(name)
            governor = ctx.governor
            profile = ctx.profile if fused else None
            params = ctx.params
            scanned = 0
            skipped = 0
            try:
                for unit in table.scan_units():
                    total = unit.nrows
                    if prunes and any(fn(unit.zones, params)
                                      for fn in prunes):
                        skipped += 1
                        if governor is not None:
                            governor.consume_rows(total)
                        scanned += total
                        continue
                    column = unit.column
                    chunk = Batch([column(p) for p in which], total)
                    for start in range(0, total, size):
                        rows = range(start, min(start + size, total))
                        if governor is not None:
                            governor.consume_rows(len(rows))
                        scanned += len(rows)
                        if fused:
                            # survivors are gathered from the chunk
                            batch = filter_batch(chunk, compiled, params,
                                                 rows)
                            if not batch.nrows:
                                continue
                        else:
                            # a whole-chunk batch shares the decoded lists
                            batch = take_batch(chunk, rows)
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
        seek = compile_index_seek(self._storage, plan)
        one = Bindings(1, None, 1)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            batch = seek(ctx, one)
            if batch.nrows:  # the binding ordinal dropped
                yield Batch(batch.columns[1:], batch.nrows)
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
            return _VecExecutable(
                self._make_scan(plan.child, plan.predicate))
        child = self._prepare(plan.child)
        predicate = compile_predicate(conjuncts(plan.predicate),
                                      build_layout(plan.child.columns))

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            for batch in child.batches(ctx):
                batch = filter_batch(batch, predicate, params)
                if batch.nrows:
                    yield batch
        return _VecExecutable(batches)

    def _prepare_PProject(self, plan: PProject) -> _VecExecutable:
        child = self._prepare(plan.child)
        layout = build_layout(plan.child.columns)
        fns = [compile_vector(e, layout) for _, e in plan.items]

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            for batch in child.batches(ctx):
                yield Batch([fn(batch, params) for fn in fns], batch.nrows)
        return _VecExecutable(batches)

    # -- joins ------------------------------------------------------------------

    def _prepare_PHashJoin(self, plan: PHashJoin) -> _VecExecutable:
        left = self._prepare(plan.left)
        right = self._prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_key_fns = [compile_vector(e, left_layout)
                        for e in plan.left_keys]
        right_key_fns = [compile_vector(e, right_layout)
                         for e in plan.right_keys]
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        residual = compile_residual(plan.residual, combined_layout)
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
                for col, vals in zip(right_cols,
                                     take_batch(rb, valid).columns):
                    col.extend(vals)
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
                    if li:
                        yield _joined(lb, li, right_cols, ri, left_only)
            finally:
                if governor is not None:
                    governor.release_rows(built)
        return _VecExecutable(batches)

    def _prepare_PNestedLoopsJoin(self,
                                  plan: PNestedLoopsJoin) -> _VecExecutable:
        """Every left row against every materialized right row: the hash
        join's :func:`match_rows` with one bucket of all right rows.
        Left batches are cut so that one call sees about ``4 ×
        batch_size`` candidate pairs."""
        left = self._prepare(plan.left)
        right = self._prepare(plan.right)
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        predicate = compile_residual(plan.predicate, combined_layout)
        kind = plan.kind
        n_right = len(plan.right.columns)
        left_only = kind.left_only_output
        ncols = len(plan.columns)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            right_cols: list[list] = [[] for _ in range(n_right)]
            total = 0
            for rb in right.batches(ctx):
                if governor is not None:
                    governor.hold_rows(rb.nrows)
                for col, vals in zip(right_cols, rb.columns):
                    col.extend(vals)
                total += rb.nrows
            if kind is JoinKind.LEFT_OUTER:
                for col in right_cols:
                    col.append(None)
            every = range(total)
            width = max(1, 4 * size // max(total, 1))

            def joined() -> Iterator[Batch]:
                for lb in left.batches(ctx):
                    for start in range(0, lb.nrows, width):
                        part = take_batch(
                            lb, range(start, min(start + width, lb.nrows)))
                        li, ri = match_rows(kind, [every] * part.nrows, part,
                                            right_cols, predicate, params,
                                            total)
                        if li:
                            yield _joined(part, li, right_cols, ri,
                                          left_only)
            try:
                yield from _rechunk(joined(), ncols, size)
            finally:
                if governor is not None:
                    governor.release_rows(total)
        return _VecExecutable(batches)

    def _prepare_PNLApply(self, plan: PNLApply) -> _VecExecutable:
        """Correlated Apply, run set-at-a-time.

        The batched form (:mod:`.batched_apply`) runs the inner plan once
        per outer batch over the batch's distinct bindings.  An inner
        side without one (decided from its operators alone) sends the
        whole statement to the tuple engine (:meth:`prepare`).  A batched
        inner evaluates every binding of its batch, so it may raise
        where a row-at-a-time run would have stopped first (a ``LIMIT``
        above, a semi probe's first match); :meth:`run_prepared` then
        re-runs the statement on the tuple engine.
        """
        batched = compile_batched_apply(self._storage, plan)
        if batched is None:
            raise _Unbatchable("Apply without a batched form")
        left = self._prepare(plan.left)

        # One inner run materializes the inner rows of all its bindings
        # and one output batch; cutting the outer batches so a run
        # yields about ``limit`` rows keeps that transient (and the
        # process's peak memory) bounded, whatever the fan-out.
        limit = 4 * self._batch_size
        probe = 4  # outer rows of the first cut, before any fan-out is known

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            profile = ctx.profile
            if profile is not None:  # opened, even over an empty outer
                profile.setdefault(apply_bindings_key(plan), 0)
            seen = produced = 0  # outer rows in, rows out
            for lb in left.batches(ctx):
                start = 0
                while start < lb.nrows:
                    width = (max(1, limit * seen // max(produced, seen))
                             if seen else probe)
                    part = take_batch(
                        lb, range(start, min(start + width, lb.nrows)))
                    seen += part.nrows
                    start += part.nrows
                    out = batched(ctx, part, None)
                    if out is not None:
                        produced += out.nrows
                        yield out
        return _VecExecutable(batches)

    # -- aggregation ------------------------------------------------------------

    def _prepare_PHashAggregate(self, plan: PHashAggregate) -> _VecExecutable:
        return self._prepare_grouped(plan.child, plan.group_columns,
                                     plan.aggregates)

    def _prepare_grouped(self, child_plan: PhysicalOp,
                         group_columns: Sequence[Column],
                         aggregates) -> _VecExecutable:
        child = self._prepare(child_plan)
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
        child = self._prepare(plan.child)
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
        child = self._prepare(plan.child)
        layout = build_layout(plan.child.columns)
        arg_fns, specs = _aggregate_specs(plan.aggregates, layout)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            states = _GroupStates(specs, 1)
            for batch in child.batches(ctx):
                states.fold([fn(batch, params) for fn in arg_fns], None,
                            (0,), batch.nrows)
            # Exactly one output row, even over empty input.
            yield Batch(states.finals(), 1)
        return _VecExecutable(batches)

    # -- ordering and limits ----------------------------------------------------

    def _prepare_PSort(self, plan: PSort) -> _VecExecutable:
        return self._ordered(plan, 0, None)

    def _prepare_PTopN(self, plan: PTopN) -> _VecExecutable:
        return self._ordered(plan, plan.offset, plan.count + plan.offset)

    def _ordered(self, plan: PSort | PTopN, first: int,
                 last: Optional[int]) -> _VecExecutable:
        """A stable sort on the key columns, keeping ranks ``[first,
        last)``.  A full sort (``last`` is ``None``) holds its input on
        the governor; a Top-N charges nothing and, whenever a batch more
        than its ``last`` rows has arrived, cuts back to the best."""
        child = self._prepare(plan.child)
        layout = build_layout(plan.child.columns)
        key_fns = [compile_vector(e, layout) for e, _ in plan.keys]
        ascending = [asc for _, asc in plan.keys]
        ncols = len(plan.columns)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            if last == 0:
                return
            params = ctx.params
            governor = ctx.governor if last is None else None
            # The rows, then their sort key columns.
            columns: list[list] = [[] for _ in range(ncols + len(key_fns))]
            for batch in child.batches(ctx):
                if governor is not None:
                    governor.hold_rows(batch.nrows)
                for column, values in zip(columns, batch.columns + [
                        fn(batch, params) for fn in key_fns]):
                    column.extend(values)
                if last is not None and len(columns[-1]) > last + size:
                    columns = _ranks(columns, ascending, 0, last)
            held = len(columns[-1])
            try:
                columns = _ranks(columns, ascending, first, last)
                yield from columns_to_batches(columns[:ncols],
                                              len(columns[-1]), size)
            finally:
                if governor is not None:
                    governor.release_rows(held)
        return _VecExecutable(batches)

    def _prepare_PTop(self, plan: PTop) -> _VecExecutable:
        child = self._prepare(plan.child)
        count = plan.count
        offset = plan.offset

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            to_skip = offset
            remaining = count
            if not (remaining or to_skip):
                return
            # The offset rows are pulled even under LIMIT 0, as the tuple
            # engine's islice does, and nothing after the last row.
            for batch in child.batches(ctx):
                if remaining and to_skip < batch.nrows:
                    out = take_batch(batch, range(
                        to_skip, min(batch.nrows, to_skip + remaining)))
                    remaining -= out.nrows
                    yield out
                to_skip = max(0, to_skip - batch.nrows)
                if not (remaining or to_skip):
                    return
        return _VecExecutable(batches)

    def _prepare_PMax1row(self, plan: PMax1row) -> _VecExecutable:
        child = self._prepare(plan.child)

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
            prepared.append((self._prepare(source), positions))

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            for source, positions in prepared:
                for batch in source.batches(ctx):
                    yield Batch([batch.columns[p] for p in positions],
                                batch.nrows)
        return _VecExecutable(batches)

    def _prepare_PDifference(self, plan: PDifference) -> _VecExecutable:
        left = self._prepare(plan.left)
        right = self._prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_positions = [left_layout[c.cid] for c in plan.left_map]
        right_positions = [right_layout[c.cid] for c in plan.right_map]

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            remaining: Counter = Counter()
            for batch in right.batches(ctx):
                for key in _key_iter(batch, right_positions):
                    remaining[key] += 1
            for batch in left.batches(ctx):
                kept: list[int] = []
                for i, key in enumerate(_key_iter(batch, left_positions)):
                    if remaining[key] > 0:
                        remaining[key] -= 1
                    else:
                        kept.append(i)
                if kept:
                    yield take_batch(Batch([batch.columns[p] for p
                                            in left_positions],
                                           batch.nrows), kept)
        return _VecExecutable(batches)

    # -- segmented execution ----------------------------------------------------

    def _prepare_PSegmentApply(self, plan: PSegmentApply) -> _VecExecutable:
        left = self._prepare(plan.left)
        right = self._prepare(plan.right)
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


# -- ordering: one stable sort over key columns -------------------------------------
#
# Module-level so the batched Apply ranks each binding's rows with it.

def _rank_function(keys: list[tuple[list, bool]]
                   ) -> Callable[[int, int], list[int]]:
    """``rank(start, stop)``: the row indexes of that slice in sort
    order (stable, NULLs first ascending / last descending)."""
    if len(keys) == 1 and None not in keys[0][0]:
        # One NULL-free key column: compare the raw values (a reversed
        # sort is still stable).
        column, ascending = keys[0]
        return lambda start, stop: sorted(
            range(start, stop), key=column.__getitem__,
            reverse=not ascending)
    row_keys = list(zip(*[[_SortValue(v, asc) for v in column]
                          for column, asc in keys]))
    return lambda start, stop: sorted(range(start, stop),
                                      key=row_keys.__getitem__)


def _ranks(columns: list[list], ascending: list[bool], first: int,
           last: Optional[int]) -> list[list]:
    """``columns`` (rows, then one sort key column per ``ascending``
    flag) cut to the rows of sort ranks ``[first, last)``, in rank
    order."""
    keys = columns[len(columns) - len(ascending):]
    rank = _rank_function(list(zip(keys, ascending)))
    return _select(Batch(columns, len(keys[0])),
                   rank(0, len(keys[0]))[first:last]).columns


# -- aggregation: one fold over a batch stream --------------------------------------
#
# Module-level so the batched Apply (:mod:`.batched_apply`) folds its
# per-binding groups with the very same code.

#: A batch of at most this many groups, with this many rows per group on
#: average, folds each group's rows as one list picked out by ``compress``;
#: other batches fold row by row, cheaper than many short lists.
_FEW_GROUPS, _GROUP_ROWS = 16, 32


class _GroupStates:
    """The running states of one aggregation: per aggregate call, one
    state per group and, for a DISTINCT call, the set of values each
    group has seen (NULL included, as in the tuple engine's fold)."""

    __slots__ = ("specs", "states", "seen")

    def __init__(self, specs, groups: int = 0) -> None:
        self.specs = specs
        self.states: list[list] = [[] for _ in specs]
        self.seen: list[Optional[list[set]]] = [
            [] if distinct else None for *_, distinct in specs]
        self.add(groups)

    def add(self, count: int) -> None:
        """Open ``count`` new groups."""
        for spec, states, seen in zip(self.specs, self.states, self.seen):
            states.extend([spec[1]] * count)
            if seen is not None:
                seen.extend([set() for _ in range(count)])

    def fold(self, valcols: list[list], row_gids: Optional[list[int]],
             gids: Sequence[int], nrows: int) -> None:
        """Fold one batch of ``nrows`` rows: row ``i`` belongs to group
        ``row_gids[i]`` (``row_gids`` may be ``None`` when the batch is
        one group) and ``gids`` are its distinct groups.  ``valcols``
        are the argument columns, in ``arg_fns`` order; the folds see
        only their non-NULL values, as ``step`` ignores NULLs."""
        specs = list(zip(self.specs, self.states, self.seen))
        nulls = [None in col for col in valcols]
        if len(gids) > 1 and (len(gids) > _FEW_GROUPS
                              or nrows < _GROUP_ROWS * len(gids)):
            args = []
            for col, has_null in zip(valcols, nulls):
                if has_null:
                    keep = list(map(operator.is_not, col, repeat(None)))
                    args.append((list(compress(col, keep)),
                                 list(compress(row_gids, keep))))
                else:
                    args.append((col, row_gids))
            for (arg_index, _, _, fold_rows, _, _), states, seen in specs:
                values, group_of = ((None, row_gids) if arg_index is None
                                    else args[arg_index])
                if seen is not None:
                    keep = [not (v in seen[g] or seen[g].add(v))
                            for g, v in zip(group_of, values)]
                    values = list(compress(values, keep))
                    group_of = list(compress(group_of, keep))
                fold_rows(states, values, group_of)
            return
        for gid in gids:
            cols, n = valcols, nrows
            if len(gids) > 1:
                mask = list(map(gid.__eq__, row_gids))
                cols = [list(compress(col, mask)) for col in valcols]
                n = mask.count(True)
            cols = [[v for v in col if v is not None] if has_null else col
                    for col, has_null in zip(cols, nulls)]
            for (arg_index, _, fold, _, _, _), states, seen in specs:
                values = None if arg_index is None else cols[arg_index]
                if seen is not None:
                    known = seen[gid]
                    add = known.add
                    values = [v for v in values
                              if not (v in known or add(v))]
                states[gid] = fold(states[gid], values, n)

    def finals(self) -> list[list]:
        """One output column per aggregate call, over every group."""
        return [states if spec[4] is None else list(map(spec[4], states))
                for spec, states in zip(self.specs, self.states)]


def _group_keys(batch: Batch, group_positions: list[int]) -> list:
    """Each row's group key: the value itself for one group column, a
    tuple otherwise."""
    if len(group_positions) == 1:
        return batch.columns[group_positions[0]]
    return list(_key_iter(batch, group_positions))


def _key_columns(keys_list: list, group_positions: list[int]) -> list[list]:
    """The group key output columns of :func:`_group_keys`' keys."""
    if len(group_positions) == 1:
        return [keys_list]
    return [list(c) for c in zip(*keys_list)] if group_positions else []


def hash_aggregate_batches(ctx: ExecutionContext, source: Iterable[Batch],
                           group_positions: list[int], arg_fns, specs,
                           size: int) -> Iterator[Batch]:
    """Hash-group ``source`` on ``group_positions`` and fold the
    aggregates; groups come out in first-appearance order.

    Each row's key is hashed once, into the batch's own key dictionary;
    only the batch's distinct keys are looked up among all groups, and
    new groups are numbered in the order their keys first appear."""
    params = ctx.params
    governor = ctx.governor
    groups: dict = {}
    keys_list: list = []
    states = _GroupStates(specs)
    get_gid = groups.get
    held = 0
    try:
        for batch in source:
            local: dict = {}  # key -> its index among the batch's keys
            row_local = [local.setdefault(key, len(local))
                         for key in _group_keys(batch, group_positions)]
            distinct = list(local)
            gids = list(map(get_gid, distinct))
            fresh = 0
            if None in gids:
                for i in compress(range(len(gids)),
                                  map(operator.is_, gids, repeat(None))):
                    gids[i] = groups[distinct[i]] = len(keys_list)
                    keys_list.append(distinct[i])
                    fresh += 1
                states.add(fresh)
            states.fold([fn(batch, params) for fn in arg_fns],
                        list(map(gids.__getitem__, row_local))
                        if len(gids) > 1 else None,
                        gids, batch.nrows)
            # Memory scales with distinct groups, not input rows:
            # charge per new group, batched.
            if governor is not None and fresh:
                governor.hold_rows(fresh)
                held += fresh
        if not keys_list:
            return
        yield from columns_to_batches(
            _key_columns(keys_list, group_positions) + states.finals(),
            len(keys_list), size)
    finally:
        if governor is not None:
            governor.release_rows(held)


def stream_aggregate_batches(ctx: ExecutionContext, source: Iterable[Batch],
                             group_positions: list[int], arg_fns, specs,
                             size: int) -> Iterator[Batch]:
    """Fold aggregates over ``source`` sorted on ``group_positions``: a
    group closes when the key changes."""
    params = ctx.params
    keys_list: list = []
    states = _GroupStates(specs)
    for batch in source:
        keys = _group_keys(batch, group_positions)
        changed = list(map(operator.ne, keys[1:], keys))
        opened = len(keys_list)
        if not keys_list or keys[0] != keys_list[-1]:
            keys_list.append(keys[0])
        first = len(keys_list) - 1  # the group of the batch's first row
        keys_list.extend(map(keys.__getitem__,
                             compress(range(1, batch.nrows), changed)))
        states.add(len(keys_list) - opened)
        gids = range(first, len(keys_list))
        states.fold([fn(batch, params) for fn in arg_fns],
                    list(accumulate(changed, initial=first))
                    if len(gids) > 1 else None, gids, batch.nrows)
    if keys_list:
        yield from columns_to_batches(
            _key_columns(keys_list, group_positions) + states.finals(),
            len(keys_list), size)


# -- aggregate calls ------------------------------------------------------------------

def _aggregate_specs(aggregates: Sequence[tuple[Column, AggregateCall]],
                     layout, bound: AbstractSet[int] = frozenset()):
    """Compile aggregate argument expressions and per-call folds.

    Returns ``(arg_fns, specs)``: ``arg_fns`` are the batch-compiled
    argument expressions, one per *distinct* argument (TPC-H Q1's seven
    arguments are five expressions), and each spec is ``(arg_index,
    initial, fold, fold_rows, final, distinct)``: ``arg_index`` is
    ``None`` for ``count(*)``; ``fold(state, values, n)`` folds a
    group's next ``n`` rows (their non-NULL argument values);
    ``fold_rows(states, values, row_gids)`` folds value ``i`` into group
    ``row_gids[i]``; ``final`` (``None``: identity) gives the result.

    Both forms are :class:`~repro.algebra.aggregates.AggregateDescriptor`
    ``.step``, value by value from left to right: SUM and AVG continue
    the running total with ``operator.add`` (``functools.reduce(
    operator.add, values, total)``), the tuple engine's float evaluation
    order (builtin ``sum`` compensates rounding since CPython 3.12), and
    MIN/MAX replace the running value only by a strictly better one, so
    the first of equal values is kept, on every CPython.
    """
    arg_fns = []
    index_of: dict = {}
    specs = []
    for _, call in aggregates:
        arg_index = None
        if call.argument is not None:
            # 1 and 1.0 are equal literals but not the same argument.
            key = (call.argument, call.argument.sql())
            arg_index = index_of.get(key)
            if arg_index is None:
                arg_index = index_of[key] = len(arg_fns)
                arg_fns.append(compile_vector(call.argument, layout, bound))
        initial, fold, fold_rows, final = _FOLDS[call.func]
        if call.func is AggregateFunction.COUNT_STAR and call.distinct:
            # Degenerate count(distinct *): the shared fold dedupes its
            # (absent) argument, collapsing all rows to one.
            final = partial(min, 1)
        specs.append((arg_index, initial, fold, fold_rows, final,
                      call.distinct and call.argument is not None))
    return arg_fns, specs


def _sum(state, values: list, n: int):
    if not values:
        return state
    return (reduce(operator.add, values) if state is None
            else reduce(operator.add, values, state))


def _sum_rows(states: list, values: list, row_gids: list[int]) -> None:
    for gid, v in zip(row_gids, values):
        total = states[gid]
        states[gid] = v if total is None else total + v


def _avg(state: tuple, values: list, n: int) -> tuple:
    total, count = state
    return _sum(total, values, n), count + len(values)


def _avg_rows(states: list, values: list, row_gids: list[int]) -> None:
    for gid, v in zip(row_gids, values):
        total, count = states[gid]
        states[gid] = (v if total is None else total + v, count + 1)


def _final_avg(state: tuple):
    total, count = state
    return total / count if count else None


def _extreme(pick: Callable, better: Callable) -> tuple:
    """MIN (``min``, ``<``) or MAX (``max``, ``>``) folds."""
    def fold(state, values: list, n: int):
        if not values:
            return state
        return pick(values) if state is None else pick(state, *values)

    def fold_rows(states: list, values: list, row_gids: list[int]) -> None:
        for gid, v in zip(row_gids, values):
            best = states[gid]
            if best is None or better(v, best):
                states[gid] = v
    return None, fold, fold_rows, None


def _count_rows(states: list, values, row_gids: list[int]) -> None:
    for gid, count in Counter(row_gids).items():
        states[gid] += count


#: Per aggregate function: ``(initial, fold, fold_rows, final)``.
_FOLDS = {
    AggregateFunction.COUNT_STAR: (
        0, lambda state, values, n: state + n, _count_rows, None),
    AggregateFunction.COUNT: (
        0, lambda state, values, n: state + len(values), _count_rows, None),
    AggregateFunction.SUM: (None, _sum, _sum_rows, None),
    AggregateFunction.AVG: ((None, 0), _avg, _avg_rows, _final_avg),
    AggregateFunction.MIN: _extreme(min, operator.lt),
    AggregateFunction.MAX: _extreme(max, operator.gt),
}


# Down here because batched_apply builds on the definitions above (Batch,
# match_rows, the sort, the aggregate folds); the package imports this
# module first, so the cycle always resolves in this order.
from .batched_apply import (Bindings, _Unbatchable,  # noqa: E402
                            compile_batched_apply, compile_index_seek)
