"""Well-formedness checks for physical plans.

Mirrors :mod:`.invariants` at the physical level: every expression a
physical operator evaluates must draw its columns from what its inputs
actually deliver (plus any enclosing nested-loops/segment bindings),
every column an operator promises in its layout must be delivered, and
index seeks must probe real index columns with correctly-arityed key
expressions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..algebra.columns import Column
from ..physical.plan import (PConstantScan, PDifference, PFilter,
                             PHashAggregate, PHashJoin, PIndexSeek,
                             PMax1row, PNestedLoopsJoin, PNLApply,
                             PhysicalOp, PProject, PScalarAggregate,
                             PSegmentApply, PSegmentRef, PSort,
                             PStreamAggregate, PTableScan, PTop, PTopN,
                             PUnionAll, outer_references)
from ..physical.required import PLAIN, own_reads
from .issues import AnalysisIssue

#: Optional catalog access: table name -> list of index column-name tuples.
IndexProvider = Callable[[str], list[tuple[str, ...]]]


def verify_physical(plan: PhysicalOp,
                    env: frozenset[int] = frozenset(), *,
                    index_provider: Optional[IndexProvider] = None,
                    ) -> list[AnalysisIssue]:
    """All invariant violations in a physical plan."""
    issues: list[AnalysisIssue] = []
    _walk(plan, env, (), (), index_provider, issues)
    return issues


def _ids(columns: Sequence[Column]) -> list[int]:
    return [c.cid for c in columns]


def _walk(plan: PhysicalOp, env: frozenset[int], path: tuple[int, ...],
          segments: tuple[tuple[int, ...], ...],
          index_provider: Optional[IndexProvider],
          issues: list[AnalysisIssue]) -> None:
    label = plan.label()

    def report(code: str, message: str) -> None:
        issues.append(AnalysisIssue(code, message, node=label, path=path))

    def check_expr(expr, allowed: set[int], what: str) -> None:
        if expr is None:
            return
        for cid in sorted(expr.free_columns().ids()):
            if cid not in allowed:
                report("columns.unresolved",
                       f"{what} {expr.sql()} references column #{cid}, "
                       f"which no input delivers")

    def check_delivered(required: Sequence[Column], allowed: set[int],
                        what: str) -> None:
        for cid in _ids(required):
            if cid not in allowed:
                report("columns.undelivered",
                       f"{what} requires column #{cid}, which no input "
                       f"delivers")

    children = plan.children
    child_cols = [child.columns for child in children]
    delivered = set(env)
    for cols in child_cols:
        delivered.update(_ids(cols))

    out_ids = _ids(plan.columns)
    for cid in sorted({c for c in out_ids if out_ids.count(c) > 1}):
        report("schema.duplicate",
               f"column #{cid} appears {out_ids.count(cid)} times in the "
               f"operator's layout")

    child_envs = [env] * len(children)
    child_segments = [segments] * len(children)

    if isinstance(plan, (PTableScan, PConstantScan)):
        pass
    elif isinstance(plan, PIndexSeek):
        if len(plan.key_exprs) != len(plan.key_columns):
            report("index.key-arity",
                   f"{len(plan.key_columns)} key column(s) but "
                   f"{len(plan.key_exprs)} probe expression(s)")
        scan_ids = set(out_ids)
        table_ids = set(_ids(plan.table_columns))
        for column in plan.key_columns:
            if column.cid not in table_ids:
                report("index.key-scope",
                       f"seek key {column!r} is not a column of the "
                       f"scanned table")
        for cid in sorted(scan_ids - table_ids):
            report("columns.undelivered",
                   f"seek delivers column #{cid}, which is not a column "
                   f"of the scanned table")
        for expr in plan.key_exprs:
            check_expr(expr, set(env), "probe expression")
        check_expr(plan.residual, scan_ids | env, "seek residual")
        if index_provider is not None:
            names = tuple(c.name for c in plan.key_columns)
            if names not in {tuple(cols)
                             for cols in index_provider(plan.table_name)}:
                report("index.no-such-index",
                       f"no index on {plan.table_name} matches seek "
                       f"columns ({', '.join(names)})")
    elif isinstance(plan, PSegmentRef):
        if tuple(out_ids) not in segments:
            report("segment.unbound-ref",
                   "SegmentRef is not bound by any enclosing SegmentApply"
                   " (or its columns do not match the binding)")
    elif isinstance(plan, PFilter):
        check_expr(plan.predicate, delivered, "filter predicate")
        check_delivered(plan.columns, delivered, "pass-through layout")
    elif isinstance(plan, PProject):
        for column, expr in plan.items:
            check_expr(expr, delivered, f"projection of {column!r}")
        produced = {c.cid for c, _ in plan.items}
        check_delivered(plan.columns, produced | env, "projection layout")
    elif isinstance(plan, (PHashJoin, PNestedLoopsJoin, PNLApply)):
        left_ids = set(_ids(child_cols[0]))
        right_ids = set(_ids(child_cols[1]))
        for cid in sorted(left_ids & right_ids):
            report("schema.ambiguous",
                   f"column #{cid} is delivered by both join inputs")
        if isinstance(plan, PHashJoin):
            for expr in plan.left_keys:
                check_expr(expr, left_ids | env, "hash-join probe key")
            for expr in plan.right_keys:
                check_expr(expr, right_ids | env, "hash-join build key")
            if len(plan.left_keys) != len(plan.right_keys):
                report("join.key-arity",
                       f"{len(plan.left_keys)} build key(s) but "
                       f"{len(plan.right_keys)} probe key(s)")
            check_expr(plan.residual, delivered, "join residual")
        elif isinstance(plan, PNestedLoopsJoin):
            check_expr(plan.predicate, delivered, "join predicate")
        else:
            check_expr(plan.predicate, delivered, "apply predicate")
            check_expr(plan.guard, left_ids | env, "apply guard")
            child_envs = [env, env | left_ids]
        check_delivered(plan.columns, delivered, "join output layout")
    elif isinstance(plan, (PHashAggregate, PStreamAggregate)):
        input_ids = set(_ids(child_cols[0])) | env
        check_delivered(plan.group_columns, input_ids, "grouping")
        for column, call in plan.aggregates:
            check_expr(call, input_ids, f"aggregate {column!r}")
        produced = {c.cid for c in plan.group_columns}
        produced.update(c.cid for c, _ in plan.aggregates)
        check_delivered(plan.columns, produced | env, "aggregate layout")
    elif isinstance(plan, PScalarAggregate):
        input_ids = set(_ids(child_cols[0])) | env
        for column, call in plan.aggregates:
            check_expr(call, input_ids, f"aggregate {column!r}")
        produced = {c.cid for c, _ in plan.aggregates}
        check_delivered(plan.columns, produced | env, "aggregate layout")
    elif isinstance(plan, (PSort, PTopN)):
        for expr, _asc in plan.keys:
            check_expr(expr, delivered, "sort key")
        check_delivered(plan.columns, delivered, "pass-through layout")
    elif isinstance(plan, (PTop, PMax1row)):
        check_delivered(plan.columns, delivered, "pass-through layout")
    elif isinstance(plan, PUnionAll):
        for index, imap in enumerate(plan.input_maps):
            if len(imap) != len(plan.columns):
                report("schema.map-arity",
                       f"input {index} map has {len(imap)} column(s) for "
                       f"{len(plan.columns)} output column(s)")
            check_delivered(imap, set(_ids(child_cols[index])) | env,
                            f"input {index} map")
    elif isinstance(plan, PDifference):
        for which, imap, cols in (("left", plan.left_map, child_cols[0]),
                                  ("right", plan.right_map, child_cols[1])):
            if len(imap) != len(plan.columns):
                report("schema.map-arity",
                       f"{which} map has {len(imap)} column(s) for "
                       f"{len(plan.columns)} output column(s)")
            check_delivered(imap, set(_ids(cols)) | env, f"{which} map")
    elif isinstance(plan, PSegmentApply):
        left_ids = set(_ids(child_cols[0]))
        check_delivered(plan.segment_columns, left_ids | env,
                        "segment columns")
        right_ids = set(_ids(child_cols[1]))
        for cid in sorted(left_ids & right_ids):
            report("schema.ambiguous",
                   f"column #{cid} is delivered by both the segmented "
                   f"input and the inner plan")
        seg_ids = {c.cid for c in plan.segment_columns}
        check_delivered(plan.columns, seg_ids | right_ids | env,
                        "segment-apply layout")
        binding = tuple(c.cid for c in plan.inner_columns)
        child_envs = [env, env]
        child_segments = [segments, segments + (binding,)]

    for index, child in enumerate(children):
        _walk(child, child_envs[index], path + (index,),
              child_segments[index], index_provider, issues)


def verify_batch_layout(plan: PhysicalOp,
                        order: Optional[Sequence[Column]] = None
                        ) -> list[AnalysisIssue]:
    """Positional layout invariants of batched execution.

    :func:`verify_physical` checks column *sets* (everything referenced is
    delivered somewhere); the vectorized engine additionally binds columns
    by *position* — a filter passes its child's columns through unchanged,
    a join's output is the left columns followed by the right columns, an
    aggregate's output is its group columns followed by its aggregate
    columns.  The tuple engine compiles against the same positions, but
    the batched engine also gathers whole child columns by index, so a
    plan whose declared ``columns`` sequence drifts from the construction
    rule would silently transpose data.  This walk re-derives each
    operator's expected layout from its inputs and flags any mismatch.

    Memo groups are column sets, so the optimizer enforces column order
    only where a consumer reads by position; this pins those consumers:
    the result delivers ``order`` (when given) and every
    ``PSegmentApply``'s segmented input lines up with its binding.
    """
    issues: list[AnalysisIssue] = []
    if order is not None and _ids(plan.columns) != _ids(order):
        issues.append(AnalysisIssue(
            "order.result",
            f"the plan delivers columns {_ids(plan.columns)} where the "
            f"statement's result is {_ids(order)}", node=plan.label()))
    _walk_batch(plan, (), issues)
    return issues


def _expected_layout(plan: PhysicalOp) -> Sequence[Column] | None:
    """The column sequence ``plan.columns`` must equal positionally, or
    ``None`` when the operator's layout is free (leaves, union maps)."""
    if isinstance(plan, (PFilter, PSort, PTopN, PTop, PMax1row)):
        return plan.children[0].columns
    if isinstance(plan, PProject):
        return [c for c, _ in plan.items]
    if isinstance(plan, (PHashJoin, PNestedLoopsJoin, PNLApply)):
        if plan.kind.left_only_output:
            return plan.left.columns
        return list(plan.left.columns) + list(plan.right.columns)
    if isinstance(plan, (PHashAggregate, PStreamAggregate)):
        return list(plan.group_columns) + [c for c, _ in plan.aggregates]
    if isinstance(plan, PScalarAggregate):
        return [c for c, _ in plan.aggregates]
    if isinstance(plan, PSegmentApply):
        return list(plan.segment_columns) + list(plan.right.columns)
    return None


def _walk_batch(plan: PhysicalOp, path: tuple[int, ...],
                issues: list[AnalysisIssue]) -> None:
    def report(code: str, message: str) -> None:
        issues.append(AnalysisIssue(code, message, node=plan.label(),
                                    path=path))

    expected = _expected_layout(plan)
    if expected is not None and _ids(plan.columns) != _ids(expected):
        report("batch.layout-drift",
               f"declared layout {_ids(plan.columns)} does not match the "
               f"positional construction {_ids(expected)} the executors "
               f"compile against")
    if isinstance(plan, PConstantScan):
        width = len(plan.columns)
        for index, row in enumerate(plan.rows):
            if len(row) != width:
                report("batch.row-arity",
                       f"constant row {index} has {len(row)} value(s) for "
                       f"{width} column(s)")
                break
    elif isinstance(plan, PSegmentApply):
        # The segment binding is the left input's rows verbatim (both
        # engines publish them unchanged), read positionally by the
        # SegmentRef leaves.  The binding columns are fresh-id mirrors
        # of the left columns, so each must match the left column at its
        # position in name and type.
        if len(plan.inner_columns) != len(plan.left.columns):
            report("batch.segment-binding",
                   f"inner binding has {len(plan.inner_columns)} "
                   f"column(s) for a {len(plan.left.columns)}-column "
                   f"segmented input")
        for position, (left, inner) in enumerate(
                zip(plan.left.columns, plan.inner_columns)):
            if (left.name, left.dtype) != (inner.name, inner.dtype):
                report("order.segment-input",
                       f"segmented input delivers {left!r} at position "
                       f"{position}, where the binding mirrors {inner!r}")
                break
    elif isinstance(plan, (PUnionAll, PDifference)):
        maps = (plan.input_maps if isinstance(plan, PUnionAll)
                else [plan.left_map, plan.right_map])
        for index, imap in enumerate(maps):
            if len(imap) != len(plan.columns):
                report("batch.map-arity",
                       f"map {index} selects {len(imap)} column(s) for a "
                       f"{len(plan.columns)}-column output")
    for index, child in enumerate(plan.children):
        _walk_batch(child, path + (index,), issues)


def verify_required_columns(plan: PhysicalOp) -> list[AnalysisIssue]:
    """``columns.unread``: an operator that delivers a column no ancestor
    reads (what :func:`~repro.physical.required.prune_columns` leaves
    none of).

    Judged where a layout is chosen — scans, seeks, constant scans,
    projections and unions; a filter, sort, join or aggregate hands on
    what its inputs deliver and is judged through them.  Exempt: the
    root, whatever a barrier keeps (the inputs of a ``PDifference``, a
    ``PSegmentApply``'s segmented input, output and ``PSegmentRef``
    leaves), and computed projection items, kept because they could
    raise."""
    issues: list[AnalysisIssue] = []
    _walk_reads(plan, None, (), issues)
    return issues


def _walk_reads(plan: PhysicalOp, above: Optional[frozenset[int]],
                path: tuple[int, ...], issues: list[AnalysisIssue]) -> None:
    """``above``: the ids plan's ancestors read of it, ``None`` where
    every column counts as read."""
    own = own_reads(plan)
    if isinstance(plan, PProject):
        choosable = [c for c, e in plan.items if isinstance(e, PLAIN)]
    elif isinstance(plan, (PTableScan, PIndexSeek, PConstantScan,
                           PUnionAll)):
        choosable = plan.columns
    else:
        choosable = []
    if above is not None:
        # a seek's residual reads its own columns; an item does not
        allowed = above if isinstance(plan, PProject) else above | own
        for column in choosable:
            if column.cid not in allowed:
                issues.append(AnalysisIssue(
                    "columns.unread",
                    f"delivers {column!r}, which nothing above reads",
                    node=plan.label(), path=path))
    passed = None if above is None else above | own
    if isinstance(plan, (PHashJoin, PNestedLoopsJoin, PNLApply)):
        left = passed
        if isinstance(plan, PNLApply) and left is not None:
            left = left | outer_references(plan.right)
        inputs = [left, own if plan.kind.left_only_output else passed]
    elif isinstance(plan, (PFilter, PSort, PTopN, PTop, PMax1row)):
        inputs = [passed]
    elif isinstance(plan, PUnionAll):
        inputs = [frozenset(c.cid for c in imap) for imap in plan.input_maps]
    elif isinstance(plan, (PDifference, PSegmentApply)):
        inputs = [None, None]
    else:  # projections and aggregates read what they compute from
        inputs = [own]
    for index, child in enumerate(plan.children):
        _walk_reads(child, inputs[index], path + (index,), issues)
