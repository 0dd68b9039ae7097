"""Required columns: a plan carries only the columns something reads.

One linear, top-down pass over a chosen physical plan.  Each operator
keeps the columns its parent reads plus those its own expressions read,
and a column nothing reads is dropped where it is produced: a scan or a
seek reads only those stored columns, a projection computes only those
items.  The optimizer driver runs it once on the plan it hands out for a
statement (:meth:`~repro.core.optimizer.Optimizer.optimize_with_cost`,
:meth:`~repro.core.optimizer.Optimizer.heuristic_plan`); it builds new
nodes and never changes the ones it was given, so the memo's plans stay
as they were.

Barriers keep every column: the inputs of a ``PDifference`` (rows are
compared whole), a ``PSegmentApply``'s segmented input and output and
its ``PSegmentRef`` leaves (a segment is keyed by its column-id set and
read by position).  A ``PNLApply``'s left side also keeps what its right
side reads from it (:func:`~.plan.outer_references`), and a
``PUnionAll`` drops the same positions of every input.

Projections: adjacent ``PProject``\\ s merge into one, and a ``PProject``
whose items only pass columns through is deleted wherever its parent
resolves columns by id (never where its layout is the result's, or a
barrier's).  An unread item is dropped only when it is a column
reference, a literal or a parameter: a computed item, which could
raise, is kept, so no statement's error behaviour changes.

Column order always follows an operator's old column list, never a set,
so a plan prints the same in every process.
"""

from __future__ import annotations

import copy
from typing import Iterable, Optional, Sequence

from ..algebra.columns import Column
from ..algebra.scalar import ColumnRef, Literal, Parameter, ScalarExpr
from .plan import (PConstantScan, PNLApply, PProject, PhysicalOp,
                   join_columns, node_expressions, outer_references)

#: What a parent reads of a node: column ids, or ``None`` for all of
#: the node's columns.
Needed = Optional[frozenset[int]]

#: Projection items that cannot raise, and so may be dropped unread.
PLAIN = (ColumnRef, Literal, Parameter)

Item = tuple[Column, ScalarExpr]


def prune_columns(plan: PhysicalOp) -> PhysicalOp:
    """``plan`` with every operator narrowed to the columns read above
    it; the root keeps all of its columns, in order."""
    return _Pruner().prune(plan, None, True)


def is_pass_through(items: Sequence[Item]) -> bool:
    """Whether a projection only hands its input's columns on."""
    return all(isinstance(expr, ColumnRef) and expr.column.cid == column.cid
               for column, expr in items)


def reads(exprs: Iterable[Optional[ScalarExpr]]) -> frozenset[int]:
    """The column ids ``exprs`` read (``None`` entries skipped)."""
    ids: set[int] = set()
    for expr in exprs:
        if expr is not None:
            ids.update(expr.free_columns().ids())
    return frozenset(ids)


def own_reads(plan: PhysicalOp) -> frozenset[int]:
    """The column ids ``plan`` itself reads: its expressions' and its
    group columns."""
    return reads(node_expressions(plan)) | {
        c.cid for c in getattr(plan, "group_columns", ())}


def _with(needed: Needed, more: frozenset[int]) -> Needed:
    return None if needed is None else needed | more


def _replaced(plan: PhysicalOp, **fields) -> PhysicalOp:
    """A copy of ``plan`` (its row estimate, which runtime feedback
    compares actuals against, included) with ``fields`` replaced."""
    new = copy.copy(plan)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


class _Pruner:
    """One pass; ``prune(node, needed, exact)`` is memoized so a node
    shared by two parents that need the same columns stays shared.

    ``exact`` is set where the node's layout is seen whole — the result,
    a barrier's input, or through pass-through operators up to one of
    those — so no pass-through projection may be deleted there (its
    input can carry more columns than it does)."""

    def __init__(self) -> None:
        self._done: dict[tuple, PhysicalOp] = {}

    def prune(self, plan: PhysicalOp, needed: Needed,
              exact: bool) -> PhysicalOp:
        key = (plan, needed, exact)  # nodes hash by identity
        done = self._done.get(key)
        if done is None:
            method = getattr(self, "_" + type(plan).__name__)
            done = self._done[key] = method(plan, needed, exact)
        return done

    def _leaf(self, plan, needed: Needed, exact: bool) -> PhysicalOp:
        """A scan or seek reads the stored columns read above it or by
        its own residual."""
        wanted = _with(needed, own_reads(plan))
        keep = [c for c in plan.columns if wanted is None or c.cid in wanted]
        if len(keep) == len(plan.columns):
            return plan
        return _replaced(plan, columns=keep)

    _PTableScan = _PIndexSeek = _leaf

    def _PConstantScan(self, plan: PConstantScan, needed: Needed,
                       exact: bool) -> PhysicalOp:
        positions = [i for i, c in enumerate(plan.columns)
                     if needed is None or c.cid in needed]
        if len(positions) == len(plan.columns):
            return plan
        return _replaced(
            plan, columns=[plan.columns[i] for i in positions],
            rows=[tuple(row[i] for i in positions) for row in plan.rows])

    def _PSegmentRef(self, plan, needed: Needed, exact: bool) -> PhysicalOp:
        return plan

    def _pass_through(self, plan, needed: Needed,
                      exact: bool) -> PhysicalOp:
        """Filter, Sort, TopN, Top, Max1row: their layout is their
        input's."""
        child = self.prune(plan.child, _with(needed, own_reads(plan)), exact)
        if child is plan.child:
            return plan
        return _replaced(plan, child=child, columns=list(child.columns))

    _PFilter = _PSort = _PTopN = _PTop = _PMax1row = _pass_through

    def _PProject(self, plan: PProject, needed: Needed,
                  exact: bool) -> PhysicalOp:
        items = [(c, e) for c, e in plan.items
                 if needed is None or c.cid in needed
                 or not isinstance(e, PLAIN)]
        child = self.prune(plan.child, reads(e for _, e in items), False)
        if isinstance(child, PProject):
            merged = merge_projections(items, child.items, exact)
            if merged is not None:
                items, child = merged, child.child
        if not exact and is_pass_through(items):
            return child
        if child is plan.child and len(items) == len(plan.items):
            return plan
        return _replaced(plan, child=child, items=items,
                         columns=[c for c, _ in items])

    def _join(self, plan, needed: Needed, exact: bool) -> PhysicalOp:
        """HashJoin, NestedLoops, NLApply: the left columns, then (unless
        left rows only come out) the right ones."""
        own = own_reads(plan)
        if plan.kind.left_only_output:
            right = self.prune(plan.right, own, False)
        else:
            right = self.prune(plan.right, _with(needed, own), exact)
        left_needed = _with(needed, own)
        if isinstance(plan, PNLApply):
            left_needed = _with(left_needed, outer_references(right))
        left = self.prune(plan.left, left_needed, exact)
        if left is plan.left and right is plan.right:
            return plan
        return _replaced(plan, left=left, right=right,
                         columns=join_columns(plan.kind, left, right))

    _PHashJoin = _PNestedLoopsJoin = _PNLApply = _join

    def _grouped(self, plan, needed: Needed, exact: bool) -> PhysicalOp:
        """The aggregates keep every group column and aggregate."""
        child = self.prune(plan.child, own_reads(plan), False)
        return plan if child is plan.child else _replaced(plan, child=child)

    _PHashAggregate = _PStreamAggregate = _PScalarAggregate = _grouped

    def _PUnionAll(self, plan, needed: Needed, exact: bool) -> PhysicalOp:
        positions = [i for i, c in enumerate(plan.columns)
                     if needed is None or c.cid in needed]
        maps = [[imap[i] for i in positions] for imap in plan.input_maps]
        inputs = [self.prune(source, frozenset(c.cid for c in imap), False)
                  for source, imap in zip(plan.inputs, maps)]
        if len(positions) == len(plan.columns) and all(
                a is b for a, b in zip(inputs, plan.inputs)):
            return plan
        return _replaced(plan, inputs=inputs, input_maps=maps,
                         columns=[plan.columns[i] for i in positions])

    def _PDifference(self, plan, needed: Needed, exact: bool) -> PhysicalOp:
        left = self.prune(plan.left, None, True)
        right = self.prune(plan.right, None, True)
        if left is plan.left and right is plan.right:
            return plan
        return _replaced(plan, left=left, right=right)

    def _PSegmentApply(self, plan, needed: Needed,
                       exact: bool) -> PhysicalOp:
        left = self.prune(plan.left, None, True)
        right = self.prune(plan.right, None, exact)
        if left is plan.left and right is plan.right:
            return plan
        return _replaced(plan, left=left, right=right,
                         columns=plan.segment_columns + right.columns)


def merge_projections(items: Sequence[Item], below: Sequence[Item],
                      exact: bool) -> Optional[list[Item]]:
    """``items`` computed over a projection of ``below``, as one list of
    items over ``below``'s input; ``None`` where one projection could
    evaluate differently from the two.

    Either side must be plain.  Over plain ``below`` items, ``items``
    read through them.  Plain ``items`` take ``below``'s expressions,
    and ``below``'s computed items nothing reads are kept after them
    (so not where the layout is ``exact``); the computed items must
    still be evaluated in their old order, so that a row that makes two
    of them raise raises the same error."""
    definitions = {c.cid: e for c, e in below}
    if all(isinstance(e, PLAIN) for _, e in below):
        return [(c, e.substitute_columns(definitions)) for c, e in items]
    if not all(isinstance(e, PLAIN) for _, e in items):
        return None
    order = {c.cid: i for i, (c, e) in enumerate(below)
             if not isinstance(e, PLAIN)}
    taken = [e.column.cid for _, e in items if isinstance(e, ColumnRef)]
    kept = [(c, e) for c, e in below
            if c.cid in order and c.cid not in taken]
    if kept and exact:
        return None
    evaluated = [order[cid] for cid in dict.fromkeys(taken) if cid in order]
    evaluated += [order[c.cid] for c, _ in kept]
    if evaluated != sorted(evaluated):
        return None
    return [(c, definitions.get(e.column.cid, e)
             if isinstance(e, ColumnRef) else e) for c, e in items] + kept
