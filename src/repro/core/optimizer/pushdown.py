"""Selection pushdown.

Sinks filter conjuncts toward the leaves: through projections (by
substitution), into join inputs, through GroupBy when the columns are
grouping columns (the filter/GroupBy condition of paper Section 3.1), and
into UNION ALL branches.  Conjuncts that land on an inner join become the
join predicate — which is what exposes equality columns to the hash-join
and index-lookup implementation rules.

A disjunction that stays on an inner join because it reads both inputs
also sends each input the filter it implies there (:func:`implied_filter`),
so TPC-H Q7's nation pair and Q19's brand/container/quantity test filter
their tables before the join instead of after it.
"""

from __future__ import annotations

from typing import Optional

from ...algebra import (Apply, ColumnRef, Difference, GroupBy, Join,
                        JoinKind, LocalGroupBy, Max1row, Or, Project,
                        RelationalOp, ScalarExpr, ScalarGroupBy, SegmentApply,
                        Select, Sort, Top, UnionAll, conjunction, conjuncts,
                        disjuncts)
from ...algebra.scalar import cannot_raise


def push_selections(rel: RelationalOp) -> RelationalOp:
    """Push filters down as far as semantics allow."""
    return _attach(_walk(rel, []), [])


def factor_conjuncts(parts: list[ScalarExpr]) -> list[ScalarExpr]:
    """Hoist conjuncts common to every branch of a disjunction:
    ``(A ∧ x) ∨ (A ∧ y)  →  A ∧ (x ∨ y)``  (valid in Kleene 3VL by
    distributivity).  This is what lets TPC-H Q19's OR-of-ANDs predicate
    expose its shared ``p_partkey = l_partkey`` equijoin conjunct."""
    result: list[ScalarExpr] = []
    for part in parts:
        if not isinstance(part, Or):
            result.append(part)
            continue
        branches = disjuncts(part)
        branch_conjuncts = [conjuncts(branch) for branch in branches]
        first = branch_conjuncts[0]
        common = [c for c in first
                  if all(any(c == other for other in branch)
                         for branch in branch_conjuncts[1:])]
        if not common:
            result.append(part)
            continue
        result.extend(common)
        residual_branches = []
        for branch in branch_conjuncts:
            remaining = [c for c in branch
                         if not any(c == kept for kept in common)]
            residual_branches.append(conjunction(remaining))
        result.append(Or(residual_branches))
    return result


def implied_filter(part: ScalarExpr,
                   side: RelationalOp) -> Optional[ScalarExpr]:
    """The filter on ``side`` alone implied by the disjunction ``part``:
    ``OR over branches b of (AND of b's conjuncts that read only side)``,
    or None when ``part`` is no OR or some branch has no such conjunct.

    Where ``part`` is TRUE some branch is TRUE, hence so is the implied
    filter: filtering ``side`` by it drops no row that could pass
    ``part``, which stays where it is.  The filter sees rows ``part``
    never saw, so only conjuncts that cannot raise are taken.
    """
    if not isinstance(part, Or):
        return None
    branches = []
    for branch in disjuncts(part):
        local = [c for c in conjuncts(branch)
                 if _subset(c, side) and cannot_raise(c)]
        if not local:
            return None
        branches.append(conjunction(local))
    return Or(branches)


def _attach(rel: RelationalOp, pending: list[ScalarExpr]) -> RelationalOp:
    if not pending:
        return rel
    return Select(rel, conjunction(pending))


def _subset(part: ScalarExpr, rel: RelationalOp) -> bool:
    return part.free_columns().ids() <= frozenset(
        c.cid for c in rel.output_columns())


def _walk(rel: RelationalOp, pending: list[ScalarExpr]) -> RelationalOp:
    if isinstance(rel, Select):
        merged = factor_conjuncts(pending + conjuncts(rel.predicate))
        return _walk(rel.child, merged)

    if isinstance(rel, Project):
        mapping = {c.cid: e for c, e in rel.items}
        if all(p.free_columns().ids() <= frozenset(mapping) for p in pending):
            rewritten = [p.substitute_columns(mapping) for p in pending]
            return Project(_walk(rel.child, rewritten), rel.items)
        return _attach(Project(_walk(rel.child, []), rel.items), pending)

    if isinstance(rel, Join):
        return _walk_join(rel, pending)

    if isinstance(rel, Apply):
        to_left = [p for p in pending if _subset(p, rel.left)]
        stay = [p for p in pending if not _subset(p, rel.left)]
        left = _walk(rel.left, to_left)
        right = _walk(rel.right, [])
        return _attach(Apply(rel.kind, left, right, rel.predicate,
                             rel.guard), stay)

    if isinstance(rel, (GroupBy, LocalGroupBy)):
        # Section 3.1: a filter moves below a GroupBy iff its columns are
        # functionally determined by the grouping columns.  Filters above a
        # GroupBy can only reference its outputs, so this reduces to
        # "references grouping columns only" (anything else touches an
        # aggregate result and must stay).
        group_ids = frozenset(c.cid for c in rel.group_columns)
        down = [p for p in pending if p.free_columns().ids() <= group_ids]
        stay = [p for p in pending
                if not p.free_columns().ids() <= group_ids]
        child = _walk(rel.child, down)
        return _attach(rel.with_children([child]), stay)

    if isinstance(rel, ScalarGroupBy):
        child = _walk(rel.child, [])
        return _attach(ScalarGroupBy(child, rel.aggregates), pending)

    if isinstance(rel, Sort):
        return Sort(_walk(rel.child, pending), rel.keys)

    if isinstance(rel, (Top, Max1row)):
        # Filtering earlier would change which rows pass Top / trigger the
        # Max1row error; block.
        (child,) = rel.children
        return _attach(rel.with_children([_walk(child, [])]), pending)

    if isinstance(rel, UnionAll):
        new_inputs = []
        for source, imap in zip(rel.inputs, rel.input_maps):
            mapping = {out.cid: ColumnRef(src)
                       for out, src in zip(rel.columns, imap)}
            branch_pending = [p.substitute_columns(mapping) for p in pending]
            new_inputs.append(_walk(source, branch_pending))
        return UnionAll(new_inputs, rel.columns, rel.input_maps)

    if isinstance(rel, Difference):
        left_map = {out.cid: ColumnRef(src)
                    for out, src in zip(rel.columns, rel.left_map)}
        right_map = {out.cid: ColumnRef(src)
                     for out, src in zip(rel.columns, rel.right_map)}
        left = _walk(rel.left,
                     [p.substitute_columns(left_map) for p in pending])
        right = _walk(rel.right,
                      [p.substitute_columns(right_map) for p in pending])
        return Difference(left, right, rel.columns, rel.left_map,
                          rel.right_map)

    if isinstance(rel, SegmentApply):
        seg_ids = frozenset(c.cid for c in rel.segment_columns)
        down = [p for p in pending if p.free_columns().ids() <= seg_ids]
        stay = [p for p in pending
                if not p.free_columns().ids() <= seg_ids]
        # Segment-column filters drop whole segments — safe to push left.
        left = _walk(rel.left, down)
        right = _walk(rel.right, [])
        return _attach(SegmentApply(left, right, rel.segment_columns,
                                    rel.inner_columns), stay)

    # Leaves and anything unknown: keep the filters right above.
    children = [_walk(c, []) for c in rel.children]
    if any(n is not o for n, o in zip(children, rel.children)):
        rel = rel.with_children(children)
    return _attach(rel, pending)


def _walk_join(rel: Join, pending: list[ScalarExpr]) -> RelationalOp:
    parts = factor_conjuncts(list(pending))
    on_parts = (factor_conjuncts(conjuncts(rel.predicate))
                if rel.predicate is not None else [])

    if rel.kind is JoinKind.INNER:
        pool = parts + on_parts
        to_left = [p for p in pool if _subset(p, rel.left)]
        rest = [p for p in pool if not _subset(p, rel.left)]
        to_right = [p for p in rest if _subset(p, rel.right)]
        stay = [p for p in rest if not _subset(p, rel.right)]
        for side, pushed in ((rel.left, to_left), (rel.right, to_right)):
            for part in stay:
                implied = implied_filter(part, side)
                if implied is not None and implied not in pushed:
                    pushed.append(implied)
        left = _walk(rel.left, to_left)
        right = _walk(rel.right, to_right)
        return Join(JoinKind.INNER, left, right,
                    conjunction(stay) if stay else None)

    if rel.kind is JoinKind.LEFT_OUTER:
        # Filters above an LOJ referencing only the left side push left;
        # right-side filters above must stay (they see padded NULLs).
        to_left = [p for p in parts if _subset(p, rel.left)]
        stay = [p for p in parts if not _subset(p, rel.left)]
        # ON-clause conjuncts referencing only the right side sink right.
        on_right = [p for p in on_parts if _subset(p, rel.right)]
        on_stay = [p for p in on_parts if not _subset(p, rel.right)]
        left = _walk(rel.left, to_left)
        right = _walk(rel.right, on_right)
        joined = Join(JoinKind.LEFT_OUTER, left, right,
                      conjunction(on_stay) if on_stay else None)
        return _attach(joined, stay)

    # Semi/anti joins: output is the left side.
    to_left = [p for p in parts if _subset(p, rel.left)]
    stay = [p for p in parts if not _subset(p, rel.left)]
    on_right = [p for p in on_parts if _subset(p, rel.right)]
    on_stay = [p for p in on_parts if not _subset(p, rel.right)]
    left = _walk(rel.left, to_left)
    right = _walk(rel.right, on_right)
    joined = Join(rel.kind, left, right,
                  conjunction(on_stay) if on_stay else None)
    return _attach(joined, stay)
