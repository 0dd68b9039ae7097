"""Segmented execution — paper Section 3.4.

``SegmentApply`` introduction looks for "two instances of an expression
connected by a join, where one of the expressions may optionally have an
extra aggregate and/or an extra filter", keyed by "a conjunct in the join
predicate that is an equality comparison between two instances of the same
column" (Section 3.4.1).  Structural equivalence is checked with
``plan_signature`` (plan shape modulo column identities).

Two placements are generated:

* the direct Figure-6 form — the aggregated branch's input matches the
  *whole* other join input;
* the Figure-7 form — the input matches one branch ``T`` of the other
  side's join ``T ⋈q U``, which is sound when ``q`` joins on the segment
  column (all-or-none per segment) and either ``U`` is unique on its join
  columns or every aggregate is invariant under uniform duplication
  (avg/min/max) — this is exactly the paper's join-pushdown-below-
  SegmentApply result, derived directly.

``push_join_below_segment_apply`` implements the Section 3.4.2 rewrite
``(R SA_A E) ⋈p T = (R ⋈p T) SA_{A∪columns(T)} E`` as a separate step so
the Figure 6 → Figure 7 derivation can also be exercised explicitly.

All rewrites here are *alternative generators*: the optimizer adds every
variant to the root group of the statement's memo, and the cost model
chooses.
"""

from __future__ import annotations

from typing import Optional

from ...algebra import (AggregateCall, Column, ColumnRef, Comparison, GroupBy,
                        Join, JoinKind, Project, RelationalOp, SegmentApply,
                        SegmentRef, Select, conjunction, conjuncts, derive_fds,
                        derive_keys, plan_signature, transform_bottom_up)


#: Whole-tree SegmentApply variants generated per statement, at most.
MAX_VARIANTS = 8


def segment_alternatives(rel: RelationalOp) -> list[RelationalOp]:
    """Whole-tree variants that use SegmentApply somewhere.

    SegmentApply patterns surface only once the GroupBy has moved below
    the join (Kim-style aggregate-then-join shape), so tree-level GroupBy
    pushdown variants are generated first and introduction is attempted on
    each.
    """
    variants: list[RelationalOp] = []
    seen: set[str] = {plan_signature(rel)}

    def consider(tree: RelationalOp) -> None:
        signature = plan_signature(tree)
        if signature not in seen and len(variants) < MAX_VARIANTS:
            seen.add(signature)
            variants.append(tree)

    bases = [rel] + _groupby_pushdown_variants(rel)
    for base in bases:
        for candidate in _introduce_everywhere(base):
            consider(candidate)
            for pushed in _push_joins_below(candidate):
                consider(pushed)
    return variants


def _groupby_pushdown_variants(rel: RelationalOp) -> list[RelationalOp]:
    """Tree-level application of the Section 3.1/3.2 pushdown, to expose
    the join-of-two-instances pattern."""
    from .rules import GroupByPushBelowJoin

    rule = GroupByPushBelowJoin()
    results: list[RelationalOp] = []

    def visit(node: RelationalOp, rebuild) -> None:
        if rule.matches(node):
            for rewritten in rule.apply(node, memo=None):
                results.append(rebuild(rewritten))
        for i, child in enumerate(node.children):
            def child_rebuild(new_child, i=i, node=node):
                children = list(node.children)
                children[i] = new_child
                return rebuild(node.with_children(children))
            visit(child, child_rebuild)

    visit(rel, lambda n: n)
    return results


# ---------------------------------------------------------------------------
# Introduction (Section 3.4.1)
# ---------------------------------------------------------------------------

def _introduce_everywhere(rel: RelationalOp) -> list[RelationalOp]:
    """Each possible single SegmentApply introduction, as a whole tree."""
    results: list[RelationalOp] = []

    def visit(node: RelationalOp, rebuild) -> None:
        if isinstance(node, Join) and node.kind is JoinKind.INNER:
            replacement = _try_introduce(node)
            if replacement is not None:
                results.append(rebuild(replacement))
        for i, child in enumerate(node.children):
            def child_rebuild(new_child, i=i, node=node):
                children = list(node.children)
                children[i] = new_child
                return rebuild(node.with_children(children))
            visit(child, child_rebuild)

    visit(rel, lambda n: n)
    return results


def _try_introduce(join: Join) -> Optional[RelationalOp]:
    for left, right, swapped in ((join.left, join.right, False),
                                 (join.right, join.left, True)):
        built = _introduce_for(left, right, join, swapped)
        if built is not None:
            return built
    return None


def _introduce_for(outer: RelationalOp, agg_branch: RelationalOp,
                   join: Join, swapped: bool) -> Optional[RelationalOp]:
    """Try SegmentApply with ``outer`` segmented and ``agg_branch`` being
    the aggregated instance."""
    stripped = _strip_aggregate_branch(agg_branch)
    if stripped is None:
        return None
    groupby, wrappers = stripped
    core = groupby.child

    # Where inside `outer` does the aggregated input match?
    anchors = [outer]
    passthrough_unique = {}
    if isinstance(outer, Join) and outer.kind is JoinKind.INNER:
        anchors.extend([outer.left, outer.right])
    for anchor in anchors:
        mapping = _signature_mapping(core, anchor)
        if mapping is None:
            continue
        built = _build_segment_apply(outer, anchor, mapping, groupby,
                                     wrappers, join, swapped)
        if built is not None:
            return built
    return None


def _strip_aggregate_branch(branch: RelationalOp):
    """Peel [Project] [Select] off a GroupBy branch; reject other shapes."""
    wrappers: list[RelationalOp] = []
    node = branch
    for _ in range(3):
        if isinstance(node, (Project, Select)):
            wrappers.append(node)
            node = node.children[0]
            continue
        break
    if isinstance(node, GroupBy):
        return node, wrappers
    return None


def _signature_mapping(core: RelationalOp,
                       anchor: RelationalOp) -> Optional[dict[int, Column]]:
    """Positional output mapping core→anchor when shapes coincide."""
    if plan_signature(core) != plan_signature(anchor):
        return None
    core_out = core.output_columns()
    anchor_out = anchor.output_columns()
    if len(core_out) != len(anchor_out):
        return None
    return {c.cid: a for c, a in zip(core_out, anchor_out)}


def _build_segment_apply(outer: RelationalOp, anchor: RelationalOp,
                         mapping: dict[int, Column], groupby: GroupBy,
                         wrappers: list[RelationalOp], join: Join,
                         swapped: bool) -> Optional[RelationalOp]:
    branch_cols = {c.cid for c in _branch_output(groupby, wrappers)}
    outer_ids = {c.cid for c in outer.output_columns()}

    # Find the segmenting equality conjuncts.
    segment_pairs: list[tuple[Column, Column]] = []  # (outer col, core col)
    residual: list = []
    predicate_parts = (conjuncts(join.predicate)
                       if join.predicate is not None else [])
    group_to_core = {}
    for gc in groupby.group_columns:
        group_to_core[gc.cid] = gc  # group cols pass through from core
    fds = derive_fds(outer)
    for part in predicate_parts:
        pair = _segment_equality(part, outer_ids, branch_cols,
                                 groupby, mapping, fds, outer)
        if pair is not None:
            segment_pairs.append(pair)
        else:
            residual.append(part)
    if not segment_pairs:
        return None

    # If the anchor is a proper branch of `outer`, verify the all-or-none
    # and duplication conditions for the other branch.
    if anchor is not outer:
        if not _intermediate_join_safe(outer, anchor, segment_pairs,
                                       groupby):
            return None

    # Build the parameterized inner tree over a shared SegmentRef.
    inner_columns = [c.fresh_copy() for c in outer.output_columns()]
    outer_to_inner = {c.cid: ic for c, ic in
                      zip(outer.output_columns(), inner_columns)}
    seg_ref_left = SegmentRef(inner_columns)

    # Aggregated instance: replace `core` with the segment, remapping the
    # core's columns through anchor position to the segment mirror.
    core_to_inner = {}
    for core_cid, anchor_col in mapping.items():
        core_to_inner[core_cid] = ColumnRef(outer_to_inner[anchor_col.cid])
    grouped_mirrors = [_as_column(core_to_inner[c.cid])
                       for c in groupby.group_columns]
    agg_over_segment: RelationalOp = GroupBy(
        SegmentRef(inner_columns),
        grouped_mirrors,
        [(col, _remap_call(call, core_to_inner))
         for col, call in groupby.aggregates])
    # The grouping outputs get fresh identities: the left SegmentRef of
    # the inner join already delivers the mirrors, and a join must not
    # receive the same column from both inputs.
    fresh_groups = [c.fresh_copy() for c in grouped_mirrors]
    rename_items = [(fresh, ColumnRef(mirror)) for fresh, mirror
                    in zip(fresh_groups, grouped_mirrors)]
    rename_items += [(col, ColumnRef(col)) for col, _ in groupby.aggregates]
    agg_over_segment = Project(agg_over_segment, rename_items)
    group_rename = {gc.cid: fresh for gc, fresh
                    in zip(groupby.group_columns, fresh_groups)}
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, Select):
            pred = wrapper.predicate.substitute_columns(
                {cid: ColumnRef(col) for cid, col in group_rename.items()})
            agg_over_segment = Select(agg_over_segment, pred)
        else:
            items = [(c, e.substitute_columns(
                {cid: ColumnRef(col) for cid, col in group_rename.items()}))
                for c, e in wrapper.items]
            agg_over_segment = Project(agg_over_segment, items)

    # The join inside the segment: segment rows vs their aggregate.
    # Residual conjuncts may reference outer columns (→ their mirrors)
    # or the branch's grouping columns (→ their fresh renames).
    rename_for_pred = {c.cid: ColumnRef(outer_to_inner[c.cid])
                       for c in outer.output_columns()}
    for gc_cid, fresh in group_rename.items():
        rename_for_pred[gc_cid] = ColumnRef(fresh)
    inner_parts = []
    for part in residual:
        inner_parts.append(part.substitute_columns(rename_for_pred))
    for outer_col, _ in segment_pairs:
        pass  # segment equalities hold by construction inside a segment
    inner_predicate = conjunction(inner_parts) if inner_parts else None
    inner_join = Join(JoinKind.INNER, seg_ref_left, agg_over_segment,
                      inner_predicate)

    branch_out = _branch_output(groupby, wrappers)
    segment_cols = [pair[0] for pair in segment_pairs]
    segment_apply = SegmentApply(outer, inner_join, segment_cols,
                                 inner_columns)

    # Restore the original join's output columns.  Segment columns are
    # delivered by the SegmentApply itself, so they stay identity items
    # (re-deriving them from the mirrors would shadow the child's output).
    segment_ids = {c.cid for c in segment_cols}
    items = []
    for column in join.output_columns():
        if column.cid in segment_ids:
            items.append((column, ColumnRef(column)))
        elif column.cid in outer_to_inner:
            items.append((column, ColumnRef(outer_to_inner[column.cid])))
        elif column.cid in group_rename:
            items.append((column, ColumnRef(group_rename[column.cid])))
        else:
            items.append((column, ColumnRef(column)))
    return Project(segment_apply, items)


def _branch_output(groupby: GroupBy, wrappers: list[RelationalOp]):
    if wrappers:
        return wrappers[0].output_columns()
    return groupby.output_columns()


def _as_column(ref: ColumnRef) -> Column:
    return ref.column


def _remap_call(call: AggregateCall, mapping) -> AggregateCall:
    if call.argument is None:
        return call
    return AggregateCall(call.func,
                         call.argument.substitute_columns(mapping),
                         call.distinct)


def _segment_equality(part, outer_ids, branch_ids, groupby: GroupBy,
                      mapping, fds, outer) -> Optional[tuple[Column, Column]]:
    """Match ``outer_col = group_col`` where both are instances of the same
    underlying column (directly or via FDs of the outer side)."""
    if not (isinstance(part, Comparison) and part.op == "="
            and isinstance(part.left, ColumnRef)
            and isinstance(part.right, ColumnRef)):
        return None
    a, b = part.left.column, part.right.column
    if a.cid in outer_ids and b.cid in branch_ids:
        outer_col, branch_col = a, b
    elif b.cid in outer_ids and a.cid in branch_ids:
        outer_col, branch_col = b, a
    else:
        return None
    # The branch column must be a grouping column passing through from core.
    if branch_col.cid not in {gc.cid for gc in groupby.group_columns}:
        return None
    anchor_col = mapping.get(branch_col.cid)
    if anchor_col is None:
        return None
    if anchor_col.cid == outer_col.cid:
        return anchor_col, branch_col
    # FD-equivalence inside the outer side (e.g. l_partkey ≡ p_partkey).
    if fds.determines({outer_col.cid}, {anchor_col.cid}) and \
            fds.determines({anchor_col.cid}, {outer_col.cid}):
        return anchor_col, branch_col
    return None


def _intermediate_join_safe(outer: RelationalOp, anchor: RelationalOp,
                            segment_pairs, groupby: GroupBy) -> bool:
    """Figure-7 condition: the join combining the matched branch with the
    rest must be all-or-none per segment, and must not scale aggregates
    unless they are duplication-invariant."""
    if not (isinstance(outer, Join) and outer.kind is JoinKind.INNER):
        return False
    other = outer.right if anchor is outer.left else outer.left
    other_ids = {c.cid for c in other.output_columns()}
    anchor_ids = {c.cid for c in anchor.output_columns()}
    segment_ids = {pair[0].cid for pair in segment_pairs}

    parts = (conjuncts(outer.predicate)
             if outer.predicate is not None else [])
    other_join_cols: set[int] = set()
    for part in parts:
        ids = part.free_columns().ids()
        if ids <= other_ids:
            continue  # pre-filter of the other side: fine
        if (isinstance(part, Comparison) and part.op == "="
                and isinstance(part.left, ColumnRef)
                and isinstance(part.right, ColumnRef)):
            x, y = part.left.column, part.right.column
            if x.cid in anchor_ids and y.cid in other_ids:
                anchor_side, other_side = x, y
            elif y.cid in anchor_ids and x.cid in other_ids:
                anchor_side, other_side = y, x
            else:
                return False
            # all-or-none: the anchor side must be a segment column (or
            # FD-equal to one).
            fds = derive_fds(anchor)
            if anchor_side.cid not in segment_ids and not any(
                    fds.determines({anchor_side.cid}, {sid})
                    and fds.determines({sid}, {anchor_side.cid})
                    for sid in segment_ids & anchor_ids):
                # Segment columns may live on the other side (FD-equated);
                # accept if the pair's outer column IS this other column.
                if anchor_side.cid not in {p[0].cid for p in segment_pairs}:
                    return False
            other_join_cols.add(other_side.cid)
            continue
        return False  # non-equality cross-side predicate filters partially

    if not other_join_cols:
        return False
    # k ≤ 1 (other side unique on its join columns) or duplication-invariant
    # aggregates only.
    unique = any(key <= other_join_cols for key in derive_keys(other))
    if unique:
        return True
    return all(call.descriptor.duplicate_insensitive
               for _, call in groupby.aggregates)


# ---------------------------------------------------------------------------
# Join pushdown below SegmentApply (Section 3.4.2)
# ---------------------------------------------------------------------------

def _push_joins_below(rel: RelationalOp) -> list[RelationalOp]:
    """All variants obtained by pushing one join below one SegmentApply."""
    results: list[RelationalOp] = []

    def visit(node: RelationalOp, rebuild) -> None:
        if isinstance(node, Join) and node.kind is JoinKind.INNER:
            for sa_side, t_side, swapped in (
                    (node.left, node.right, False),
                    (node.right, node.left, True)):
                if isinstance(sa_side, SegmentApply):
                    pushed = push_join_below_segment_apply(
                        node, sa_side, t_side)
                    if pushed is not None:
                        results.append(rebuild(pushed))
        for i, child in enumerate(node.children):
            def child_rebuild(new_child, i=i, node=node):
                children = list(node.children)
                children[i] = new_child
                return rebuild(node.with_children(children))
            visit(child, child_rebuild)

    visit(rel, lambda n: n)
    return results


def push_join_below_segment_apply(join: Join, sa: SegmentApply,
                                  other: RelationalOp
                                  ) -> Optional[RelationalOp]:
    """``(R SA_A E) ⋈p T = (R ⋈p T) SA_{A∪columns(T)} E``
    iff ``columns(p) ⊆ A ∪ columns(T)``."""
    allowed = ({c.cid for c in sa.segment_columns}
               | {c.cid for c in other.output_columns()})
    if join.predicate is not None and \
            not join.predicate.free_columns().ids() <= allowed:
        return None

    new_left = Join(JoinKind.INNER, sa.left, other, join.predicate)
    t_mirrors = [c.fresh_copy() for c in other.output_columns()]
    new_inner_columns = list(sa.inner_columns) + t_mirrors
    new_ref = SegmentRef(new_inner_columns)

    old_ref_ids = frozenset(c.cid for c in sa.inner_columns)

    def replace_ref(node: RelationalOp) -> RelationalOp:
        if isinstance(node, SegmentRef) and \
                frozenset(c.cid for c in node.columns) == old_ref_ids:
            return Project.passthrough(SegmentRef(new_inner_columns),
                                       node.columns)
        return node

    new_right = transform_bottom_up(sa.right, replace_ref)
    new_segment_cols = list(sa.segment_columns) + list(
        other.output_columns())
    new_sa = SegmentApply(new_left, new_right, new_segment_cols,
                          new_inner_columns)
    return Project.passthrough(new_sa, join.output_columns())
