"""Removal of Apply — paper Section 2.3 (identities (1)–(9) of Figure 4).

The process "consists of pushing down Apply in the operator tree, towards
the leaves, until the right child of Apply is no longer parameterized off
the left child", at which point the Apply becomes an ordinary join variant
(identities (1)/(2)).

Implementation notes:

* Parameterized Selects are folded into the Apply's predicate — the
  composition of identities (2)/(3): once the right side is uncorrelated,
  ``Apply[kind](R, E, p)`` is exactly ``Join[kind](R, E, p)``.
* Identity (9) (scalar aggregate) performs the paper's ``F → F'``
  substitution — aggregates for which ``agg(∅) ≠ agg({NULL})``, i.e.
  ``count(*)``, are re-expressed over a manufactured non-nullable *probe*
  column, avoiding the classic count bug.
* Identities (5)/(6)/(7) introduce *common subexpressions* (copies of
  ``R``); they define subquery Class 2 and are gated behind
  ``class2_rewrites`` — the paper's implementation likewise does not apply
  them during normalization.
* Class 3 constructs (``Max1row``) and parameterized Top stop the pushdown;
  the residual Apply simply remains in the tree, and the executor runs it
  as correlated execution, exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...algebra import (AggregateCall, AggregateFunction, Apply, Case, Column,
                        ColumnRef, DataType, Difference, GroupBy, IsNull, Join,
                        JoinKind, Literal, LocalGroupBy, Max1row, Project,
                        RelationalOp, ScalarExpr, ScalarGroupBy, Select, Sort,
                        Top, UnionAll, clone_with_fresh_columns, conjunction,
                        has_key, max_one_row, strict_columns,
                        substitute_outer_columns, transform_bottom_up)


@dataclass
class ApplyRemovalConfig:
    """Knobs for the decorrelation pass."""

    class2_rewrites: bool = False  # identities (5)/(6)/(7)
    max_passes: int = 64


def remove_applies(rel: RelationalOp,
                   config: ApplyRemovalConfig | None = None) -> RelationalOp:
    """Push down / eliminate Apply operators until fixpoint."""
    config = config or ApplyRemovalConfig()
    for _ in range(config.max_passes):
        changed = False

        def step(node: RelationalOp) -> RelationalOp:
            nonlocal changed
            if isinstance(node, Apply):
                rewritten = _step_apply(node, config)
                if rewritten is not None:
                    changed = True
                    return rewritten
            return node

        rel = transform_bottom_up(rel, step)
        if not changed:
            return rel
    return rel


def is_not_true(predicate: ScalarExpr) -> ScalarExpr:
    """A predicate that is TRUE exactly when ``predicate`` is FALSE or
    UNKNOWN (used when rewriting antijoin semantics over single-row
    inputs)."""
    return Case([(predicate, Literal(False))], Literal(True))


def _step_apply(apply: Apply,
                config: ApplyRemovalConfig) -> RelationalOp | None:
    """One pushdown step; ``None`` when no rule fires."""
    if apply.guard is not None:
        # Conditional scalar execution (Section 2.4): the right side must
        # not run for unguarded rows — eager flattening is incorrect (it
        # could raise a run-time error the query semantics forbid).  The
        # Apply stays correlated.
        return None

    left, right = apply.left, apply.right
    left_ids = {c.cid for c in left.output_columns()}
    correlated = right.outer_references().ids() & frozenset(left_ids)

    if not correlated:
        # Identities (1)/(2): the right side no longer parameterizes on the
        # left — the Apply *is* a join.
        return Join(apply.kind, left, right, apply.predicate)

    if isinstance(right, Select):
        # Fold the parameterized select into the Apply predicate
        # (composition of identities (2)/(3)).
        merged = conjunction(
            p for p in (apply.predicate, right.predicate) if p is not None)
        return Apply(apply.kind, left, right.child, merged)

    if isinstance(right, Project):
        return _push_through_project(apply, right)

    if isinstance(right, ScalarGroupBy):
        return _identity9(apply, right)

    if isinstance(right, (GroupBy, LocalGroupBy)):
        return _identity8(apply, right)

    if isinstance(right, Join):
        return _push_into_join(apply, right, config)

    if isinstance(right, UnionAll):
        if config.class2_rewrites and apply.kind is JoinKind.INNER \
                and apply.predicate is None:
            return _identity5(apply, right)
        return None

    if isinstance(right, Difference):
        if config.class2_rewrites and apply.kind is JoinKind.INNER \
                and apply.predicate is None:
            return _identity6(apply, right)
        return None

    if isinstance(right, Max1row):
        if max_one_row(right.child):
            return Apply(apply.kind, left, right.child, apply.predicate)
        return None  # Class 3: keep correlated execution.

    if isinstance(right, Sort):
        # Bag semantics: an inner ordering without Top is meaningless.
        return Apply(apply.kind, left, right.child, apply.predicate)

    if isinstance(right, Top):
        return None  # parameterized Top has no relational equivalent here

    return None


# ---------------------------------------------------------------------------
# Identity (4) and the semi/anti projection elision
# ---------------------------------------------------------------------------

def _push_through_project(apply: Apply, project: Project
                          ) -> RelationalOp | None:
    mapping = {c.cid: e for c, e in project.items
               if not (isinstance(e, ColumnRef) and e.column == c)}
    predicate = apply.predicate
    if predicate is not None and mapping:
        predicate = predicate.substitute_columns(mapping)

    if apply.kind.left_only_output:
        # Semi/anti joins ignore the right-side output entirely; the
        # projection can simply be dropped (after predicate inlining).
        return Apply(apply.kind, apply.left, project.child, predicate)

    if apply.kind is JoinKind.INNER:
        # Identity (4): π_{v ∪ columns(R)} (R A× E)
        inner = Apply(JoinKind.INNER, apply.left, project.child, predicate)
        items = [(c, ColumnRef(c)) for c in apply.left.output_columns()]
        items.extend(project.items)
        return Project(inner, items)

    # LEFT OUTER: pushing the projection above the Apply changes the NULL
    # padding for items that are not strict in the inner columns (a literal
    # would evaluate on padded rows).  Such items are wrapped in
    # CASE WHEN <detector IS NOT NULL> THEN item END, where the detector is
    # a non-nullable inner column — the paper's "detection of unmatched
    # rows requires a non-nullable column from the inner side" (footnote 2).
    child_ids = {c.cid for c in project.child.output_columns()}
    detector = next((c for c in project.child.output_columns()
                     if not c.nullable), None)
    items: list[tuple[Column, ScalarExpr]] = [
        (c, ColumnRef(c)) for c in apply.left.output_columns()]
    for column, expr in project.items:
        if isinstance(expr, ColumnRef) or (strict_columns(expr) & child_ids):
            items.append((column, expr))
            continue
        if detector is None:
            return None
        guarded = Case([(IsNull(ColumnRef(detector), negated=True), expr)])
        items.append((column, guarded))
    inner = Apply(JoinKind.LEFT_OUTER, apply.left, project.child, predicate)
    return Project(inner, items)


# ---------------------------------------------------------------------------
# Identity (9): scalar aggregate below Apply
# ---------------------------------------------------------------------------

def _identity9(apply: Apply, sgb: ScalarGroupBy) -> RelationalOp | None:
    left = apply.left
    if not has_key(left):
        return None

    child_ids = frozenset(c.cid for c in sgb.child.output_columns())
    aggregates, probe = _adjust_aggregates_for_outerjoin(
        sgb.aggregates, child_ids)
    child = sgb.child
    if probe is not None:
        child = Project.extend(child, [(probe, Literal(1))])

    inner = Apply(JoinKind.LEFT_OUTER, left, child)
    grouped = GroupBy(inner, left.output_columns(), aggregates)

    predicate = apply.predicate
    if apply.kind in (JoinKind.INNER, JoinKind.LEFT_OUTER):
        # A scalar aggregate returns exactly one row, so A× and A^LOJ agree.
        result: RelationalOp = grouped
        if predicate is not None:
            result = Select(result, predicate)
        return result

    # Semi/anti over a single-row input reduce to a filter on that row.
    left_columns = left.output_columns()
    if predicate is None:
        if apply.kind is JoinKind.LEFT_SEMI:
            return left  # the single row always exists
        return Select(left, Literal(False))  # anti of a non-empty input
    if apply.kind is JoinKind.LEFT_SEMI:
        return Project.passthrough(Select(grouped, predicate), left_columns)
    return Project.passthrough(Select(grouped, is_not_true(predicate)),
                               left_columns)


def _adjust_aggregates_for_outerjoin(
        aggregates: list[tuple[Column, AggregateCall]],
        inner_ids: frozenset[int],
) -> tuple[list[tuple[Column, AggregateCall]], Column | None]:
    """The paper's ``F → F'`` substitution for identity (9).

    The rewritten aggregates must satisfy ``agg(padded row) = agg(∅)``:

    * ``count(*)`` (where ``count(∅) ≠ count({NULL})``) becomes
      ``count(probe)`` over a manufactured non-nullable column;
    * aggregates whose argument is *strict* in the inner columns pass
      through — a NULL-padded row makes the argument NULL, which every
      SQL aggregate ignores;
    * aggregates over a **non-strict** argument (e.g.
      ``count(case when x is null then 1 end)``, produced by the
      boolean-subquery count rewrite) get the argument guarded by the
      probe: ``CASE WHEN probe IS NOT NULL THEN arg END`` evaluates to
      NULL exactly on padded rows.
    """
    probe: Column | None = None

    def need_probe() -> Column:
        nonlocal probe
        if probe is None:
            probe = Column("probe", DataType.INTEGER, nullable=False)
        return probe

    adjusted: list[tuple[Column, AggregateCall]] = []
    for column, call in aggregates:
        if not call.descriptor.empty_equals_single_null:
            adjusted.append(
                (column, AggregateCall(AggregateFunction.COUNT,
                                       ColumnRef(need_probe()),
                                       call.distinct)))
            continue
        assert call.argument is not None
        if strict_columns(call.argument) & inner_ids:
            adjusted.append((column, call))
            continue
        guarded = Case([(IsNull(ColumnRef(need_probe()), negated=True),
                         call.argument)])
        adjusted.append(
            (column, AggregateCall(call.func, guarded, call.distinct)))
    return adjusted, probe


# ---------------------------------------------------------------------------
# Identity (8): vector aggregate below Apply
# ---------------------------------------------------------------------------

def _identity8(apply: Apply,
               gb: GroupBy | LocalGroupBy) -> RelationalOp | None:
    left = apply.left

    if apply.kind.left_only_output:
        # A vector aggregate's output is non-empty iff its input is; if the
        # Apply predicate does not inspect aggregate results, the GroupBy
        # can be dropped under semi/anti (group columns pass values through).
        agg_ids = {c.cid for c, _ in gb.aggregates}
        predicate = apply.predicate
        if predicate is None or not (
                predicate.free_columns().ids() & frozenset(agg_ids)):
            return Apply(apply.kind, left, gb.child, predicate)
        if not has_key(left):
            return None
        inner = Apply(JoinKind.INNER, left, gb.child)
        grouped = type(gb)(inner,
                           left.output_columns() + list(gb.group_columns),
                           gb.aggregates)
        filtered = Select(grouped, predicate)
        if apply.kind is JoinKind.LEFT_SEMI:
            # Keep left rows that produced at least one surviving group.
            return _distinct_left_rows(filtered, left)
        return None  # anti over vector aggregate with aggregate predicate

    if apply.kind is not JoinKind.INNER:
        return None  # identity (8) is stated for A×; A^LOJ padding differs
    if not has_key(left):
        return None
    inner = Apply(JoinKind.INNER, left, gb.child)
    grouped = type(gb)(inner, left.output_columns() + list(gb.group_columns),
                       gb.aggregates)
    if apply.predicate is not None:
        return Select(grouped, apply.predicate)
    return grouped


def _distinct_left_rows(rel: RelationalOp, left: RelationalOp) -> RelationalOp:
    """Project to the left schema and remove duplicates (left has a key,
    so grouping by its columns is exact)."""
    projected = Project.passthrough(rel, left.output_columns())
    return GroupBy(projected, left.output_columns(), [])


# ---------------------------------------------------------------------------
# Joins below Apply
# ---------------------------------------------------------------------------

def _push_into_join(apply: Apply, join: Join,
                    config: ApplyRemovalConfig) -> RelationalOp | None:
    left_ids = frozenset(c.cid for c in apply.left.output_columns())

    def correlated(node: RelationalOp) -> bool:
        return bool(node.outer_references().ids() & left_ids)

    predicate_correlated = (
        join.predicate is not None
        and bool(join.predicate.free_columns().ids() & left_ids))

    if join.kind is JoinKind.INNER:
        if predicate_correlated:
            # Extract the correlated ON predicate so the Select-folding rule
            # can absorb it into the Apply.
            return Apply(apply.kind, apply.left,
                         Select(Join.cross(join.left, join.right),
                                join.predicate),
                         apply.predicate)
        left_corr = correlated(join.left)
        right_corr = correlated(join.right)
        if left_corr and not right_corr and apply.kind is JoinKind.INNER:
            pushed = Apply(JoinKind.INNER, apply.left, join.left)
            inner = Join(JoinKind.INNER, pushed, join.right, join.predicate)
            if apply.predicate is not None:
                return Select(inner, apply.predicate)
            # Column order: Apply output is R ++ (E1 ++ E2) — matches.
            return inner
        if right_corr and not left_corr and apply.kind is JoinKind.INNER:
            pushed = Apply(JoinKind.INNER, apply.left, join.right)
            # Output order of Join(pushed, E1) is R ++ E2 ++ E1; restore.
            inner = Join(JoinKind.INNER, pushed, join.left, join.predicate)
            out = (apply.left.output_columns() + join.left.output_columns()
                   + join.right.output_columns())
            result: RelationalOp = inner
            if apply.predicate is not None:
                result = Select(result, apply.predicate)
            return Project.passthrough(result, out)
        if left_corr and right_corr and config.class2_rewrites \
                and apply.kind is JoinKind.INNER and has_key(apply.left):
            return _identity7(apply, join)
        return None

    if join.kind is JoinKind.LEFT_OUTER:
        return _push_into_outerjoin(apply, join, left_ids, correlated)

    # Semi/anti joins under Apply are left correlated (rare).
    return None


def _push_into_outerjoin(apply: Apply, join: Join,
                         left_ids: frozenset[int],
                         correlated) -> RelationalOp | None:
    """Apply over a LEFT OUTER JOIN (arises when an inner decorrelation
    step produced the outerjoin before the outer Apply was removed).

    ``R A⊗ (E1 LOJ_p E2) = (R A⊗ E1) LOJ_p E2`` when ``E2`` is
    uncorrelated: the padded side is computed once and the (possibly
    correlated) predicate sees R's columns from the pushed-down left
    side.  For ``⊗`` = LOJ itself, the rewrite additionally needs ``p``
    null-rejecting on ``E1`` so an R-row padded at the Apply level cannot
    spuriously match ``E2``.  Semi/anti Apply ignores the LOJ's preserved
    right side entirely (E1's rows decide emptiness).
    """
    e1, e2 = join.left, join.right

    if apply.kind.left_only_output:
        predicate = apply.predicate
        if predicate is not None:
            used = predicate.free_columns().ids()
            e2_ids = frozenset(c.cid for c in e2.output_columns())
            if used & e2_ids:
                return None
        # LOJ preserves every E1 row, so (non)emptiness is E1's alone.
        return Apply(apply.kind, apply.left, e1, predicate)

    if correlated(e2):
        return None
    if apply.predicate is not None:
        return None

    if apply.kind is JoinKind.INNER:
        pushed = Apply(JoinKind.INNER, apply.left, e1)
        return Join(JoinKind.LEFT_OUTER, pushed, e2, join.predicate)

    if apply.kind is JoinKind.LEFT_OUTER:
        from ...algebra import null_rejected_columns

        if join.predicate is None:
            return None
        e1_ids = frozenset(c.cid for c in e1.output_columns())
        if not (null_rejected_columns(join.predicate) & e1_ids):
            return None
        pushed = Apply(JoinKind.LEFT_OUTER, apply.left, e1)
        return Join(JoinKind.LEFT_OUTER, pushed, e2, join.predicate)

    return None


def _identity7(apply: Apply, join: Join) -> RelationalOp:
    """R A× (E1 × E2) = (R A× E1) ⋈_{R.key} (R A× E2) — Class 2."""
    left = apply.left
    left_clone, mapping = clone_with_fresh_columns(left)
    e2 = substitute_outer_columns(
        join.right,
        {cid: ColumnRef(col) for cid, col in mapping.items()})
    a1 = Apply(JoinKind.INNER, left, join.left)
    a2 = Apply(JoinKind.INNER, left_clone, e2)
    from ...algebra import derive_keys, equals
    key = min(derive_keys(left), key=len)
    by_id = {c.cid: c for c in left.output_columns()}
    key_equalities = [
        equals(by_id[cid], mapping[cid]) for cid in sorted(key)]
    parts = list(key_equalities)
    if join.predicate is not None:
        parts.append(join.predicate)
    joined = Join(JoinKind.INNER, a1, a2, conjunction(parts))
    out = (left.output_columns() + join.left.output_columns()
           + join.right.output_columns())
    result: RelationalOp = joined
    if apply.predicate is not None:
        result = Select(result, apply.predicate)
    return Project.passthrough(result, out)


# ---------------------------------------------------------------------------
# Identities (5)/(6): set operations below Apply — Class 2
# ---------------------------------------------------------------------------

def _identity5(apply: Apply, union: UnionAll) -> RelationalOp:
    """R A× (E1 ∪ E2 ∪ …) = (R1 A× E1) ∪ (R2 A× E2) ∪ … with fresh copies
    of R per branch; the original R columns survive as union outputs."""
    left = apply.left
    left_columns = left.output_columns()
    branches: list[RelationalOp] = []
    maps: list[list[Column]] = []
    for source, imap in zip(union.inputs, union.input_maps):
        clone, mapping = clone_with_fresh_columns(left)
        rebound = substitute_outer_columns(
            source, {cid: ColumnRef(col) for cid, col in mapping.items()})
        branches.append(Apply(JoinKind.INNER, clone, rebound))
        maps.append([mapping[c.cid] for c in left_columns] + list(imap))
    outputs = list(left_columns) + list(union.columns)
    return UnionAll(branches, outputs, maps)


def _identity6(apply: Apply, diff: Difference) -> RelationalOp:
    """R A× (E1 − E2) = (R1 A× E1) − (R2 A× E2) with fresh copies of R."""
    left = apply.left
    left_columns = left.output_columns()

    def branch(source: RelationalOp):
        clone, mapping = clone_with_fresh_columns(left)
        rebound = substitute_outer_columns(
            source, {cid: ColumnRef(col) for cid, col in mapping.items()})
        return (Apply(JoinKind.INNER, clone, rebound),
                [mapping[c.cid] for c in left_columns])

    left_branch, left_r_cols = branch(diff.left)
    right_branch, right_r_cols = branch(diff.right)
    outputs = list(left_columns) + list(diff.columns)
    return Difference(left_branch, right_branch, outputs,
                      left_r_cols + list(diff.left_map),
                      right_r_cols + list(diff.right_map))
