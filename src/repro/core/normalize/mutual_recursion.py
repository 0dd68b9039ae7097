"""Removal of scalar/relational mutual recursion — paper Section 2.2.

The binder's output may contain relational subtrees *inside* scalar
expressions (Figure 3).  This pass introduces ``Apply`` operators so that
every subquery is evaluated by the relational engine before the operator
that consumes its value:

    e(Q) R   ⇒   e(q) (R A⊗ Q)

Specifically:

* a relational Select whose conjuncts are existential tests (``EXISTS``,
  ``IN <subquery>``, quantified comparisons) turns each such conjunct into
  an Apply-semijoin / Apply-antisemijoin (Section 2.4, "common case that is
  further optimized");
* scalar-valued subqueries anywhere in an expression are computed by an
  Apply below the consuming operator, ``A×`` when the subquery provably
  returns a row (scalar aggregation), left-outer Apply otherwise so that an
  empty result becomes NULL;
* boolean-valued subqueries in *non-conjunct* positions (e.g. under OR)
  are rewritten as scalar count aggregates (Section 2.4: "the subquery can
  be rewritten as a scalar count aggregate"), preserving full three-valued
  semantics via a CASE over match/unknown counts.

After this pass the tree contains no relational-valued scalar nodes; the
remaining correlations live in Apply operators, ready for Apply removal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...algebra import (AggregateCall, AggregateFunction, Apply, Case,
                        Column, ColumnRef, Comparison, DataType,
                        ExistsSubquery, GroupBy, InSubquery, IsNull, Join,
                        JoinKind, Literal, LocalGroupBy, Not, Or, Project,
                        QuantifiedComparison, RelationalOp, ScalarExpr,
                        ScalarGroupBy, ScalarSubquery, Select, Sort,
                        conjunction, conjuncts, never_empty)
from ...algebra.datatypes import negate_comparison
from ...errors import PlanError


@dataclass
class _SubqueryIntro:
    """One Apply to add below the consuming operator.

    ``guard`` implements Section 2.4's conditional scalar execution: the
    Apply runs the subquery only when the guard is TRUE (rows from a
    non-taken CASE branch are NULL-padded without evaluation).
    """

    kind: JoinKind
    query: RelationalOp
    guard: ScalarExpr | None = None


def remove_subqueries(rel: RelationalOp) -> RelationalOp:
    """Eliminate relational-valued scalar nodes by introducing Apply."""
    # Children first (inner queries of derived tables etc.).
    children = [remove_subqueries(c) for c in rel.children]
    if any(n is not o for n, o in zip(children, rel.children)):
        rel = rel.with_children(children)

    # Normalize the *inner* trees of subqueries hanging off this node's
    # scalar expressions before lifting them out.
    if rel.contains_subquery():
        rel = rel.map_expressions(_normalize_inner_queries)

    if not rel.contains_subquery():
        return rel

    if isinstance(rel, Select):
        return _rewrite_select(rel)
    if isinstance(rel, Project):
        return _rewrite_project(rel)
    if isinstance(rel, Join):
        if rel.kind is JoinKind.INNER and rel.predicate is not None:
            # Fall back to select-over-cross so the Select machinery applies.
            return _rewrite_select(
                Select(Join.cross(rel.left, rel.right), rel.predicate))
        raise PlanError(
            f"subquery in {rel.kind.value} join predicate is not supported")
    if isinstance(rel, (GroupBy, ScalarGroupBy, LocalGroupBy)):
        return _rewrite_groupby(rel)
    if isinstance(rel, Sort):
        raise PlanError("subquery inside a sort key is not supported")
    raise PlanError(f"subquery under {type(rel).__name__} is not supported")


def _normalize_inner_queries(expr: ScalarExpr) -> ScalarExpr:
    """Recursively run subquery removal on nested query trees."""
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(remove_subqueries(expr.query))
    if isinstance(expr, ExistsSubquery):
        return ExistsSubquery(remove_subqueries(expr.query), expr.negated)
    if isinstance(expr, InSubquery):
        return InSubquery(_normalize_inner_queries(expr.needle),
                          remove_subqueries(expr.query), expr.negated)
    if isinstance(expr, QuantifiedComparison):
        return QuantifiedComparison(expr.op, expr.quantifier,
                                    _normalize_inner_queries(expr.needle),
                                    remove_subqueries(expr.query))
    children = tuple(_normalize_inner_queries(c) for c in expr.children)
    if all(n is o for n, o in zip(children, expr.children)):
        return expr
    return expr.with_children(children)


# ---------------------------------------------------------------------------
# Select: existential conjuncts → Apply semijoin/antisemijoin
# ---------------------------------------------------------------------------

def _rewrite_select(sel: Select) -> RelationalOp:
    original_outputs = sel.output_columns()
    rel = sel.child
    residual: list[ScalarExpr] = []

    for part in conjuncts(sel.predicate):
        part, negated = _strip_not(part)
        if isinstance(part, ExistsSubquery):
            effective = part.negated != negated
            kind = JoinKind.LEFT_ANTI if effective else JoinKind.LEFT_SEMI
            rel = Apply(kind, rel, part.query)
            continue
        if isinstance(part, InSubquery) and not part.needle.contains_subquery():
            effective = part.negated != negated
            rel = _in_to_apply(rel, part.needle, part.query, effective)
            continue
        if isinstance(part, QuantifiedComparison) \
                and not part.needle.contains_subquery():
            rel = _quantified_to_apply(rel, part, negated)
            continue
        # Not an existential conjunct: restore the NOT and fall through to
        # generic scalar-subquery extraction.
        residual.append(Not(part) if negated else part)

    introductions: list[tuple[_SubqueryIntro, list[Column]]] = []
    rewritten_parts = [_extract_scalar_subqueries(p, introductions)
                       for p in residual]
    rel = _attach_introductions(rel, introductions)

    if rewritten_parts:
        rel = Select(rel, conjunction(rewritten_parts))
    if [c.cid for c in rel.output_columns()] != \
            [c.cid for c in original_outputs]:
        rel = Project.passthrough(rel, original_outputs)
    return rel


def _strip_not(expr: ScalarExpr) -> tuple[ScalarExpr, bool]:
    negated = False
    while isinstance(expr, Not):
        expr = expr.arg
        negated = not negated
    return expr, negated


def _in_to_apply(rel: RelationalOp, needle: ScalarExpr, query: RelationalOp,
                 negated: bool) -> Apply:
    """``needle [NOT] IN Q`` as a filtering conjunct.

    Positive IN keeps rows with a true match: semijoin on ``needle = x``.
    NOT IN keeps rows with *no true-or-unknown match*: antijoin on
    ``needle = x OR needle IS NULL OR x IS NULL`` (the IS NULL disjuncts are
    elided for provably non-nullable sides).
    """
    (column,) = query.output_columns()
    match = Comparison("=", needle, ColumnRef(column))
    if not negated:
        return Apply(JoinKind.LEFT_SEMI, rel, query, match)
    parts: list[ScalarExpr] = [match]
    if needle.nullable:
        parts.append(IsNull(needle))
    if column.nullable:
        parts.append(IsNull(ColumnRef(column)))
    predicate = parts[0] if len(parts) == 1 else Or(parts)
    return Apply(JoinKind.LEFT_ANTI, rel, query, predicate)


def _quantified_to_apply(rel: RelationalOp, q: QuantifiedComparison,
                         negated: bool) -> Apply:
    """``needle op ANY|ALL Q`` as a filtering conjunct.

    ANY keeps rows with a true match: semijoin on ``needle op x``.
    ALL keeps rows with no false-or-unknown match: antijoin on
    ``NOT(needle op x) OR needle IS NULL OR x IS NULL``.
    A negated conjunct flips the quantifier and the operator
    (NOT (e op ANY Q) ≡ e !op ALL Q).
    """
    op, quantifier = q.op, q.quantifier
    if negated:
        op = negate_comparison(op)
        quantifier = "ALL" if quantifier == "ANY" else "ANY"
    (column,) = q.query.output_columns()
    if quantifier == "ANY":
        match = Comparison(op, q.needle, ColumnRef(column))
        return Apply(JoinKind.LEFT_SEMI, rel, q.query, match)
    parts: list[ScalarExpr] = [
        Comparison(negate_comparison(op), q.needle, ColumnRef(column))]
    if q.needle.nullable:
        parts.append(IsNull(q.needle))
    if column.nullable:
        parts.append(IsNull(ColumnRef(column)))
    predicate = parts[0] if len(parts) == 1 else Or(parts)
    return Apply(JoinKind.LEFT_ANTI, rel, q.query, predicate)


def _rewrite_groupby(gb) -> RelationalOp:
    """Subqueries inside aggregate arguments.

    ``sum(<expr with subquery>)`` computes the subquery per *input* row of
    the aggregation: the Apply chain goes below the GroupBy and the
    argument aggregates the computed column.
    """
    introductions: list[tuple[_SubqueryIntro, list[Column]]] = []
    aggregates = []
    for column, call in gb.aggregates:
        if call.argument is None or not call.argument.contains_subquery():
            aggregates.append((column, call))
            continue
        argument = _extract_scalar_subqueries(call.argument, introductions)
        aggregates.append(
            (column, AggregateCall(call.func, argument, call.distinct)))
    child = _attach_introductions(gb.child, introductions)
    if isinstance(gb, ScalarGroupBy):
        return ScalarGroupBy(child, aggregates)
    return type(gb)(child, gb.group_columns, aggregates)


# ---------------------------------------------------------------------------
# Project (and residual predicates): scalar subquery extraction
# ---------------------------------------------------------------------------

def _rewrite_project(project: Project) -> RelationalOp:
    introductions: list[tuple[_SubqueryIntro, list[Column]]] = []
    items = [(c, _extract_scalar_subqueries(e, introductions))
             for c, e in project.items]
    child = _attach_introductions(project.child, introductions)
    return Project(child, items)


def _attach_introductions(rel: RelationalOp,
                          introductions) -> RelationalOp:
    for intro, _columns in introductions:
        if intro.guard is not None:
            rel = Apply(JoinKind.LEFT_OUTER, rel, intro.query,
                        guard=intro.guard)
        else:
            rel = Apply(intro.kind, rel, intro.query)
    return rel


def _extract_scalar_subqueries(expr: ScalarExpr, introductions,
                               guard: ScalarExpr | None = None
                               ) -> ScalarExpr:
    """Replace relational-valued scalar nodes by references to Apply output.

    Appends to ``introductions`` in evaluation order; the caller attaches
    the Apply chain below the consuming operator.  ``guard`` carries the
    conditional-execution context of enclosing CASE branches (Section
    2.4): every subquery introduced under it executes only when the guard
    holds.
    """
    if isinstance(expr, ScalarSubquery):
        (column,) = expr.query.output_columns()
        kind = JoinKind.INNER if never_empty(expr.query) else JoinKind.LEFT_OUTER
        introductions.append(
            (_SubqueryIntro(kind, expr.query, guard), [column]))
        return ColumnRef(column.with_nullability(True))

    if isinstance(expr, ExistsSubquery):
        count_col = _count_aggregate_over(expr.query, introductions, guard)
        op = "=" if expr.negated else ">"
        return Comparison(op, ColumnRef(count_col), Literal(0))

    if isinstance(expr, InSubquery):
        needle = _extract_scalar_subqueries(expr.needle, introductions,
                                            guard)
        value = _membership_value(needle, "=", expr.query, introductions,
                                  guard)
        return Not(value) if expr.negated else value

    if isinstance(expr, QuantifiedComparison):
        needle = _extract_scalar_subqueries(expr.needle, introductions,
                                            guard)
        if expr.quantifier == "ANY":
            return _membership_value(needle, expr.op, expr.query,
                                     introductions, guard)
        # e op ALL Q  ≡  NOT (e !op ANY Q)   (exact under 3VL)
        inverted = _membership_value(needle, negate_comparison(expr.op),
                                     expr.query, introductions, guard)
        return Not(inverted)

    if isinstance(expr, Case) and expr.contains_subquery():
        return _extract_from_case(expr, introductions, guard)

    children = tuple(_extract_scalar_subqueries(c, introductions, guard)
                     for c in expr.children)
    if all(n is o for n, o in zip(children, expr.children)):
        return expr
    return expr.with_children(children)


def _extract_from_case(expr: Case, introductions,
                       guard: ScalarExpr | None) -> ScalarExpr:
    """CASE with subqueries in its branches — Section 2.4's *conditional
    scalar execution*.

    Conditions evaluate unconditionally left to right; each branch value
    evaluates only when its condition is the first TRUE one, so subqueries
    inside branch values receive a guard ("previous conditions not TRUE
    and mine TRUE") and must not be flattened eagerly.
    """
    from .apply_removal import is_not_true

    def combine(parts: list[ScalarExpr]) -> ScalarExpr:
        merged = conjunction(parts)
        if guard is not None:
            merged = conjunction([guard, merged])
        return merged

    prior: list[ScalarExpr] = []
    new_whens = []
    for condition, value in expr.whens:
        new_condition = _extract_scalar_subqueries(condition, introductions,
                                                   guard)
        branch_guard = combine(prior + [new_condition])
        new_value = _extract_scalar_subqueries(value, introductions,
                                               branch_guard)
        new_whens.append((new_condition, new_value))
        prior.append(is_not_true(new_condition))
    otherwise = None
    if expr.otherwise is not None:
        else_guard = combine(list(prior)) if prior else guard
        otherwise = _extract_scalar_subqueries(expr.otherwise,
                                               introductions, else_guard)
    return Case(new_whens, otherwise)


def _count_aggregate_over(query: RelationalOp, introductions,
                          guard: ScalarExpr | None = None) -> Column:
    """Introduce ``A× (ScalarGroupBy count(*))`` over the subquery."""
    count_col = Column("cnt", DataType.INTEGER, nullable=False)
    counted = ScalarGroupBy(
        query, [(count_col, AggregateCall(AggregateFunction.COUNT_STAR))])
    introductions.append(
        (_SubqueryIntro(JoinKind.INNER, counted, guard), [count_col]))
    return count_col


def _membership_value(needle: ScalarExpr, op: str, query: RelationalOp,
                      introductions,
                      guard: ScalarExpr | None = None) -> ScalarExpr:
    """The 3VL truth value of ``needle op ANY(query)`` as a scalar.

    Computed as a scalar aggregate over the subquery (paper Section 2.4's
    count rewrite), with full UNKNOWN handling::

        true_cnt    = count(case when needle op x       then 1 end)
        unknown_cnt = count(case when needle op x is unknown then 1 end)
        value       = case when true_cnt > 0 then TRUE
                           when unknown_cnt > 0 then NULL
                           else FALSE end
    """
    (column,) = query.output_columns()
    x = ColumnRef(column)
    match = Comparison(op, needle, x)
    one = Literal(1)
    true_arg = Case([(match, one)])
    unknown_parts: list[ScalarExpr] = []
    if needle.nullable:
        unknown_parts.append(IsNull(needle))
    if column.nullable:
        unknown_parts.append(IsNull(x))

    true_cnt = Column("match_cnt", DataType.INTEGER, nullable=False)
    aggregates = [(true_cnt, AggregateCall(AggregateFunction.COUNT, true_arg))]
    unknown_cnt = None
    if unknown_parts:
        unknown_pred: ScalarExpr = (unknown_parts[0] if len(unknown_parts) == 1
                                    else Or(unknown_parts))
        unknown_arg = Case([(unknown_pred, one)])
        unknown_cnt = Column("unknown_cnt", DataType.INTEGER, nullable=False)
        aggregates.append(
            (unknown_cnt, AggregateCall(AggregateFunction.COUNT, unknown_arg)))

    counted = ScalarGroupBy(query, aggregates)
    introductions.append((_SubqueryIntro(JoinKind.INNER, counted, guard),
                          [c for c, _ in aggregates]))

    whens: list[tuple[ScalarExpr, ScalarExpr]] = [
        (Comparison(">", ColumnRef(true_cnt), Literal(0)), Literal(True))]
    if unknown_cnt is not None:
        whens.append((Comparison(">", ColumnRef(unknown_cnt), Literal(0)),
                      Literal(None, DataType.BOOLEAN)))
    return Case(whens, Literal(False))
