"""Tree simplifications run during normalization.

Small, semantics-preserving cleanups: constant folding of literal-only
scalar expressions (so e.g. ``date '1993-07-01' + interval '3' month``
becomes a literal instead of per-row work), Max1row elision from
key-derived cardinality facts (paper Section 2.4), identity-projection
removal, adjacent-Select merging, constant-predicate folding,
duplicate-elimination removal when the input is already key-unique.
"""

from __future__ import annotations

from ...algebra import (And, Case, ColumnRef, GroupBy, Literal, Max1row, Or,
                        Parameter, Project, RelationalOp, ScalarExpr, Select,
                        Sort, conjunction, conjuncts, derive_keys, max_one_row,
                        transform_bottom_up)
from ...algebra.scalar import AggregateCall


def simplify(rel: RelationalOp) -> RelationalOp:
    """Apply local simplifications bottom-up until fixpoint."""
    for _ in range(16):
        changed = False

        def step(node: RelationalOp) -> RelationalOp:
            nonlocal changed
            folded = node.map_expressions(fold_constants)
            if folded.local_expressions() != node.local_expressions():
                changed = True
                node = folded
            rewritten = _simplify_node(node)
            if rewritten is not None:
                changed = True
                return rewritten
            return node

        rel = transform_bottom_up(rel, step)
        if not changed:
            return rel
    return rel


def fold_constants(expr: ScalarExpr) -> ScalarExpr:
    """Evaluate literal-only subexpressions at compile time.

    Sound under 3VL; anything that would raise at run time (division by
    zero) is left in place so the error still surfaces during execution.
    Boolean connectives absorb constant arms (``TRUE AND x → x``,
    ``FALSE AND x → FALSE``, symmetric for OR).
    """
    if isinstance(expr, AggregateCall):
        if expr.argument is None:
            return expr
        return expr.with_children((fold_constants(expr.argument),))
    if expr.relational_children:
        return expr  # subqueries fold after decorrelation, not here

    children = tuple(fold_constants(c) for c in expr.children)
    if any(n is not o for n, o in zip(children, expr.children)):
        expr = expr.with_children(children)

    if isinstance(expr, (Literal, ColumnRef, Parameter)):
        # A Parameter is constant per execution but not per plan — folding
        # it would freeze one binding into a cached plan.
        return expr

    if isinstance(expr, And):
        kept = []
        for arg in expr.args:
            if isinstance(arg, Literal):
                if arg.value is False:
                    return Literal(False)
                if arg.value is True:
                    continue
            kept.append(arg)
        if not kept:
            return Literal(True)
        if len(kept) == 1:
            return kept[0]
        if len(kept) != len(expr.args):
            return And(kept)
        return expr

    if isinstance(expr, Or):
        kept = []
        for arg in expr.args:
            if isinstance(arg, Literal):
                if arg.value is True:
                    return Literal(True)
                if arg.value is False:
                    continue
            kept.append(arg)
        if not kept:
            return Literal(False)
        if len(kept) == 1:
            return kept[0]
        if len(kept) != len(expr.args):
            return Or(kept)
        return expr

    if isinstance(expr, Case):
        # Prune constant-FALSE arms; take a leading constant-TRUE arm.
        whens = []
        for condition, value in expr.whens:
            if isinstance(condition, Literal):
                if condition.value is True and not whens:
                    return value
                if condition.value is not True:
                    continue
            whens.append((condition, value))
        if not whens:
            return expr.otherwise if expr.otherwise is not None \
                else Literal(None)
        if len(whens) != len(expr.whens):
            return Case(whens, expr.otherwise)
        return expr

    if all(isinstance(c, Literal) for c in expr.children) and expr.children:
        from ...executor.naive import NaiveInterpreter

        try:
            value = NaiveInterpreter(lambda name: []).scalar(expr, {})
        except Exception:
            return expr  # defer run-time errors to execution
        return Literal(value, expr.dtype)

    return expr


def _simplify_node(node: RelationalOp) -> RelationalOp | None:
    if isinstance(node, Max1row) and max_one_row(node.child):
        return node.child

    if isinstance(node, Select):
        return _simplify_select(node)

    if isinstance(node, Project):
        return _simplify_project(node)

    if isinstance(node, GroupBy) and not node.aggregates:
        # DISTINCT over an input already unique on the grouping columns is
        # a no-op (modulo projection).
        group_ids = {c.cid for c in node.group_columns}
        for key in derive_keys(node.child):
            if key <= group_ids:
                return Project.passthrough(node.child, node.group_columns)
        return None

    if isinstance(node, Sort) and isinstance(node.child, Sort):
        # Outer sort wins.
        return Sort(node.child.child, node.keys)

    return None


def _simplify_select(node: Select) -> RelationalOp | None:
    predicate = node.predicate
    if isinstance(predicate, Literal):
        if predicate.value is True:
            return node.child
        return None  # constant FALSE/NULL select kept (empty result)

    parts = conjuncts(predicate)
    kept = [p for p in parts
            if not (isinstance(p, Literal) and p.value is True)]
    if len(kept) < len(parts):
        return Select(node.child, conjunction(kept)) if kept else node.child

    if isinstance(node.child, Select):
        merged = conjunction([node.child.predicate, predicate])
        return Select(node.child.child, merged)
    return None


def _simplify_project(node: Project) -> RelationalOp | None:
    child = node.child
    if node.is_pure_passthrough():
        child_cols = child.output_columns()
        mine = node.output_columns()
        if [c.cid for c in mine] == [c.cid for c in child_cols]:
            return child
    if isinstance(child, Project):
        # Collapse Project over Project by inlining the inner expressions.
        inner = {c.cid: e for c, e in child.items}
        items = [(c, e.substitute_columns(inner)) for c, e in node.items]
        return Project(child.child, items)
    return None
