"""Greedy initial join ordering.

Exhaustive join enumeration inside the memo is budget-bounded; on wide
join graphs (TPC-H Q8 joins eight tables) the budget can truncate
exploration before a good order is found.  This pre-phase rewrites each
maximal cluster of inner joins into a greedy left-deep order — smallest
estimated intermediate result first — so the memo starts from a sane plan
and its exploration only needs to improve locally.  This mirrors standard
practice (greedy/GOO seeding ahead of transformation-based search).
"""

from __future__ import annotations

from typing import Callable

from ...algebra import (Join, JoinKind, Project, RelationalOp, ScalarExpr,
                        conjunction, conjuncts)
from .cardinality import Estimator


def greedy_join_order(rel: RelationalOp,
                      estimator_factory: Callable[[], Estimator]
                      ) -> RelationalOp:
    """Reorder inner-join clusters greedily by estimated cardinality."""

    def walk(node: RelationalOp) -> RelationalOp:
        if isinstance(node, Join) and node.kind is JoinKind.INNER:
            relations, predicates = _collect_cluster(node)
            if len(relations) > 2:
                relations = [walk(r) for r in relations]
                ordered = _order_greedily(relations, predicates,
                                          estimator_factory())
                return Project.passthrough(ordered, node.output_columns())
            # Two-way joins keep their structure (nothing to reorder).
        children = [walk(c) for c in node.children]
        if any(n is not o for n, o in zip(children, node.children)):
            return node.with_children(children)
        return node

    return walk(rel)


def _collect_cluster(root: Join) -> tuple[list[RelationalOp],
                                          list[ScalarExpr]]:
    """Relations and conjuncts of a maximal inner-join subtree."""
    relations: list[RelationalOp] = []
    predicates: list[ScalarExpr] = []

    def visit(node: RelationalOp) -> None:
        if isinstance(node, Join) and node.kind is JoinKind.INNER:
            if node.predicate is not None:
                predicates.extend(conjuncts(node.predicate))
            visit(node.left)
            visit(node.right)
        else:
            relations.append(node)

    visit(root)
    return relations, predicates


def _order_greedily(relations: list[RelationalOp],
                    predicates: list[ScalarExpr],
                    estimator: Estimator) -> RelationalOp:
    remaining = list(relations)
    pending = list(predicates)

    def applicable(tree_cols: frozenset[int], extra: RelationalOp
                   ) -> list[ScalarExpr]:
        cols = tree_cols | frozenset(
            c.cid for c in extra.output_columns())
        return [p for p in pending if p.free_columns().ids() <= cols]

    # Seed: the smallest relation.
    remaining.sort(key=lambda r: estimator.estimate(r).rows)
    current = remaining.pop(0)

    while remaining:
        current_cols = frozenset(c.cid for c in current.output_columns())
        best_rank = None
        best_choice = None
        for index, candidate in enumerate(remaining):
            usable = applicable(current_cols, candidate)
            joined = Join(JoinKind.INNER, current, candidate,
                          conjunction(usable) if usable else None)
            rows = estimator.estimate(joined).rows
            # Prefer connected joins; among them, the smallest result.
            rank = (not usable, rows, index)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_choice = (index, joined, usable)
        assert best_choice is not None
        index, joined, usable = best_choice
        remaining.pop(index)
        for predicate in usable:
            pending.remove(predicate)
        current = joined

    if pending:
        # Conjuncts that never became applicable (shouldn't happen in
        # well-formed clusters) stay as a filter on top.
        from ...algebra import Select

        current = Select(current, conjunction(pending))
    return current
