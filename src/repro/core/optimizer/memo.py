"""Memo structure for cost-based optimization.

A compact Volcano/Cascades-style memo (paper Section 4: "The architecture
of our cost-based optimizer follows the main lines of the Volcano
optimizer, so that generation of interesting reorderings is done by means
of transformation rules"):

* a :class:`Group` holds logically equivalent expressions with identical
  output columns, plus cached logical properties (estimate, keys, FDs) and
  the best physical plan once implemented;
* a :class:`GroupExpr` is one operator whose relational children are
  :class:`GroupRefLeaf` placeholders;
* duplicate detection is structural (operator label + child group ids),
  which terminates exploration.

``SegmentApply`` keeps its parameterized inner tree embedded in the
expression (only its relational input joins the memo) — the inner tree is
optimized recursively at implementation time with per-segment statistics.
"""

from __future__ import annotations

from typing import Callable, Optional

from ... import faultinject
from ...algebra import (Apply, Column, GroupBy, Join, LocalGroupBy, Max1row,
                        Project, RelationalOp, ScalarGroupBy, SegmentApply,
                        Select, Sort, Top, derive_fds, derive_keys)
from ...algebra.funcdeps import FDSet
from .cardinality import Estimate, Estimator


class GroupRefLeaf(RelationalOp):
    """A leaf standing for a memo group inside a GroupExpr.

    Carries the group's cached logical properties so property derivation
    (keys, FDs, outer references / correlation) works on materialized
    bindings without descending into the group.
    """

    __slots__ = ("group_id", "_columns", "memo_keys", "memo_fds",
                 "memo_outer")

    def __init__(self, group_id: int, columns: list[Column],
                 keys: list[frozenset[int]], fds: FDSet,
                 outer) -> None:
        super().__init__()
        self.group_id = group_id
        self._columns = list(columns)
        self.memo_keys = list(keys)
        self.memo_fds = fds
        self.memo_outer = outer

    def output_columns(self) -> list[Column]:
        return list(self._columns)

    def produced_columns(self) -> list[Column]:
        return list(self._columns)

    def outer_references(self):
        return self.memo_outer

    def label(self) -> str:
        return f"Group#{self.group_id}"


class GroupExpr:
    """One logical operator with grouped children."""

    __slots__ = ("op", "child_groups", "key")

    def __init__(self, op: RelationalOp, child_groups: list[int],
                 key: tuple) -> None:
        self.op = op
        self.child_groups = child_groups
        self.key = key

    def __repr__(self) -> str:
        return f"GroupExpr({self.op.label()}, children={self.child_groups})"


class Group:
    """A set of logically equivalent expressions."""

    __slots__ = ("group_id", "columns", "exprs", "estimate", "keys", "fds",
                 "outer", "best", "ref")

    def __init__(self, group_id: int, columns: list[Column],
                 estimate: Estimate, keys: list[frozenset[int]],
                 fds: FDSet, outer) -> None:
        self.group_id = group_id
        self.columns = columns
        self.exprs: list[GroupExpr] = []
        self.estimate = estimate
        self.keys = keys
        self.fds = fds
        self.outer = outer
        self.best = None  # set by implementation: (cost, plan)
        #: The leaf standing for this group in every expression.
        self.ref = GroupRefLeaf(group_id, columns, keys, fds, outer)


class Memo:
    """Groups plus structural deduplication."""

    def __init__(self, estimator_factory: Callable[..., Estimator],
                 governor=None) -> None:
        self.groups: list[Group] = []
        self._expr_to_group: dict[tuple, int] = {}
        self._estimator_factory = estimator_factory
        #: Optional ResourceGovernor enforcing the memo-group cap.
        self.governor = governor
        #: Exploration hook: called with (GroupExpr, group_id) for every
        #: expression added anywhere in the memo — including child
        #: expressions materialized while canonicalizing a rule's result.
        self.on_new_expr: Optional[Callable[[GroupExpr, int], None]] = None

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    def group_ref(self, group_id: int) -> GroupRefLeaf:
        return self.groups[group_id].ref

    # -- insertion ---------------------------------------------------------------

    def insert_tree(self, rel: RelationalOp,
                    target_group: Optional[int] = None) -> int:
        """Insert a logical tree; returns its group id.

        Children are inserted recursively; identical expressions dedupe.
        When ``target_group`` is given, the root is added to that group
        (used by transformation rules).
        """
        faultinject.hit("optimizer.memo")
        canonical = self._canonicalize(rel)
        key = _expr_key(canonical.op, canonical.child_groups)
        existing = self._expr_to_group.get(key)
        if existing is not None:
            return existing

        if target_group is None:
            group = self._new_group(canonical.op)
            target_group = group.group_id
        self._expr_to_group[key] = target_group
        canonical.key = key
        self.groups[target_group].exprs.append(canonical)
        if self.on_new_expr is not None:
            self.on_new_expr(canonical, target_group)
        return target_group

    def add_expr_to_group(self, rel: RelationalOp,
                          group_id: int) -> Optional[GroupExpr]:
        """Insert a transformed tree into an existing group.

        Returns the new GroupExpr, or None when it already existed.
        """
        canonical = self._canonicalize(rel)
        key = _expr_key(canonical.op, canonical.child_groups)
        if key in self._expr_to_group:
            return None
        self._expr_to_group[key] = group_id
        canonical.key = key
        self.groups[group_id].exprs.append(canonical)
        if self.on_new_expr is not None:
            self.on_new_expr(canonical, group_id)
        return canonical

    def _canonicalize(self, rel: RelationalOp) -> GroupExpr:
        """Replace relational children by group references."""
        if isinstance(rel, GroupRefLeaf):
            # A bare reference: wrap transparently (caller dedups upstream).
            raise ValueError("cannot canonicalize a bare group reference")

        if isinstance(rel, SegmentApply):
            left_id = self._child_group(rel.left)
            op = rel.with_children([self.group_ref(left_id), rel.right])
            return GroupExpr(op, [left_id], ())

        child_ids = [self._child_group(c) for c in rel.children]
        if child_ids:
            refs = [self.group_ref(cid) for cid in child_ids]
            op = rel.with_children(refs)
        else:
            op = rel
        return GroupExpr(op, child_ids, ())

    def _child_group(self, child: RelationalOp) -> int:
        if isinstance(child, GroupRefLeaf):
            return child.group_id
        return self.insert_tree(child)

    def _new_group(self, op: RelationalOp) -> Group:
        estimator = self._estimator_factory(
            group_lookup=lambda ref: self.groups[ref.group_id].estimate)
        estimate = estimator.estimate(op)
        keys = derive_keys(op)
        fds = derive_fds(op, keys)
        outer = op.outer_references()
        group = Group(len(self.groups), op.output_columns(), estimate,
                      keys, fds, outer)
        self.groups.append(group)
        if self.governor is not None:
            self.governor.note_memo_groups(len(self.groups))
        return group


#: Operators whose label and child groups determine their output columns.
_OUTPUT_IN_LABEL = (Select, Project, GroupBy, LocalGroupBy, ScalarGroupBy,
                    Max1row, Sort, Top, Join, Apply)


def _expr_key(op: RelationalOp, child_groups: list[int]) -> tuple:
    # The label carries the operator's own expressions with column ids;
    # output column ids distinguish otherwise identical leaves (self-join
    # instances of a table have disjoint columns).  SegmentApply embeds its
    # inner tree in the expression, so that tree joins the key.
    out_ids = () if isinstance(op, _OUTPUT_IN_LABEL) else tuple(
        c.cid for c in op.output_columns())
    extra = ""
    if isinstance(op, SegmentApply):
        from ...algebra import explain
        extra = explain(op.right)
    return (type(op).__name__, op.label(), extra, out_ids,
            tuple(child_groups))
