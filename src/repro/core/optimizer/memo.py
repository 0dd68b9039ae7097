"""Memo structure for cost-based optimization.

A compact Volcano/Cascades-style memo (paper Section 4: "The architecture
of our cost-based optimizer follows the main lines of the Volcano
optimizer, so that generation of interesting reorderings is done by means
of transformation rules"):

* a :class:`Group` holds logically equivalent expressions over one set
  of output columns, plus cached logical properties (estimate, keys,
  FDs) and the best physical plan once implemented.  Column order is a
  physical property: a member may deliver the group's columns in any
  order (both orders of a join share one group), and the implementer
  enforces the group's order only where a consumer reads by position;
* a :class:`GroupExpr` is one operator whose relational children are
  :class:`GroupRefLeaf` placeholders;
* duplicate detection is structural (operator label + child group ids),
  which terminates exploration;
* the memo counts its expressions against the exploration budget and
  records what the join enumerator (:mod:`.joinenum`) asks of it: the
  group of each operator and the groups inner joins read.

``SegmentApply`` keeps its parameterized inner tree embedded in the
expression (only its relational input joins the memo) — the inner tree is
optimized recursively at implementation time with per-segment statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ... import faultinject
from ...algebra import (Apply, Column, GroupBy, Join, JoinKind, LocalGroupBy,
                        Max1row, Project, RelationalOp, ScalarGroupBy,
                        SegmentApply, Select, Sort, Top, derive_fds,
                        derive_keys)
from ...algebra.funcdeps import FDSet
from .cardinality import Estimate, Estimator

if TYPE_CHECKING:
    from .implementation import CostedPlan
    from .joinenum import JoinSpace


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
    """A set of logically equivalent expressions.

    ``columns`` is the group's column order (its first expression's);
    the other members deliver the same columns, maybe in another order.
    """

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
        #: The cheapest plan, set by implementation.
        self.best: Optional[CostedPlan] = None
        #: The leaf standing for this group in every expression.
        self.ref = GroupRefLeaf(group_id, columns, keys, fds, outer)


def restore_output(tree: RelationalOp,
                   columns: Sequence[Column]) -> RelationalOp:
    """Narrow the tree to the column set of ``columns`` (memo group
    members agree on their column set, in any order)."""
    if {c.cid for c in tree.output_columns()} == {c.cid for c in columns}:
        return tree
    return Project.passthrough(tree, columns)


class Memo:
    """Groups plus structural deduplication."""

    def __init__(self, estimator_factory: Callable[..., Estimator],
                 governor=None,
                 indexes: Optional[Callable[[str], list[tuple[str, ...]]]]
                 = None) -> None:
        self.groups: list[Group] = []
        self._expr_to_group: dict[tuple, int] = {}
        #: (group, insertion number) of every expression's operator,
        #: keyed by the operator itself (the memo keeps it alive).
        self._op_group: dict[RelationalOp, tuple[int, int]] = {}
        self._estimator_factory = estimator_factory
        #: Optional ResourceGovernor enforcing the memo-group cap.
        self.governor = governor
        #: Optional ``table name -> index column tuples`` of the stored
        #: tables (index-induced edges of the join enumerator).
        self.indexes = indexes
        #: Expressions inserted so far, how many of them the statement
        #: itself brought (those inserted before exploration), and the
        #: exploration budget (``None``: unbounded).
        self.expr_count = 0
        self.statement_exprs = 0
        self.max_exprs: Optional[int] = None
        #: Groups some inner-join expression reads (cluster interiors).
        self.inner_join_inputs: set[int] = set()
        #: Columns rules derive from memo columns (see derived_column).
        self._derived: dict[tuple, Column] = {}
        #: The join enumerator's per-memo state (``joinenum.JoinSpace``).
        self.join_space: Optional[JoinSpace] = None
        #: Exploration hook: called with (GroupExpr, group_id) for every
        #: expression added anywhere in the memo — including child
        #: expressions materialized while canonicalizing a rule's result.
        self.on_new_expr: Optional[Callable[[GroupExpr, int], None]] = None

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    def group_ref(self, group_id: int) -> GroupRefLeaf:
        return self.groups[group_id].ref

    def group_of(self, op: RelationalOp) -> int:
        """The group holding the expression whose operator is ``op``."""
        return self._op_group[op][0]

    def from_statement(self, op: RelationalOp) -> bool:
        """Whether ``op``'s expression was in the memo before exploration
        (the statement's own tree and its SegmentApply variants)."""
        return self._op_group[op][1] < self.statement_exprs

    def derived_column(self, key: tuple,
                       make: Callable[[], Column]) -> Column:
        """The column a rule derives under ``key``, made on first use.

        A rule that invents a column (a local aggregate's partial
        result) would otherwise invent a fresh one each time it fires on
        another expression of the same group, and the copies, alike
        except for their ids, would never dedupe."""
        column = self._derived.get(key)
        if column is None:
            column = self._derived[key] = make()
        return column

    def estimate(self, rel: RelationalOp) -> Estimate:
        """The estimate of a tree whose leaves are group references."""
        return self._estimator().estimate(rel)

    def exhausted(self) -> bool:
        """Whether the expression budget is spent."""
        return self.max_exprs is not None and \
            self.expr_count > self.max_exprs

    # -- insertion ---------------------------------------------------------------

    def insert_tree(self, rel: RelationalOp,
                    target_group: Optional[int] = None) -> int:
        """Insert a logical tree; returns its group id.

        Children are inserted recursively; identical expressions dedupe.
        When ``target_group`` is given, the root is added to that group
        (used by transformation rules).
        """
        return self._insert(rel, target_group, None)

    def insert_estimated(self, rel: RelationalOp,
                         estimate: Estimate) -> int:
        """Insert ``rel`` like :meth:`insert_tree`; a group it creates
        takes ``estimate`` instead of one derived from ``rel`` (the join
        enumerator estimates a subset of leaves once, whichever join
        order enters it first)."""
        return self._insert(rel, None, estimate)

    def _insert(self, rel: RelationalOp, target_group: Optional[int],
                estimate: Optional[Estimate]) -> int:
        faultinject.hit("optimizer.memo")
        canonical = self._canonicalize(rel)
        key = _expr_key(canonical.op, canonical.child_groups)
        existing = self._expr_to_group.get(key)
        if existing is not None:
            return existing

        if target_group is None:
            group = self._new_group(canonical.op, estimate)
            target_group = group.group_id
        self._record(canonical, key, target_group)
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
        self._record(canonical, key, group_id)
        return canonical

    def _record(self, canonical: GroupExpr, key: tuple,
                group_id: int) -> None:
        self._expr_to_group[key] = group_id
        canonical.key = key
        self.groups[group_id].exprs.append(canonical)
        op = canonical.op
        self._op_group[op] = (group_id, self.expr_count)
        self.expr_count += 1
        if isinstance(op, Join) and op.kind is JoinKind.INNER:
            self.inner_join_inputs.update(canonical.child_groups)
        if self.on_new_expr is not None:
            self.on_new_expr(canonical, group_id)

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

    def _estimator(self) -> Estimator:
        return self._estimator_factory(
            group_lookup=lambda ref: self.groups[ref.group_id].estimate)

    def _new_group(self, op: RelationalOp,
                   estimate: Optional[Estimate] = None) -> Group:
        if estimate is None:
            estimate = self._estimator().estimate(op)
        keys = derive_keys(op)
        fds = derive_fds(op, keys)
        outer = op.outer_references()
        group = Group(len(self.groups), op.output_columns(), estimate,
                      keys, fds, outer)
        self._add_group(group)
        return group

    def _add_group(self, group: Group) -> None:
        self.groups.append(group)
        if self.governor is not None:
            self.governor.note_memo_groups(len(self.groups))


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
