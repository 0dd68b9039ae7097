"""Transformation rules for cost-based exploration.

Each rule receives a *materialized binding*: the root operator with its
relational children either memo group references or (for depth-2 rules)
one level of expanded child whose own children are group references.
The optimizer builds only bindings of the operator types a rule declares
(:attr:`Rule.pattern`).  Rules return alternative trees that the memo
inserts into the same group — generation only; the cost model chooses
(paper: "it is best to generate both the alternatives and leave the
choice to the cost based optimizer").  ``JoinEnumerate`` alone fills
many groups at once, so it inserts its joins itself.

The rule set implements the paper's Section 3 (plus the join
enumeration needed to connect them):

* ``GroupByPushBelowJoin`` / ``GroupByPullAboveJoin`` — Section 3.1, with
  the three conditions (predicate columns grouped or FD-derivable, key of
  the preserved side grouped — or, under an inner join, FD-derivable —
  aggregates confined to the pushed side); only the statement's own
  GroupBys are pulled up;
* ``GroupByPushBelowOuterJoin`` — Section 3.2, adding the *computing
  project* that supplies ``agg(∅)`` constants for NULL-padded rows;
* ``SemiJoinGroupByReorder`` — semijoin/antijoin vs GroupBy, both ways;
* ``SemiJoinToJoinDistinct`` — semijoin as join + duplicate removal,
  exposing the GroupBy to further reordering (covers the strategies of
  Pirahesh et al. as the paper notes);
* ``LocalGlobalSplit`` / ``LocalGroupByPushBelowJoin`` — Section 3.3; a
  split's local columns are made once per memo, an aggregate grouped on
  a key of its input is not split, and a LocalGroupBy moves only where
  it saves rows and its GroupBy cannot go;
* ``JoinEnumerate`` — the substrate join orders: each inner-join
  cluster is enumerated once, exactly, with DPccp (:mod:`.joinenum`);
  every connected subset of its leaves is one group and every
  connected-subgraph/complement pair enters it in both orders.  The
  GroupBy rules then move aggregates across those joins, and a join
  they build starts a cluster of its own that reuses the subset groups
  already in the memo.
"""

from __future__ import annotations

from typing import Optional

from ...algebra import (AggregateCall, AggregateFunction, Case, Column,
                        ColumnRef, GroupBy, IsNull, Join, JoinKind, Literal,
                        LocalGroupBy, Project, RelationalOp, ScalarExpr,
                        Select, conjunction, conjuncts, derive_fds,
                        derive_keys)
from ...algebra.scalar import Arithmetic
from . import joinenum
from .memo import Memo
from .memo import restore_output as _restore


#: Per child position, the operator types an expanded child may have.
ChildPattern = tuple[tuple[type, ...], ...]


class Rule:
    """Base class; ``name`` keys config switches and diagnostics.

    ``pattern`` maps each operator type the rule fires on to the
    :data:`ChildPattern` of its bindings: ``()`` binds the root over group
    references only (the default, for any operator); otherwise each
    binding expands one child whose type is listed for its position.
    """

    name = "rule"
    pattern: dict[type, ChildPattern] = {RelationalOp: ()}

    def match(self, op: RelationalOp) -> Optional[ChildPattern]:
        """The child pattern of bindings rooted at ``op``; ``None`` when
        the rule does not fire on ``op``."""
        for root, children in self.pattern.items():
            if isinstance(op, root):
                return children
        return None

    def matches(self, tree: RelationalOp) -> bool:
        """Whether a tree with expanded children is a binding."""
        children = self.match(tree)
        return children == () or children is not None and any(
            isinstance(child, types)
            for child, types in zip(tree.children, children))

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        raise NotImplementedError


def _ids(columns) -> frozenset[int]:
    return frozenset(c.cid for c in columns)


class JoinEnumerate(Rule):
    """Exact join enumeration: the inner-join cluster rooted at the
    offered join enters the memo with DPccp, every connected subset of
    its leaves as one group and every csg-cmp pair in both orders
    (:mod:`.joinenum`).  Results go straight into the subset groups,
    so nothing is returned."""

    name = joinenum.RULE_NAME
    pattern = {Join: ()}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        if op.kind is JoinKind.INNER:
            joinenum.enumerate_cluster(op, memo)
        return []


class GroupByPushBelowJoin(Rule):
    """Section 3.1/3.2: move a GroupBy below a join or left outer join."""

    name = "groupby_push_below_join"
    pattern = {GroupBy: ((Join,),)}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        join = op.child
        results: list[RelationalOp] = []
        if join.kind is JoinKind.INNER:
            for side in ("right", "left"):
                pushed = _push_groupby_into(op, join, side, outer=False)
                if pushed is not None:
                    results.append(pushed)
        elif join.kind is JoinKind.LEFT_OUTER:
            pushed = _push_groupby_into(op, join, "right", outer=True)
            if pushed is not None:
                results.append(pushed)
        return results


def _sides(join: Join, side: str) -> tuple[RelationalOp, RelationalOp]:
    """The (aggregated, preserved) inputs of a GroupBy moved to ``side``."""
    if side == "right":
        return join.right, join.left
    return join.left, join.right


def _pushed_grouping(group_columns, aggregates, join: Join,
                     side: str) -> Optional[list[Column]]:
    """Section 3.1's conditions for computing a GroupBy on ``side`` of
    the join: the grouping columns it has there, or ``None`` when a
    condition fails."""
    aggregated, preserved = _sides(join, side)
    agg_ids = _ids(aggregated.output_columns())
    group_ids = _ids(group_columns)

    # Condition 3: aggregate expressions confined to the aggregated side.
    for _, call in aggregates:
        if call.argument is None:
            return None  # count(*) counts join multiplicity; do not push
        if not call.argument.free_columns().ids() <= agg_ids:
            return None

    # Condition 1: aggregated-side predicate columns are grouped, directly
    # or pinned per group by the join's equality conjuncts / input FDs
    # (e.g. l2_partkey ≡ p_partkey with p_partkey grouped).  Equality
    # pinning stays valid under LEFT OUTER padding: an unmatched preserved
    # row forms a singleton group.
    # Condition 2: a key of the preserved side is grouped; under an inner
    # join, where every row is a matched one, it may also be pinned that
    # way (c_custkey grouped pins n_nationkey through c_nationkey =
    # n_nationkey).
    keys = derive_keys(preserved)
    keyed = any(key <= group_ids for key in keys)
    predicate_ids = (join.predicate.free_columns().ids()
                     if join.predicate is not None else frozenset())
    inner_pred_ids = predicate_ids & agg_ids
    extra = inner_pred_ids - group_ids
    if not keyed or extra:
        fds = derive_fds(preserved).copy()
        fds.add_all(derive_fds(aggregated))
        if join.predicate is not None:
            from ...algebra.properties import _add_predicate_fds
            _add_predicate_fds(fds, join.predicate)
        if not fds.determines(group_ids, extra):
            return None
        if not keyed and not (join.kind is JoinKind.INNER and any(
                fds.determines(group_ids, key) for key in keys)):
            return None

    by_id = {c.cid: c for c in aggregated.output_columns()}
    grouping = [c for c in group_columns if c.cid in agg_ids]
    for cid in sorted(inner_pred_ids - _ids(grouping)):
        grouping.append(by_id[cid])
    return grouping


def _push_groupby_into(gb: GroupBy, join: Join, side: str,
                       outer: bool) -> Optional[RelationalOp]:
    new_group_cols = _pushed_grouping(gb.group_columns, gb.aggregates,
                                      join, side)
    if new_group_cols is None:
        return None
    if outer:
        return _push_below_outerjoin(gb, join, new_group_cols)

    aggregated, preserved = _sides(join, side)
    pushed = GroupBy(aggregated, new_group_cols, gb.aggregates)
    if side == "right":
        new_join = Join(join.kind, preserved, pushed, join.predicate)
    else:
        new_join = Join(join.kind, pushed, preserved, join.predicate)
    return _restore(new_join, gb.output_columns())


def _push_below_outerjoin(gb: GroupBy, join: Join,
                          new_group_cols: list[Column]
                          ) -> Optional[RelationalOp]:
    """Section 3.2: the pushed GroupBy's aggregates must yield their
    NULL-padded value on unmatched rows; aggregates whose ``agg(∅)`` is not
    NULL get a *computing project* that substitutes the compile-time
    constant."""
    needs_project = [
        (column, call) for column, call in gb.aggregates
        if call.descriptor.value_on_empty is not None]
    if not needs_project:
        pushed = GroupBy(join.right, new_group_cols, gb.aggregates)
        new_join = Join(JoinKind.LEFT_OUTER, join.left, pushed,
                        join.predicate)
        return _restore(new_join, gb.output_columns())

    # Detector: any pushed output column that cannot be NULL except via
    # padding.  Grouping columns may be nullable; a count output is not.
    detector_call = needs_project[0]
    inner_aggs = []
    rename: dict[int, Column] = {}
    for column, call in gb.aggregates:
        if call.descriptor.value_on_empty is None:
            inner_aggs.append((column, call))
        else:
            fresh = Column(column.name, column.dtype, nullable=False)
            rename[column.cid] = fresh
            inner_aggs.append((fresh, call))
    pushed = GroupBy(join.right, new_group_cols, inner_aggs)
    new_join = Join(JoinKind.LEFT_OUTER, join.left, pushed, join.predicate)
    detector = rename[detector_call[0].cid]
    items = []
    for column in gb.output_columns():
        if column.cid in rename:
            inner_col = rename[column.cid]
            constant = None
            for out, call in gb.aggregates:
                if out.cid == column.cid:
                    constant = call.descriptor.value_on_empty
            guarded = Case(
                [(IsNull(ColumnRef(detector)), Literal(constant))],
                ColumnRef(inner_col))
            items.append((column, guarded))
        else:
            items.append((column, ColumnRef(column)))
    return Project(new_join, items)


class GroupByPullAboveJoin(Rule):
    """Section 3.1: S ⋈p (G_{A,F} R) = G_{A∪columns(S),F} (S ⋈p R).

    Also handles the Section 3.2 outer-join direction,
    ``S LOJ_p (G_{A,F} R) = G_{A∪columns(S),F} (S LOJ_p R)``, under the
    conditions that make the NULL-padded row of an unmatched ``s``
    aggregate to exactly the padding the left side produces: every
    aggregate must be NULL-on-empty with an argument strict in ``R``'s
    columns (a padded row contributes nothing and a padded-only group
    yields NULL), and the join predicate must reject NULL on a grouping
    column of ``R`` so no matched row can share a group with the padded
    row.
    """

    name = "groupby_pull_above_join"
    pattern = {Join: ((GroupBy,), (GroupBy,))}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        if op.kind is JoinKind.INNER:
            sides = ("right", "left")
        elif op.kind is JoinKind.LEFT_OUTER:
            sides = ("right",)
        else:
            return []
        results = []
        for side in sides:
            child = op.right if side == "right" else op.left
            other = op.left if side == "right" else op.right
            if not isinstance(child, GroupBy):
                continue
            if memo is not None and not memo.from_statement(child):
                # Only the statement's own GroupBys move up.  One that
                # a rule placed (pushed below a join, split, pulled up
                # already) would go back up beside the GroupBy it came
                # from, with more grouping columns, and from there down
                # again, and the memo would not close; the pushes of
                # the GroupBy above already place it on every side.
                continue
            agg_ids = _ids(c for c, _ in child.aggregates)
            predicate_ids = (op.predicate.free_columns().ids()
                             if op.predicate is not None else frozenset())
            if predicate_ids & agg_ids:
                continue  # predicate may not use aggregate results
            if not derive_keys(other):
                continue  # the joined relation must have a key
            if op.kind is JoinKind.LEFT_OUTER:
                if not self._outer_pull_sound(op, child):
                    continue
            if side == "right":
                new_join = Join(op.kind, other, child.child, op.predicate)
            else:
                new_join = Join(op.kind, child.child, other, op.predicate)
            groups = list(other.output_columns()) + list(child.group_columns)
            pulled = GroupBy(new_join, groups, child.aggregates)
            results.append(_restore(pulled, op.output_columns()))
        return results

    def _outer_pull_sound(self, op: Join, gb: GroupBy) -> bool:
        from ...algebra import null_rejected_columns, strict_columns

        inner_ids = _ids(gb.child.output_columns())
        for _, call in gb.aggregates:
            if call.descriptor.value_on_empty is not None:
                return False  # count would turn NULL padding into 0
            if call.argument is None or \
                    not (strict_columns(call.argument) & inner_ids):
                return False
        if op.predicate is None:
            return False
        rejected = null_rejected_columns(op.predicate)
        group_ids = _ids(gb.group_columns)
        return bool(rejected & group_ids)


class SemiJoinGroupByReorder(Rule):
    """Semijoin/antijoin vs GroupBy, both directions (Section 3.1 end)."""

    name = "semijoin_groupby_reorder"
    pattern = {Join: ((GroupBy,), ()), GroupBy: ((Join,),)}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        # Push the semijoin below: (G R) ⋉p S  →  G (R ⋉p S)
        if isinstance(op, Join) and op.kind.left_only_output:
            gb = op.left
            agg_ids = _ids(c for c, _ in gb.aggregates)
            predicate_ids = (op.predicate.free_columns().ids()
                             if op.predicate is not None else frozenset())
            if not predicate_ids & agg_ids:
                inner = Join(op.kind, gb.child, op.right, op.predicate)
                return [GroupBy(inner, gb.group_columns, gb.aggregates)]
            return []
        # Pull the GroupBy above: G (R ⋉p S) → (G R) ⋉p S
        if isinstance(op, GroupBy) and op.child.kind.left_only_output:
            join = op.child
            predicate_ids = (join.predicate.free_columns().ids()
                             if join.predicate is not None else frozenset())
            left_ids = _ids(join.left.output_columns())
            group_ids = _ids(op.group_columns)
            needed = predicate_ids & left_ids
            if needed <= group_ids:
                gb = GroupBy(join.left, op.group_columns, op.aggregates)
                return [Join(join.kind, gb, join.right, join.predicate)]
        return []


class SemiJoinToJoinDistinct(Rule):
    """Semijoin = join followed by duplicate removal (needs a key)."""

    name = "semijoin_to_join_distinct"
    pattern = {Join: ()}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        if op.kind is not JoinKind.LEFT_SEMI:
            return []
        if not derive_keys(op.left):
            return []
        inner = Join(JoinKind.INNER, op.left, op.right, op.predicate)
        trimmed = Project.passthrough(inner, op.left.output_columns())
        return [GroupBy(trimmed, op.left.output_columns(), [])]


class LocalGlobalSplit(Rule):
    """Section 3.3: G_{A,F} = G_{A,Fg} ∘ LG_{A,Fl} (+ finalizer project)."""

    name = "local_global_split"
    pattern = {GroupBy: ()}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        if not op.aggregates:
            return []
        if any(call.distinct for _, call in op.aggregates):
            return []
        if any(call.argument is None and
               not call.descriptor.splittable
               for _, call in op.aggregates):
            return []
        # Grouped on a key, the local half saves no rows.  This also
        # keeps a global aggregate over its own LocalGroupBy from being
        # split again, which would stack partial aggregates without end.
        group_ids = _ids(op.group_columns)
        if any(key <= group_ids for key in derive_keys(op.child)):
            return []

        local_aggs: list[tuple[Column, AggregateCall]] = []
        global_aggs: list[tuple[Column, AggregateCall]] = []
        finalizers: dict[int, ScalarExpr] = {}
        for column, call in op.aggregates:
            split = call.descriptor.split
            role_to_global: dict[str, Column] = {}
            local_cols = []
            for part in split.local:
                local_col = _derived(
                    memo, ("local", column.cid, part.role, call.argument),
                    f"{column.name}_{part.role}_l",
                    column.dtype if part.func not in
                    (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR)
                    else _int_type())
                argument = (call.argument
                            if part.func is not AggregateFunction.COUNT_STAR
                            else None)
                local_aggs.append(
                    (local_col, AggregateCall(part.func, argument)))
                local_cols.append(local_col)
            if split.finalizer is None:
                (g_part,) = split.global_
                global_aggs.append(
                    (column, AggregateCall(g_part.func,
                                           ColumnRef(local_cols[0]))))
            else:
                for g_part, local_col in zip(split.global_, local_cols):
                    g_col = _derived(
                        memo, ("global", column.cid, local_col.cid),
                        f"{column.name}_{g_part.role}_g", local_col.dtype)
                    global_aggs.append(
                        (g_col, AggregateCall(g_part.func,
                                              ColumnRef(local_col))))
                    role_to_global[g_part.role] = g_col
                if split.finalizer == "sum/count":
                    finalizers[column.cid] = Arithmetic(
                        "/", ColumnRef(role_to_global["sum"]),
                        ColumnRef(role_to_global["count"]))
                else:  # pragma: no cover - only sum/count exists
                    return []

        local = LocalGroupBy(op.child, op.group_columns, local_aggs)
        global_gb = GroupBy(local, op.group_columns, global_aggs)
        if not finalizers:
            return [global_gb]
        items = []
        for column in op.output_columns():
            if column.cid in finalizers:
                items.append((column, finalizers[column.cid]))
            else:
                items.append((column, ColumnRef(column)))
        return [Project(global_gb, items)]


def _derived(memo: Optional[Memo], key: tuple, name: str,
             dtype) -> Column:
    """A nullable column a rule derives from a memo column: made once per
    memo, so every split of one aggregate output agrees on its local and
    global columns and equal splits dedupe."""
    if memo is None:
        return Column(name, dtype, nullable=True)
    return memo.derived_column(
        key, lambda: Column(name, dtype, nullable=True))


def _int_type():
    from ...algebra import DataType
    return DataType.INTEGER


class LocalGroupByPushBelowJoin(Rule):
    """Section 3.3: LocalGroupBy moves below a join to either side —
    grouping columns can always be extended, so the only real condition is
    that the aggregates read one side only."""

    name = "localgroupby_push_below_join"
    pattern = {LocalGroupBy: ((Join,),)}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        join = op.child
        results = []
        if join.kind is JoinKind.INNER:
            sides = ("right", "left")
        elif join.kind is JoinKind.LEFT_OUTER:
            sides = ("right",)
        else:
            return []
        for side in sides:
            pushed = self._push(op, join, side)
            if pushed is not None:
                results.append(pushed)
        return results

    def _push(self, lgb: LocalGroupBy, join: Join,
              side: str) -> Optional[RelationalOp]:
        if join.kind is JoinKind.INNER and _pushed_grouping(
                lgb.group_columns, lgb.aggregates, join, side) is not None:
            # Dominated: the GroupBy this LocalGroupBy was split from
            # moves to the same side with the same grouping, and needs
            # no global aggregate above the join.
            return None
        target = join.right if side == "right" else join.left
        other = join.left if side == "right" else join.right
        target_ids = _ids(target.output_columns())
        for _, call in lgb.aggregates:
            if call.argument is None:
                return None  # count(*) over the join counts multiplicity
            arg_ids = call.argument.free_columns().ids()
            if not arg_ids <= target_ids:
                return None
            if join.kind is JoinKind.LEFT_OUTER:
                from ...algebra import strict_columns
                if not strict_columns(call.argument) & target_ids:
                    return None  # padded rows must contribute nothing
        predicate_ids = (join.predicate.free_columns().ids()
                         if join.predicate is not None else frozenset())
        by_id = {c.cid: c for c in target.output_columns()}
        group_cols = [c for c in lgb.group_columns if c.cid in target_ids]
        for cid in sorted((predicate_ids & target_ids)
                          - _ids(group_cols)):
            group_cols.append(by_id[cid])
        if not group_cols:
            return None  # degenerate: nothing to segment on
        if any(key <= _ids(group_cols) for key in derive_keys(target)):
            return None  # grouped on a key: one row per group, no saving
        # Below a LEFT OUTER join the same Section 3.2 hazard as
        # _push_below_outerjoin applies: a padded row carries NULL local
        # aggregates, but an aggregate with a non-NULL agg(∅) (count)
        # must deliver that constant or the global combination above the
        # join (sum of local counts) turns an all-padded group into NULL.
        rename: dict[int, Column] = {}
        pushed_aggs = lgb.aggregates
        if join.kind is JoinKind.LEFT_OUTER:
            renamed = []
            for column, call in lgb.aggregates:
                if call.descriptor.value_on_empty is None:
                    renamed.append((column, call))
                else:
                    fresh = Column(column.name, column.dtype,
                                   nullable=False)
                    rename[column.cid] = fresh
                    renamed.append((fresh, call))
            if rename:
                pushed_aggs = renamed
        pushed = LocalGroupBy(target, group_cols, pushed_aggs)
        if side == "right":
            new_join = Join(join.kind, other, pushed, join.predicate)
        else:
            new_join = Join(join.kind, pushed, other, join.predicate)
        if not rename:
            return _restore(new_join, lgb.output_columns())
        detector = next(iter(rename.values()))
        constants = {column.cid: call.descriptor.value_on_empty
                     for column, call in lgb.aggregates}
        items = []
        for column in lgb.output_columns():
            if column.cid in rename:
                guarded = Case(
                    [(IsNull(ColumnRef(detector)),
                      Literal(constants[column.cid]))],
                    ColumnRef(rename[column.cid]))
                items.append((column, guarded))
            else:
                items.append((column, ColumnRef(column)))
        return Project(new_join, items)


class SelectPushdown(Rule):
    """Move filters below projections, join inputs and GroupBy inside the
    memo.

    The normalizer's global selection pushdown runs before exploration;
    this rule re-applies the same (Section 3.1) moves to trees *produced by
    other rules* — e.g. once GroupByPushBelowJoin computes the aggregate on
    one join side, the HAVING filter can follow it below the join, which is
    what makes the three formulations of the Section 1.1 query converge to
    one plan (syntax independence).
    """

    name = "select_pushdown"
    pattern = {Select: ((Project, Join, GroupBy, LocalGroupBy),)}

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        child = op.child

        if isinstance(child, Project):
            mapping = {c.cid: e for c, e in child.items}
            if op.predicate.free_columns().ids() <= frozenset(mapping):
                pushed = op.predicate.substitute_columns(mapping)
                return [Project(Select(child.child, pushed), child.items)]
            return []

        if isinstance(child, Join):
            results = []
            left_ids = _ids(child.left.output_columns())
            parts = conjuncts(op.predicate)
            to_left = [p for p in parts
                       if p.free_columns().ids() <= left_ids]
            rest = [p for p in parts
                    if not p.free_columns().ids() <= left_ids]
            if to_left:
                new_left = Select(child.left, conjunction(to_left))
                pushed_join = Join(child.kind, new_left, child.right,
                                   child.predicate)
                tree = Select(pushed_join, conjunction(rest)) if rest \
                    else pushed_join
                results.append(tree)
            if child.kind is JoinKind.INNER:
                right_ids = _ids(child.right.output_columns())
                to_right = [p for p in parts
                            if p.free_columns().ids() <= right_ids]
                remainder = [p for p in parts
                             if not p.free_columns().ids() <= right_ids]
                if to_right:
                    new_right = Select(child.right, conjunction(to_right))
                    pushed_join = Join(child.kind, child.left, new_right,
                                       child.predicate)
                    tree = Select(pushed_join, conjunction(remainder)) \
                        if remainder else pushed_join
                    results.append(tree)
            return results

        # GroupBy or LocalGroupBy
        group_ids = _ids(child.group_columns)
        parts = conjuncts(op.predicate)
        down = [p for p in parts if p.free_columns().ids() <= group_ids]
        stay = [p for p in parts if not p.free_columns().ids() <= group_ids]
        if not down:
            return []
        pushed = child.with_children([Select(child.child, conjunction(down))])
        return [Select(pushed, conjunction(stay)) if stay else pushed]


DEFAULT_RULES: tuple[Rule, ...] = (
    JoinEnumerate(),
    SelectPushdown(),
    GroupByPushBelowJoin(),
    GroupByPullAboveJoin(),
    SemiJoinGroupByReorder(),
    SemiJoinToJoinDistinct(),
    LocalGlobalSplit(),
    LocalGroupByPushBelowJoin(),
)
