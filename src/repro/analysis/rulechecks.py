"""Rule-specific legality re-verification (paper Section 3).

The generic invariants of :mod:`.invariants` catch structural damage; the
checks here re-derive the *semantic* side conditions of the GroupBy
reordering rules from the rule's input, independently of the rule code
that decided to fire.  A rule with a broken condition test produces a
structurally pristine but semantically wrong tree — exactly the class of
bug Section 3's conditions exist to prevent — and these checks catch it
at the moment of application.

Also here: :func:`verify_oj_simplification`, a lockstep checker for the
normalizer's outerjoin-simplification pass.  It recomputes a *superset*
of the null-rejected columns the pass may legally rely on (every
propagation step is relaxed relative to ``oj_simplify``: guards are
ignored, cardinality resets are skipped, aggregate transmission is
unconditional) and flags any LOJ→join conversion that is unjustifiable
even under that relaxation.  Sound by construction: anything flagged is
definitely illegal.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from ..algebra.properties import (derive_fds, derive_keys,
                                  null_rejected_columns, strict_columns,
                                  _add_predicate_fds)
from ..algebra.relational import (Apply, Difference, GroupBy, Join,
                                  JoinKind, Project, RelationalOp, Select,
                                  UnionAll, _GroupByBase)
from ..algebra.scalar import Case, conjuncts
from .issues import AnalysisIssue

RuleCheck = Callable[[RelationalOp, RelationalOp], list[AnalysisIssue]]


def _ids(columns) -> frozenset[int]:
    return frozenset(c.cid for c in columns)


def _issue(code: str, message: str, node: str = "") -> AnalysisIssue:
    return AnalysisIssue(code, message, node=node)


def _strip_projects(rel: RelationalOp) -> RelationalOp:
    while isinstance(rel, Project):
        rel = rel.child
    return rel


def _predicate_ids(join: Join) -> frozenset[int]:
    if join.predicate is None:
        return frozenset()
    return join.predicate.free_columns().ids()


# ---------------------------------------------------------------------------
# GroupBy motion (Sections 3.1 / 3.2)
# ---------------------------------------------------------------------------

def check_groupby_push_below_join(before: RelationalOp,
                                  after: RelationalOp
                                  ) -> list[AnalysisIssue]:
    if not (isinstance(before, GroupBy) and isinstance(before.child, Join)):
        return [_issue("rule.pattern",
                       "groupby_push_below_join fired without a "
                       "GroupBy-over-Join input", before.label())]
    join = before.child
    core = _strip_projects(after)
    if not isinstance(core, Join):
        return [_issue("rule.pattern",
                       "result of groupby_push_below_join is not a join",
                       after.label())]
    pushed_left = isinstance(_strip_projects(core.left), _GroupByBase)
    pushed_right = isinstance(_strip_projects(core.right), _GroupByBase)
    if pushed_left == pushed_right:
        return []  # cannot identify the pushed side; generic checks only
    side = "left" if pushed_left else "right"
    aggregated = join.left if side == "left" else join.right
    preserved = join.right if side == "left" else join.left
    issues: list[AnalysisIssue] = []
    if core.kind is not join.kind:
        issues.append(_issue(
            "rule.join-kind-changed",
            f"join kind changed from {join.kind.value} to "
            f"{core.kind.value}", after.label()))
    if join.kind is JoinKind.LEFT_OUTER and side != "right":
        issues.append(_issue(
            "groupby.outerjoin-side",
            "a GroupBy may only be pushed into the NULL-padded side of a "
            "left outer join", after.label()))

    agg_ids = _ids(aggregated.output_columns())
    group_ids = _ids(before.group_columns)

    # Condition: aggregates confined to the aggregated side; count(*)
    # would count join multiplicity and may never be pushed.
    for column, call in before.aggregates:
        if call.argument is None:
            issues.append(_issue(
                "groupby.push-countstar",
                f"count(*) (output {column!r}) counts join multiplicity "
                f"and cannot be pushed below a join", before.label()))
        elif not call.argument.free_columns().ids() <= agg_ids:
            issues.append(_issue(
                "groupby.push-agg-side",
                f"aggregate {call.sql()} reads columns of the preserved "
                f"side", before.label()))

    fds = derive_fds(preserved).copy()
    fds.add_all(derive_fds(aggregated))
    if join.predicate is not None:
        _add_predicate_fds(fds, join.predicate)

    # Condition: a key of the preserved side is among the grouping
    # columns, or, under an inner join (no NULL padding), pinned per
    # group by them through functional dependencies (otherwise the join
    # duplicates pre-aggregated rows).
    keys = derive_keys(preserved)
    if not any(key <= group_ids for key in keys) and not (
            join.kind is JoinKind.INNER
            and any(fds.determines(group_ids, key) for key in keys)):
        issues.append(_issue(
            "groupby.push-no-key",
            "no key of the preserved side is contained in (or, under an "
            "inner join, determined by) the grouping columns",
            before.label()))

    # Condition: aggregated-side predicate columns are grouped, or pinned
    # per group through functional dependencies.
    extra = (_predicate_ids(join) & agg_ids) - group_ids
    if extra:
        if not fds.determines(group_ids, extra):
            names = ", ".join(f"#{cid}" for cid in sorted(extra))
            issues.append(_issue(
                "groupby.push-predicate-columns",
                f"join-predicate columns {names} on the aggregated side "
                f"are neither grouped nor functionally determined by the "
                f"grouping columns", before.label()))

    # Section 3.2: under a left outer join, any aggregate whose agg(∅) is
    # non-NULL needs the computing project that patches padded rows.
    if join.kind is JoinKind.LEFT_OUTER and any(
            call.descriptor.value_on_empty is not None
            for _, call in before.aggregates):
        wrappers: list[Project] = []
        node = after
        while isinstance(node, Project):
            wrappers.append(node)
            node = node.child
        has_patch = any(isinstance(expr, Case)
                        for wrapper in wrappers
                        for _, expr in wrapper.items)
        if not has_patch:
            issues.append(_issue(
                "groupby.outerjoin-no-computing-project",
                "an aggregate with non-NULL agg(∅) was pushed below a "
                "left outer join without a computing project patching "
                "NULL-padded rows", after.label()))
    return issues


def check_groupby_pull_above_join(before: RelationalOp,
                                  after: RelationalOp
                                  ) -> list[AnalysisIssue]:
    if not isinstance(before, Join):
        return [_issue("rule.pattern",
                       "groupby_pull_above_join fired without a join "
                       "input", before.label())]
    candidates = []
    for side in ("left", "right"):
        child = before.left if side == "left" else before.right
        if isinstance(child, GroupBy):
            candidates.append((side, child))
    if not candidates:
        return [_issue("rule.pattern",
                       "groupby_pull_above_join fired without a GroupBy "
                       "join input", before.label())]
    predicate_ids = _predicate_ids(before)
    failures: list[AnalysisIssue] = []
    for side, child in candidates:
        other = before.right if side == "left" else before.left
        side_issues: list[AnalysisIssue] = []
        agg_ids = _ids(c for c, _ in child.aggregates)
        if predicate_ids & agg_ids:
            side_issues.append(_issue(
                "groupby.pull-predicate-on-aggregate",
                "the join predicate reads aggregate results, which do "
                "not exist below the pulled GroupBy", before.label()))
        if not derive_keys(other):
            side_issues.append(_issue(
                "groupby.pull-no-key",
                "the joined relation has no key, so the join may "
                "duplicate rows into a group", before.label()))
        if before.kind is JoinKind.LEFT_OUTER:
            side_issues.extend(_outer_pull_issues(before, child))
        elif before.kind is not JoinKind.INNER:
            side_issues.append(_issue(
                "groupby.pull-join-kind",
                f"GroupBy pull-above is not defined for "
                f"{before.kind.value} joins", before.label()))
        if not side_issues:
            return []  # at least one admissible side justifies the result
        failures = side_issues
    return failures


def _outer_pull_issues(op: Join, gb: GroupBy) -> list[AnalysisIssue]:
    issues: list[AnalysisIssue] = []
    inner_ids = _ids(gb.child.output_columns())
    for _, call in gb.aggregates:
        if call.descriptor.value_on_empty is not None:
            issues.append(_issue(
                "groupby.outerjoin-pull-empty-value",
                f"{call.sql()} yields a non-NULL value on an empty group "
                f"and would turn NULL padding into a constant",
                op.label()))
        elif call.argument is None or \
                not (strict_columns(call.argument) & inner_ids):
            issues.append(_issue(
                "groupby.outerjoin-pull-nonstrict",
                f"{call.sql()} is not strict in the aggregated side, so "
                f"a padded row would contribute to its group",
                op.label()))
    group_ids = _ids(gb.group_columns)
    if op.predicate is None or \
            not (null_rejected_columns(op.predicate) & group_ids):
        issues.append(_issue(
            "groupby.outerjoin-pull-no-rejection",
            "the join predicate does not reject NULL on a grouping "
            "column, so matched rows could share a group with the "
            "padded row", op.label()))
    return issues


def check_semijoin_groupby_reorder(before: RelationalOp,
                                   after: RelationalOp
                                   ) -> list[AnalysisIssue]:
    # Direction 1: (G R) ⋉p S → G (R ⋉p S)
    if isinstance(before, Join) and before.kind.left_only_output \
            and isinstance(before.left, GroupBy):
        gb = before.left
        agg_ids = _ids(c for c, _ in gb.aggregates)
        if _predicate_ids(before) & agg_ids:
            return [_issue(
                "semijoin.predicate-on-aggregate",
                "the semijoin predicate reads aggregate results, which "
                "do not exist below the pushed semijoin",
                before.label())]
        return []
    # Direction 2: G (R ⋉p S) → (G R) ⋉p S
    if isinstance(before, GroupBy) and isinstance(before.child, Join) \
            and before.child.kind.left_only_output:
        join = before.child
        needed = _predicate_ids(join) & _ids(join.left.output_columns())
        if not needed <= _ids(before.group_columns):
            names = ", ".join(f"#{cid}" for cid in
                              sorted(needed - _ids(before.group_columns)))
            return [_issue(
                "semijoin.predicate-columns-ungrouped",
                f"semijoin-predicate columns {names} are not grouping "
                f"columns, so the filter differs per pre-aggregation row",
                before.label())]
        return []
    return [_issue("rule.pattern",
                   "semijoin_groupby_reorder fired without a matching "
                   "input shape", before.label())]


def check_semijoin_to_join_distinct(before: RelationalOp,
                                    after: RelationalOp
                                    ) -> list[AnalysisIssue]:
    if not (isinstance(before, Join)
            and before.kind is JoinKind.LEFT_SEMI):
        return [_issue("rule.pattern",
                       "semijoin_to_join_distinct fired without a "
                       "semijoin input", before.label())]
    issues: list[AnalysisIssue] = []
    if not derive_keys(before.left):
        issues.append(_issue(
            "semijoin.distinct-no-key",
            "the semijoin's left input has no key; join-plus-distinct "
            "would collapse genuine duplicates", before.label()))
    core = _strip_projects(after)
    if isinstance(core, GroupBy):
        if core.aggregates:
            issues.append(_issue(
                "semijoin.distinct-aggregates",
                "the duplicate-removal GroupBy computes aggregates",
                after.label()))
        if _ids(core.group_columns) != _ids(before.left.output_columns()):
            issues.append(_issue(
                "semijoin.distinct-groups",
                "the duplicate-removal GroupBy does not group on exactly "
                "the left input's columns", after.label()))
    else:
        issues.append(_issue(
            "rule.pattern",
            "result of semijoin_to_join_distinct lacks the "
            "duplicate-removal GroupBy", after.label()))
    return issues


# ---------------------------------------------------------------------------
# Join enumeration
# ---------------------------------------------------------------------------

def _inner_join_cluster(rel: RelationalOp, leaves: Counter,
                        parts: Counter) -> None:
    """Leaves and conjuncts of the tree of inner joins (and pass-through
    projections) at ``rel``."""
    if isinstance(rel, Project) and rel.is_pure_passthrough():
        _inner_join_cluster(rel.child, leaves, parts)
    elif isinstance(rel, Join) and rel.kind is JoinKind.INNER:
        _inner_join_cluster(rel.left, leaves, parts)
        _inner_join_cluster(rel.right, leaves, parts)
        if rel.predicate is not None:
            parts.update(conjuncts(rel.predicate))
    else:
        leaves[id(rel)] += 1


def check_join_enumerate(before: RelationalOp,
                         after: RelationalOp) -> list[AnalysisIssue]:
    """An enumerated join order reads the same leaves under the same
    conjuncts as the cluster it was enumerated from (the column set is
    checked for every rule)."""
    issues: list[AnalysisIssue] = []
    found = []
    for rel in (before, after):
        leaves: Counter = Counter()
        parts: Counter = Counter()
        _inner_join_cluster(rel, leaves, parts)
        found.append((leaves, parts))
    (leaves_before, parts_before), (leaves_after, parts_after) = found
    if leaves_before != leaves_after:
        issues.append(_issue(
            "join.leaves-changed",
            "the enumerated join does not read the cluster's leaves "
            "exactly once each", after.label()))
    if parts_before != parts_after:
        missing = ", ".join(p.sql() for p in parts_before - parts_after)
        extra = ", ".join(p.sql() for p in parts_after - parts_before)
        issues.append(_issue(
            "join.conjuncts-changed",
            f"the enumerated join's conjuncts differ from the cluster's "
            f"(missing: {missing or '-'}; extra: {extra or '-'})",
            after.label()))
    return issues


#: Rule-name-keyed legality re-checks, consulted per application.
RULE_CHECKS: dict[str, RuleCheck] = {
    "join_enumerate": check_join_enumerate,
    "groupby_push_below_join": check_groupby_push_below_join,
    "groupby_pull_above_join": check_groupby_pull_above_join,
    "semijoin_groupby_reorder": check_semijoin_groupby_reorder,
    "semijoin_to_join_distinct": check_semijoin_to_join_distinct,
}


# ---------------------------------------------------------------------------
# Outerjoin-simplification lockstep check (paper Section 2.3 / 4)
# ---------------------------------------------------------------------------

def verify_oj_simplification(before: RelationalOp,
                             after: RelationalOp) -> list[AnalysisIssue]:
    """Flag LOJ→join conversions no null-rejection evidence can justify.

    Walks the two trees in lockstep (the pass only flips join kinds, so
    the shapes must match) carrying a deliberate *over*-approximation of
    the columns on which NULL rows are rejected above each position; a
    conversion whose right side intersects even that superset nowhere is
    illegal under any reading of the Section 2.3 condition.
    """
    issues: list[AnalysisIssue] = []
    _oj_walk(before, after, frozenset(), (), issues)
    return issues


def _oj_walk(before: RelationalOp, after: RelationalOp,
             rejected: frozenset[int], path: tuple[int, ...],
             issues: list[AnalysisIssue]) -> None:
    if type(before) is not type(after) or \
            len(before.children) != len(after.children):
        issues.append(AnalysisIssue(
            "oj.shape-changed",
            f"outerjoin simplification changed the tree shape "
            f"({before.label()} became {after.label()})",
            node=after.label(), path=path))
        return
    if isinstance(before, (Join, Apply)) and before.kind is not after.kind:
        if (before.kind, after.kind) != (JoinKind.LEFT_OUTER,
                                         JoinKind.INNER):
            issues.append(AnalysisIssue(
                "oj.kind-changed",
                f"unexpected join-kind change {before.kind.value} → "
                f"{after.kind.value}", node=after.label(), path=path))
        else:
            right_ids = _ids(before.right.output_columns())
            if not rejected & right_ids:
                issues.append(AnalysisIssue(
                    "oj.unjustified-simplification",
                    "left outer join was converted to a join, but no "
                    "predicate above rejects NULL on any column of the "
                    "NULL-padded side", node=after.label(), path=path))
    child_rejected = _oj_propagate(before, rejected)
    for index, (b_child, a_child) in enumerate(zip(before.children,
                                                   after.children)):
        _oj_walk(b_child, a_child, child_rejected[index], path + (index,),
                 issues)


def _oj_propagate(rel: RelationalOp,
                  rejected: frozenset[int]) -> list[frozenset[int]]:
    """Per-child null-rejection supersets (see verify_oj_simplification)."""
    if isinstance(rel, Select):
        down = rejected | null_rejected_columns(rel.predicate)
        return [down]
    if isinstance(rel, (Join, Apply)):
        down = rejected
        if rel.predicate is not None:
            down = down | null_rejected_columns(rel.predicate)
        return [down, down]
    if isinstance(rel, Project):
        extra: set[int] = set()
        for column, expr in rel.items:
            if column.cid in rejected:
                extra.update(strict_columns(expr))
        return [rejected | extra]
    if isinstance(rel, _GroupByBase):
        extra = set()
        for column, call in rel.aggregates:
            if column.cid in rejected and call.argument is not None:
                extra.update(strict_columns(call.argument))
        return [rejected | extra]
    if isinstance(rel, UnionAll):
        downs = []
        out_ids = [c.cid for c in rel.columns]
        for imap in rel.input_maps:
            translated = {imap[j].cid for j, cid in enumerate(out_ids)
                          if cid in rejected}
            downs.append(rejected | translated)
        return downs
    if isinstance(rel, Difference):
        out_ids = [c.cid for c in rel.columns]
        downs = []
        for imap in (rel.left_map, rel.right_map):
            translated = {imap[j].cid for j, cid in enumerate(out_ids)
                          if cid in rejected}
            downs.append(rejected | translated)
        return downs
    return [rejected] * len(rel.children)
