"""Rule patterns never drop an alternative.

Each transformation rule declares the operator types its bindings must
have (:attr:`Rule.pattern`) and exploration builds only those bindings.
Before patterns, every rule was offered the root of every expression
and, for depth-2 rules, one binding per child-group expression, and
rejected the misfits itself.  This suite replays that unfiltered
enumeration next to the real one while the 22 TPC-H templates and the
paper's Figure 4 formulations compile, and requires every binding the
patterns skip to produce nothing under the rule as it was: the leading
guard it carried (restated in ``OLD_GUARDS``), then its body.

The second check is global: per statement, the number of memos, memo
groups, memo expressions and governor rule applications equal the
counts of the unfiltered enumeration, recorded below.
"""

import pytest

from repro import FULL, Database
from repro.algebra import GroupBy, Join, LocalGroupBy, Project, Select
from repro.core.normalize import normalize
from repro.core.optimizer import optimizer as optimizer_module
from repro.core.optimizer.memo import GroupRefLeaf
from repro.core.optimizer.rules import Rule
from repro.governor import ResourceGovernor
from repro.sql import parse
from repro.tpch import (QUERIES, create_tpch_schema, generate_tpch,
                        paper_example_formulations)

#: (memos explored, memo groups, memo expressions, rule applications)
#: on the SF 0.001 / seed 7 golden database under the unfiltered
#: enumeration.
UNFILTERED_COUNTS = {
    "Q1": (1, 6, 7, 56),
    "Q2": (1, 246, 1151, 9208),
    "Q3": (1, 23, 39, 312),
    "Q4": (1, 10, 13, 104),
    "Q5": (1, 134, 443, 3544),
    "Q6": (1, 3, 3, 24),
    "Q7": (1, 38, 164, 1312),
    "Q8": (1, 54, 275, 2200),
    "Q9": (1, 42, 214, 1712),
    "Q10": (1, 35, 71, 568),
    "Q11": (1, 24, 38, 304),
    "Q12": (1, 7, 9, 72),
    "Q13": (1, 14, 19, 152),
    "Q14": (1, 6, 7, 56),
    "Q15": (1, 17, 27, 216),
    "Q16": (1, 10, 11, 88),
    "Q17": (2, 42, 66, 528),
    "Q18": (1, 37, 74, 592),
    "Q19": (1, 6, 7, 56),
    "Q20": (1, 31, 46, 368),
    "Q21": (1, 30, 71, 568),
    "Q22": (1, 12, 14, 112),
    "correlated subquery": (1, 14, 23, 184),
    "outerjoin then aggregate": (1, 14, 23, 184),
    "aggregate then join": (1, 8, 10, 80),
}

CASES = {**QUERIES, **paper_example_formulations()}

#: The leading type guards each rule carried before patterns replaced
#: them: a binding its guard rejected produced ``[]`` before the body ran.
OLD_GUARDS = {
    "join_enumerate": lambda op: isinstance(op, Join),
    "select_pushdown": lambda op: (
        isinstance(op, Select)
        and isinstance(op.child, (Project, Join, GroupBy, LocalGroupBy))),
    "groupby_push_below_join": lambda op: (isinstance(op, GroupBy)
                                           and isinstance(op.child, Join)),
    "groupby_pull_above_join": lambda op: isinstance(op, Join),
    "semijoin_groupby_reorder": lambda op: (
        (isinstance(op, Join) and isinstance(op.left, GroupBy))
        or (isinstance(op, GroupBy) and isinstance(op.child, Join))),
    "semijoin_to_join_distinct": lambda op: isinstance(op, Join),
    "local_global_split": lambda op: isinstance(op, GroupBy),
    "localgroupby_push_below_join": lambda op: (
        isinstance(op, LocalGroupBy) and isinstance(op.child, Join)),
}


def unfiltered_bindings(memo, op, depth2: bool):
    """The enumeration before patterns: ``(position, child op)`` per
    binding, ``(None, None)`` for the root over group references."""
    yield None, None
    if not depth2:
        return
    for i, child in enumerate(op.children):
        if isinstance(child, GroupRefLeaf):
            for child_expr in memo.group(child.group_id).exprs:
                yield i, child_expr.op


def expand(op, position, child_op):
    if position is None:
        return op
    children = list(op.children)
    children[position] = child_op
    return op.with_children(children)


class ReplaySpy(Rule):
    """Wraps a rule: on every (expression, rule) offer, replays the
    unfiltered enumeration and applies the rule to each binding the
    pattern skips."""

    def __init__(self, rule: Rule, state: dict) -> None:
        self.rule = rule
        self.name = rule.name
        self.pattern = rule.pattern
        self.state = state

    def match(self, op):
        children = self.rule.match(op)
        memo = self.state["memo"]
        depth2 = any(self.rule.pattern.values())
        kept = set()
        if children is not None:
            for binding in optimizer_module._bindings(memo, op, children):
                changed = [i for i, (new, old) in enumerate(
                    zip(binding.children, op.children)) if new is not old]
                kept.add((changed[0], binding.children[changed[0]])
                         if changed else (None, None))
        for position, child_op in unfiltered_bindings(memo, op, depth2):
            if (position, child_op) in kept:
                continue
            self.state["skipped"] += 1
            binding = expand(op, position, child_op)
            if not OLD_GUARDS[self.name](binding):
                continue
            self.state["replayed"] += 1
            produced = self.rule.apply(binding, memo)
            assert produced == [], (
                f"{self.name} skipped a binding that produces "
                f"{len(produced)} alternative(s): {op.label()}")
        return children

    def apply(self, op, memo):
        return self.rule.apply(op, memo)


@pytest.fixture(scope="module")
def golden_db() -> Database:
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.001, seed=7)
    return db


def test_patterns_skip_only_bindings_without_alternatives(golden_db,
                                                          monkeypatch):
    assert OLD_GUARDS.keys() == {rule.name for rule in
                                 optimizer_module.DEFAULT_RULES}
    state = {"memo": None, "skipped": 0, "replayed": 0, "memos": []}
    explore = optimizer_module.Optimizer._explore

    def spy_explore(self, memo):
        state["memo"] = memo
        explore(self, memo)
        state["memos"].append(
            (len(memo.groups), sum(len(g.exprs) for g in memo.groups)))

    monkeypatch.setattr(optimizer_module.Optimizer, "_explore", spy_explore)
    monkeypatch.setattr(optimizer_module, "DEFAULT_RULES", tuple(
        ReplaySpy(rule, state) for rule in optimizer_module.DEFAULT_RULES))
    counts = {}
    for name, sql in CASES.items():
        del state["memos"][:]
        governor = ResourceGovernor()
        normalized = normalize(golden_db._binder.bind(parse(sql)).rel,
                               FULL.normalize_config)
        golden_db._optimizer(FULL, governor).optimize_with_cost(normalized)
        memos = state["memos"]
        counts[name] = (len(memos), sum(g for g, _ in memos),
                        sum(e for _, e in memos),
                        governor.rule_applications)
    assert counts == UNFILTERED_COUNTS
    # The replay is not vacuous: patterns skip the bulk of the old
    # enumeration (about 93 thousand bindings at this scale), and the
    # rule bodies themselves rejected over ten thousand of them.
    assert state["skipped"] > 90_000
    assert state["replayed"] > 10_000
