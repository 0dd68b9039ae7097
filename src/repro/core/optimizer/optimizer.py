"""Cost-based optimizer driver — paper Section 4.

Pipeline: selection pushdown → SegmentApply whole-tree variants, added
to the root group of one memo → memo exploration (transformation rules)
→ implementation (physical alternatives, costed) → cheapest plan wins →
required columns (:mod:`repro.physical.required`) narrow it.

``OptimizerConfig`` switches individual technique families on and off;
the benchmark harness uses these switches as the paper's "systems" axis
(FULL vs decorrelation-only vs naive) and for ablations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ... import faultinject
from ...algebra import RelationalOp
from ...analysis import PlanAnalyzer
from ...catalog.statistics import TableStats
from ...physical.plan import PhysicalOp
from ...physical.required import prune_columns
from .cardinality import Estimate, Estimator
from .implementation import CostedPlan, Implementer
from .memo import GroupExpr, GroupRefLeaf, Memo
from .pushdown import push_selections
from .rules import DEFAULT_RULES, ChildPattern, Rule
from .segment import segment_alternatives


@dataclass
class OptimizerConfig:
    """Feature switches for the optimization techniques."""

    predicate_pushdown: bool = True
    join_reorder: bool = True
    groupby_reorder: bool = True
    local_aggregates: bool = True
    segment_apply: bool = True
    index_apply: bool = True
    semijoin_rewrites: bool = True
    max_memo_exprs: int = 3000

    def rule_enabled(self, rule: Rule) -> bool:
        name = rule.name
        if name == "select_pushdown":
            return self.predicate_pushdown
        if name.startswith("join_"):
            return self.join_reorder
        if name in ("groupby_push_below_join", "groupby_pull_above_join",
                    "semijoin_groupby_reorder"):
            return self.groupby_reorder
        if name == "semijoin_to_join_distinct":
            return self.semijoin_rewrites
        if name.startswith("local"):
            return self.local_aggregates
        return True


class _TreeContext:
    """Implementation-time services for one memo (stats, indexes, nested
    optimization of SegmentApply inner trees)."""

    def __init__(self, optimizer: "Optimizer",
                 segment_rows: Mapping[frozenset[int], Estimate]) -> None:
        self._optimizer = optimizer
        self._segment_rows = dict(segment_rows)
        self.config = optimizer.config

    def table_rows(self, table_name: str) -> float:
        stats = self._optimizer.stats_provider(table_name)
        return float(stats.row_count) if stats is not None else 1000.0

    def zone_skip_rows(self, table_name: str, predicate,
                       scan_columns) -> float:
        """Rows a zone-map-pruned scan would skip for ``predicate``
        (literal conjuncts only — parameters are unknown at plan time).
        0.0 without a zone provider, so costing is unchanged when the
        optimizer runs detached from storage."""
        provider = self._optimizer.zone_provider
        if provider is None:
            return 0.0
        return provider(table_name, predicate, scan_columns)

    def pick_index(self, table_name: str,
                   available: set[str]) -> Optional[tuple[str, ...]]:
        """The widest index whose every column has a probe value."""
        best: Optional[tuple[str, ...]] = None
        for index_cols in self._optimizer.index_provider(table_name):
            if set(index_cols) <= available:
                if best is None or len(index_cols) > len(best):
                    best = tuple(index_cols)
        return best

    def index_selectivity_denominator(self, table_name: str,
                                      index_cols) -> float:
        stats = self._optimizer.stats_provider(table_name)
        if stats is None:
            return 10.0
        denominator = 1.0
        for name in index_cols:
            info = stats.column(name)
            denominator *= max(float(info.distinct_count), 1.0) \
                if info is not None else 10.0
        return denominator

    def make_estimator(self, group_lookup=None) -> Estimator:
        return Estimator(self._optimizer.stats_provider, group_lookup,
                         self._segment_rows,
                         corrections=self._optimizer.corrections)

    def optimize_subtree(self, rel: RelationalOp,
                         segment_rows: Mapping[frozenset[int], Estimate]
                         ) -> CostedPlan:
        merged = dict(self._segment_rows)
        merged.update(segment_rows)
        return self._optimizer._optimize_tree(rel, merged)


class Optimizer:
    """Cost-based optimizer over a statistics and index provider."""

    def __init__(self,
                 stats_provider: Callable[[str], Optional[TableStats]],
                 index_provider: Callable[[str], list[tuple[str, ...]]],
                 config: OptimizerConfig | None = None,
                 governor=None, corrections=None,
                 zone_provider=None) -> None:
        self.stats_provider = stats_provider
        self.index_provider = index_provider
        self.config = config or OptimizerConfig()
        #: Optional ``(table_name, predicate, scan_columns) -> float``
        #: returning how many stored rows the chunk zone maps prove
        #: unreachable for the predicate — feeds zone-aware scan costs.
        self.zone_provider = zone_provider
        #: Optional per-query ResourceGovernor; ticked per exploration
        #: task and consulted for the memo-group cap and the deadline.
        self.governor = governor
        #: Optional :class:`~repro.catalog.statistics.CorrectionStore`
        #: of runtime cardinality observations; threaded into every
        #: Estimator this optimizer creates so corrected estimates steer
        #: join ordering, implementation choices and segment costing.
        self.corrections = corrections

    def optimize(self, rel: RelationalOp) -> PhysicalOp:
        return self.optimize_with_cost(rel).plan

    def optimize_with_cost(self, rel: RelationalOp) -> CostedPlan:
        if self.config.predicate_pushdown:
            rel = push_selections(rel)
        # SegmentApply patterns are detected on the canonical pushed-down
        # shape; each whole-tree variant joins the root group of the same
        # memo, so shared subtrees dedupe and are explored once.
        variants = segment_alternatives(rel) \
            if self.config.segment_apply else []
        costed = self._optimize_tree(rel, {}, alternatives=variants)
        return CostedPlan(costed.cost, prune_columns(costed.plan))

    def heuristic_plan(self, rel: RelationalOp) -> PhysicalOp:
        """A safe plan with no cost-based exploration.

        Implements the normalized tree as-is — no pushed variants, no
        transformation rules, no budgets — choosing only among the direct
        physical algorithms for each logical operator.  This is the
        graceful-degradation target when cost-based optimization fails or
        blows its budget.
        """
        return prune_columns(self._optimize_tree(rel, {}, explore=False).plan)

    # -- one memo per tree ------------------------------------------------------

    def _optimize_tree(self, rel: RelationalOp,
                       segment_rows: Mapping[frozenset[int], Estimate],
                       explore: bool = True,
                       alternatives: Sequence[RelationalOp] = ()
                       ) -> CostedPlan:
        context = _TreeContext(self, segment_rows)
        memo = Memo(context.make_estimator,
                    governor=self.governor if explore else None,
                    indexes=self.index_provider
                    if self.config.index_apply else None)
        root = memo.insert_tree(rel)
        for alternative in alternatives:
            memo.insert_tree(alternative, target_group=root)
        if explore:
            self._explore(memo)
        implementer = Implementer(memo, context)
        return implementer.ordered_plan(root)

    def _explore(self, memo: Memo) -> None:
        """Work-list exploration: every expression is offered to every rule
        once (with the child bindings available at that moment); results
        enter the memo and the work list.  A global expression budget
        (``max_memo_exprs``) bounds the memo; the join enumerator checks
        it too."""
        rules = [r for r in DEFAULT_RULES if self.config.rule_enabled(r)]
        if not rules:
            return
        queue: deque[tuple[GroupExpr, int]] = deque(
            (expr, group.group_id)
            for group in memo.groups for expr in group.exprs)
        memo.statement_exprs = memo.expr_count
        memo.max_exprs = self.config.max_memo_exprs
        memo.on_new_expr = lambda expr, group_id: queue.append(
            (expr, group_id))
        governor = self.governor
        analyzer = PlanAnalyzer.for_rules()
        try:
            while queue and not memo.exhausted():
                faultinject.hit("optimizer.explore")
                expr, group_id = queue.popleft()
                for rule in rules:
                    if governor is not None:
                        governor.tick_optimizer()
                    children = rule.match(expr.op)
                    if children is None:
                        continue
                    for binding in _bindings(memo, expr.op, children):
                        for result in rule.apply(binding, memo):
                            if analyzer is not None:
                                analyzer.check_rule_application(
                                    rule.name, binding, result)
                            memo.add_expr_to_group(result, group_id)
        finally:
            memo.on_new_expr = None


def _bindings(memo: Memo, op: RelationalOp, children: ChildPattern):
    """The bindings of ``op`` a rule's child pattern admits: ``op`` itself
    at depth 1, else one per child-group expression of a listed type."""
    if not children:
        yield op
        return
    for i, (child, types) in enumerate(zip(op.children, children)):
        if not types or not isinstance(child, GroupRefLeaf):
            continue
        for child_expr in memo.group(child.group_id).exprs:
            if isinstance(child_expr.op, types):
                expanded = list(op.children)
                expanded[i] = child_expr.op
                yield op.with_children(expanded)
