"""EXPLAIN: options, and the one rendering of a compiled statement.

Every explain entry point (``Database``/``PreparedStatement``/``Session``
``.explain``, SQL-level ``EXPLAIN [ANALYZE]``, the wire ``explain`` op,
the analysis CLI) resolves to one :class:`ExplainOptions` and ends in
:func:`render`, which draws the entry the compile step produced — the
plan ``execute`` runs — as text or as JSON-safe dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .algebra import RelationalOp, explain
from .errors import ReproError
from .feedback import render_tree, tree_dict, tree_max_q_error
from .physical import explain_physical

#: Output formats accepted by the unified explain API.
EXPLAIN_FORMATS = ("text", "dict")


@dataclass(frozen=True)
class ExplainOptions:
    """Options shared by every explain entry point.

    * ``analyze`` — actually execute the query once, with per-operator
      row counting, and annotate each plan node with its actual
      cardinality and Q-error next to the optimizer's estimate;
    * ``costs`` — include the optimizer's total cost estimate;
    * ``format`` — ``"text"`` (indented tree, the default) or ``"dict"``
      (JSON-safe nested dicts, the wire representation).
    """

    analyze: bool = False
    costs: bool = False
    format: str = "text"

    def __post_init__(self) -> None:
        if self.format not in EXPLAIN_FORMATS:
            raise ValueError(
                f"unknown explain format {self.format!r}; expected one "
                f"of: {', '.join(EXPLAIN_FORMATS)}")


def explain_options(options: ExplainOptions | None, analyze: bool,
                    costs: bool, format: str) -> ExplainOptions:
    """Resolve an explain call's arguments to one ``ExplainOptions``: an
    explicit ``options`` object wins over the individual keywords."""
    if options is not None:
        return options
    return ExplainOptions(analyze=analyze, costs=costs, format=format)


def _logical_estimates(rel: RelationalOp, estimator) -> dict[int, float]:
    """Per-node cardinality estimates for a logical tree, keyed by node
    identity — EXPLAIN ANALYZE's estimate source in naive mode, where no
    physical plan carries stamped estimates."""
    estimates: dict[int, float] = {}

    def visit(node: RelationalOp) -> None:
        try:
            estimates[id(node)] = estimator.estimate(node).rows
        except ReproError:
            pass  # advisory only: an inestimable node shows no est=
        for child in node.children:
            visit(child)

    visit(rel)
    return estimates


def render(entry, sql: str, mode_name: str, options: ExplainOptions,
           estimator, result=None) -> "str | dict":
    """Draw ``entry`` (a :class:`~repro.plancache.CachedPlan`).

    Without ``result`` this is plain EXPLAIN: the logical tree that was
    optimized (the bound tree in naive mode, which interprets it as is),
    the physical plan and, with ``options.costs``, the estimates.
    ``result`` is the profiled :class:`~repro.result.QueryResult` of one
    execution (EXPLAIN ANALYZE): every node of the tree that ran carries
    estimated rows, actual rows and Q-error — estimates stamped at
    costing time on physical plans, computed here by ``estimator`` for
    an interpreted logical tree.

    The ``-- materialized view --`` / ``"matview"`` and ``-- degraded --``
    / ``"degraded"`` sections appear only for rewritten entries and for
    plans (or runs) that came off a fallback rung of the degradation
    ladder, so every other rendering is unaffected by them.
    """
    logical = entry.normalized if entry.normalized is not None else entry.rel
    reason = entry.fallback_reason
    if result is None:
        payload: dict[str, Any] = {
            "sql": sql, "mode": mode_name, "analyze": False,
            "logical": explain(logical),
            "plan": tree_dict(entry.plan if entry.plan is not None
                              else logical)}
        if options.costs and entry.cost is not None:
            payload["cost"] = entry.cost
    else:
        _, profile = result.profiled
        stats = result.stats
        reason = stats.fallback_reason
        if entry.plan is not None:
            tree = tree_dict(entry.plan, profile)
        else:
            tree = tree_dict(entry.rel, profile,
                             _logical_estimates(entry.rel, estimator))
        stats.max_q_error = tree_max_q_error(tree)
        payload = {"sql": sql, "mode": mode_name, "engine": entry.engine,
                   "analyze": True, "plan": tree,
                   "row_count": len(result.rows), "stats": stats.as_dict()}
    if entry.matview_name is not None:
        payload["matview"] = {"view": entry.matview_name,
                              "sql": entry.rewritten_sql}
    if reason is not None:
        payload["degraded"] = reason
    if options.format == "dict":
        return payload
    # Text draws the same payload, section by section.
    sections = []
    if entry.matview_name is not None:
        sections += ["-- materialized view --",
                     f"rewritten to scan {entry.matview_name}:",
                     str(entry.rewritten_sql)]
    if result is not None:
        kind = "physical" if entry.plan is not None else "logical"
        sections += [f"-- {kind} (analyze) --", render_tree(payload["plan"]),
                     "-- execution --", f"rows: {payload['row_count']}",
                     f"elapsed: {stats.elapsed_seconds:.6f}s"]
        if stats.max_q_error is not None:
            sections.append(f"max q-error: {stats.max_q_error:.2f}")
    else:
        sections += ["-- logical (normalized) --"
                     if entry.normalized is not None
                     else "-- logical (bound) --", payload["logical"]]
        if entry.plan is not None:
            sections += ["-- physical --", explain_physical(entry.plan)]
        if "cost" in payload:
            sections += ["-- estimates --", f"cost: {entry.cost:.1f}",
                         f"rows: {estimator.estimate(logical).rows:.1f}"]
    if reason is not None:
        sections += ["-- degraded --", reason]
    return "\n".join(sections)
