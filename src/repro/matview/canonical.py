"""Canonical form of single-table aggregate queries.

Materialized-view matching needs a *semantic* fingerprint of a query, not
its text: ``SELECT sum(x) FROM t AS a WHERE a.y = 1 GROUP BY a.g`` and
``select SUM(x) from t where y=1 group by g`` must compare equal.  This
module canonicalizes the supported shape —

    SELECT <group cols and aggregates>
    FROM <one table>
    [WHERE <conjuncts>]
    GROUP BY <plain columns>
    [ORDER BY <outputs>] [LIMIT n]

— into a :class:`CanonicalAggregate`: qualifiers stripped, identifiers
lowered, the WHERE split into an ordered conjunct tuple, aggregates
reduced to ``(func, column)`` pairs.  Anything outside the shape (joins,
subqueries, DISTINCT aggregates, HAVING, expressions under GROUP BY)
returns ``None`` and is simply ineligible for view matching — the paper's
§3.3 segmented form only needs the plain group-by case.

The same canonical expressions are re-emitted as SQL by
:func:`emit_expr` when the matcher builds the rewritten query and when
a view's defining query is rebuilt for storage (which per-commit
maintenance binds and compiles like any other query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..sql import ast

#: Aggregate functions a canonical query may use.  ``count_star`` is
#: ``count(*)``; the rest take a single plain column argument.
AGG_FUNCS = frozenset({"count", "sum", "avg", "min", "max"})

#: Comparison and arithmetic operators admitted inside conjuncts.  The
#: lexer already normalizes ``!=`` to ``<>``.
_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/"})
_BOOLEAN = frozenset({"and", "or"})


@dataclass(frozen=True)
class AggSpec:
    """One aggregate call: ``func`` over ``column`` (``None`` = ``*``)."""

    func: str  # "count_star" | "count" | "sum" | "avg" | "min" | "max"
    column: Optional[str]


#: One output column: a group column or an aggregate.
Output = Union[str, AggSpec]


@dataclass(frozen=True)
class CanonicalAggregate:
    """Semantic fingerprint of a single-table aggregate query."""

    table: str                          # base table name, lowered
    group_cols: tuple[str, ...]         # GROUP BY columns, lowered
    conjuncts: tuple[ast.Expr, ...]     # canonicalized WHERE conjuncts
    outputs: tuple[Output, ...]         # select list, left to right
    names: tuple[str, ...]              # bound output names
    order_by: tuple[tuple[int, bool], ...]  # (output position, ascending)
    limit: Optional[int]

    @property
    def aggregates(self) -> tuple[AggSpec, ...]:
        return tuple(o for o in self.outputs if isinstance(o, AggSpec))

    def has_parameters(self) -> bool:
        return any(expr_has_parameter(c) for c in self.conjuncts)


def canonicalize(query: ast.Query) -> Optional[CanonicalAggregate]:
    """Canonicalize ``query``, or ``None`` if it is outside the shape."""
    if not isinstance(query, ast.SelectStatement):
        return None
    if query.distinct or query.having is not None or query.offset:
        return None
    if len(query.from_items) != 1:
        return None
    source = query.from_items[0]
    if not isinstance(source, ast.TableRef):
        return None

    group_cols = []
    for expr in query.group_by:
        col = _plain_column(expr)
        if col is None:
            return None
        group_cols.append(col)

    conjuncts: list[ast.Expr] = []
    if query.where is not None:
        for part in _split_and(query.where):
            canon = canonical_expr(part)
            if canon is None:
                return None
            conjuncts.append(canon)

    outputs: list[Output] = []
    names: list[str] = []
    for position, item in enumerate(query.select_items):
        output = _canonical_output(item.expr, group_cols)
        if output is None:
            return None
        outputs.append(output)
        names.append(_output_name(item, position))

    order_by: list[tuple[int, bool]] = []
    for order in query.order_by:
        position = _order_position(order.expr, outputs, names)
        if position is None:
            return None
        order_by.append((position, order.ascending))

    return CanonicalAggregate(
        table=source.name.lower(),
        group_cols=tuple(group_cols),
        conjuncts=tuple(conjuncts),
        outputs=tuple(outputs),
        names=tuple(names),
        order_by=tuple(order_by),
        limit=query.limit)


def _split_and(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _plain_column(expr: ast.Expr) -> Optional[str]:
    if isinstance(expr, ast.Identifier):
        return expr.parts[-1].lower()
    return None


def _canonical_output(expr: ast.Expr,
                      group_cols: list[str]) -> Optional[Output]:
    col = _plain_column(expr)
    if col is not None:
        return col if col in group_cols else None
    if not isinstance(expr, ast.FunctionCall):
        return None
    func = expr.name.lower()
    if func not in AGG_FUNCS or expr.distinct or len(expr.args) != 1:
        return None
    arg = expr.args[0]
    if func == "count" and isinstance(arg, ast.Star):
        return AggSpec("count_star", None)
    arg_col = _plain_column(arg)
    if arg_col is None:
        return None
    return AggSpec(func, arg_col)


def _output_name(item: ast.SelectItem, position: int) -> str:
    """Mirror the binder's output-name derivation exactly."""
    if item.alias:
        return item.alias.lower()
    if isinstance(item.expr, ast.Identifier):
        return item.expr.parts[-1].lower()
    if isinstance(item.expr, ast.FunctionCall):
        return item.expr.name.lower()
    return f"col{position + 1}"


def _order_position(expr: ast.Expr, outputs: list[Output],
                    names: list[str]) -> Optional[int]:
    name = _plain_column(expr)
    if name is None:
        return None
    if name in names:
        return names.index(name)
    # An unaliased group column ordered under its column name.
    for position, output in enumerate(outputs):
        if output == name:
            return position
    return None


# ---------------------------------------------------------------------------
# Canonical scalar expressions (WHERE conjuncts)
# ---------------------------------------------------------------------------

def canonical_expr(expr: ast.Expr) -> Optional[ast.Expr]:
    """Rebuild ``expr`` with qualifiers stripped and names lowered.

    Returns ``None`` when the expression falls outside the evaluable
    subset (subqueries, LIKE, EXTRACT, CASE, function calls): such
    predicates are never view-matched, so canonicalization of the whole
    query fails conservatively.
    """
    if isinstance(expr, ast.Identifier):
        return ast.Identifier((expr.parts[-1].lower(),))
    if isinstance(expr, (ast.NumberLiteral, ast.StringLiteral,
                         ast.BooleanLiteral, ast.NullLiteral,
                         ast.DateLiteral, ast.IntervalLiteral,
                         ast.Parameter)):
        return expr
    if isinstance(expr, ast.BinaryOp):
        if expr.op not in _COMPARISONS | _ARITHMETIC | _BOOLEAN:
            return None
        left = canonical_expr(expr.left)
        right = canonical_expr(expr.right)
        if left is None or right is None:
            return None
        return ast.BinaryOp(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        operand = canonical_expr(expr.operand)
        if operand is None or expr.op not in ("-", "not"):
            return None
        return ast.UnaryOp(expr.op, operand)
    if isinstance(expr, ast.BetweenExpr):
        operand = canonical_expr(expr.operand)
        low = canonical_expr(expr.low)
        high = canonical_expr(expr.high)
        if operand is None or low is None or high is None:
            return None
        return ast.BetweenExpr(operand, low, high, expr.negated)
    if isinstance(expr, ast.IsNullExpr):
        operand = canonical_expr(expr.operand)
        if operand is None:
            return None
        return ast.IsNullExpr(operand, expr.negated)
    if isinstance(expr, ast.InExpr):
        if expr.subquery is not None or expr.values is None:
            return None
        operand = canonical_expr(expr.operand)
        values = tuple(canonical_expr(v) for v in expr.values)
        if operand is None or any(v is None for v in values):
            return None
        return ast.InExpr(operand, values=values, negated=expr.negated)
    return None


def expr_columns(expr: ast.Expr) -> frozenset[str]:
    """Column names a canonical expression references."""
    if isinstance(expr, ast.Identifier):
        return frozenset({expr.parts[-1].lower()})
    found: set[str] = set()
    if isinstance(expr, ast.BinaryOp):
        found |= expr_columns(expr.left) | expr_columns(expr.right)
    elif isinstance(expr, ast.UnaryOp):
        found |= expr_columns(expr.operand)
    elif isinstance(expr, ast.BetweenExpr):
        found |= (expr_columns(expr.operand) | expr_columns(expr.low)
                  | expr_columns(expr.high))
    elif isinstance(expr, ast.IsNullExpr):
        found |= expr_columns(expr.operand)
    elif isinstance(expr, ast.InExpr) and expr.values is not None:
        found |= expr_columns(expr.operand)
        for value in expr.values:
            found |= expr_columns(value)
    return frozenset(found)


def expr_has_parameter(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Parameter):
        return True
    if isinstance(expr, ast.BinaryOp):
        return (expr_has_parameter(expr.left)
                or expr_has_parameter(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return expr_has_parameter(expr.operand)
    if isinstance(expr, ast.BetweenExpr):
        return (expr_has_parameter(expr.operand)
                or expr_has_parameter(expr.low)
                or expr_has_parameter(expr.high))
    if isinstance(expr, ast.IsNullExpr):
        return expr_has_parameter(expr.operand)
    if isinstance(expr, ast.InExpr) and expr.values is not None:
        return (expr_has_parameter(expr.operand)
                or any(expr_has_parameter(v) for v in expr.values))
    return False


def quote(name: str) -> str:
    """Quote an identifier for re-emitted SQL.

    Quoting unconditionally keeps generated queries immune to keyword
    collisions (a bound output named ``count`` is a legal alias).
    """
    return '"' + name.replace('"', '""') + '"'


def emit_expr(expr: ast.Expr) -> str:
    """Render a canonical expression back to parseable SQL.

    Parameters re-emit as ``:name`` or ``?``; because canonical queries
    only carry parameters inside WHERE conjuncts and the matcher
    preserves conjunct order, positional slots keep their original
    indices when the emitted text is re-parsed.
    """
    if isinstance(expr, ast.Identifier):
        return quote(expr.parts[-1])
    if isinstance(expr, ast.NumberLiteral):
        return expr.text
    if isinstance(expr, ast.StringLiteral):
        return "'" + expr.value.replace("'", "''") + "'"
    if isinstance(expr, ast.BooleanLiteral):
        return "TRUE" if expr.value else "FALSE"
    if isinstance(expr, ast.NullLiteral):
        return "NULL"
    if isinstance(expr, ast.DateLiteral):
        return f"DATE '{expr.text}'"
    if isinstance(expr, ast.IntervalLiteral):
        return f"INTERVAL '{expr.quantity}' {expr.unit.upper()}"
    if isinstance(expr, ast.Parameter):
        return f":{expr.name}" if expr.name is not None else "?"
    if isinstance(expr, ast.BinaryOp):
        return (f"({emit_expr(expr.left)} {expr.op.upper()} "
                f"{emit_expr(expr.right)})")
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "not":
            return f"(NOT {emit_expr(expr.operand)})"
        return f"(- {emit_expr(expr.operand)})"
    if isinstance(expr, ast.BetweenExpr):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (f"({emit_expr(expr.operand)} {keyword} "
                f"{emit_expr(expr.low)} AND {emit_expr(expr.high)})")
    if isinstance(expr, ast.IsNullExpr):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({emit_expr(expr.operand)} {keyword})"
    if isinstance(expr, ast.InExpr) and expr.values is not None:
        keyword = "NOT IN" if expr.negated else "IN"
        values = ", ".join(emit_expr(v) for v in expr.values)
        return f"({emit_expr(expr.operand)} {keyword} ({values}))"
    raise ValueError(f"cannot emit {type(expr).__name__}")
