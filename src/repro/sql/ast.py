"""Abstract syntax tree for the supported SQL subset.

Pure syntax: no name resolution, no types.  The binder
(:mod:`repro.binder`) turns these nodes into the algebra of
:mod:`repro.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Identifier(Expr):
    """A possibly qualified name: ``col`` or ``alias.col``."""

    parts: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list or inside count(*)."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class NumberLiteral(Expr):
    text: str

    @property
    def value(self) -> Union[int, float]:
        if "." in self.text:
            return float(self.text)
        return int(self.text)


@dataclass(frozen=True)
class StringLiteral(Expr):
    value: str


@dataclass(frozen=True)
class BooleanLiteral(Expr):
    value: bool


@dataclass(frozen=True)
class NullLiteral(Expr):
    pass


@dataclass(frozen=True)
class DateLiteral(Expr):
    """``date 'YYYY-MM-DD'``."""

    text: str


@dataclass(frozen=True)
class IntervalLiteral(Expr):
    """``interval 'N' day|month|year``."""

    quantity: int
    unit: str  # "day" | "month" | "year"


@dataclass(frozen=True)
class Parameter(Expr):
    """A parameter marker: positional ``?`` or named ``:name``.

    ``index`` is the zero-based slot assigned by the parser (appearance
    order for ``?``; first-appearance order per distinct name for
    ``:name``).
    """

    index: int
    name: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, AND/OR — parser-level binary operator."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "not"
    operand: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Aggregate or scalar function call."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class ExtractExpr(Expr):
    """``extract(year|month|day from expr)``."""

    part: str
    operand: Expr


@dataclass(frozen=True)
class CaseExpr(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    otherwise: Optional[Expr]


@dataclass(frozen=True)
class BetweenExpr(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class LikeExpr(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNullExpr(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class InExpr(Expr):
    """``operand [NOT] IN (values... | subquery)``."""

    operand: Expr
    values: Optional[tuple[Expr, ...]] = None
    subquery: Optional["Query"] = None
    negated: bool = False


@dataclass(frozen=True)
class ExistsExpr(Expr):
    subquery: "Query"
    negated: bool = False


@dataclass(frozen=True)
class SubqueryExpr(Expr):
    """A parenthesized query used as a scalar value."""

    subquery: "Query"


@dataclass(frozen=True)
class QuantifiedExpr(Expr):
    """``operand op ANY|ALL (subquery)`` (SOME is ANY)."""

    op: str
    quantifier: str  # "ANY" | "ALL"
    operand: Expr
    subquery: "Query"


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------

class TableExpr:
    """Base class for FROM items."""

    __slots__ = ()


@dataclass(frozen=True)
class TableRef(TableExpr):
    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable(TableExpr):
    """``(subquery) AS alias [(column aliases)]``."""

    subquery: "Query"
    alias: str
    column_aliases: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class JoinExpr(TableExpr):
    """Explicit JOIN syntax; ``kind`` in {inner, left, cross}."""

    kind: str
    left: TableExpr
    right: TableExpr
    condition: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement:
    select_items: tuple[SelectItem, ...]
    distinct: bool = False
    from_items: tuple[TableExpr, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: int = 0


@dataclass(frozen=True)
class UnionStatement:
    """``left UNION ALL right`` (bag union; plain UNION is rejected by the
    parser with a pointer to use UNION ALL + DISTINCT, matching the paper's
    bag-oriented algebra)."""

    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class ExceptStatement:
    """``left EXCEPT ALL right`` (bag difference)."""

    left: "Query"
    right: "Query"


Query = Union[SelectStatement, UnionStatement, ExceptStatement]
