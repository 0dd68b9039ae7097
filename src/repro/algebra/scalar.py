"""Scalar expression trees.

Two families of nodes live here:

* ordinary scalar operators (column references, literals, comparisons,
  three-valued AND/OR/NOT, arithmetic, CASE, IS NULL, LIKE, IN-list), and
* *relational-valued* scalar operators — :class:`ScalarSubquery`,
  :class:`ExistsSubquery`, :class:`InSubquery` and
  :class:`QuantifiedComparison` — whose child is a relational operator tree.

The second family is exactly the mutual-recursion representation of paper
Section 2.1 (Figure 3): scalar operators may have relational subexpressions
as children.  Normalization eliminates them by introducing ``Apply``; after
normalization a well-formed plan contains only the first family.

Expressions are immutable.  Structural helpers (``children`` /
``with_children`` / ``substitute_columns``) give rewrites a uniform way to
rebuild trees, and ``free_columns`` reports the columns an expression reads —
the basis of the correlation (outer-reference) analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from .aggregates import AggregateFunction, descriptor
from .columns import Column, ColumnSet
from .datatypes import DataType, infer_literal_type

if TYPE_CHECKING:  # pragma: no cover
    from .relational import RelationalOp


class ScalarExpr:
    """Base class of all scalar expression nodes."""

    __slots__ = ()

    # -- structure ----------------------------------------------------------

    @property
    def children(self) -> tuple["ScalarExpr", ...]:
        return ()

    def with_children(self, children: Sequence["ScalarExpr"]) -> "ScalarExpr":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    @property
    def relational_children(self) -> tuple["RelationalOp", ...]:
        """Relational subtrees (non-empty only pre-normalization)."""
        return ()

    def contains_subquery(self) -> bool:
        if self.relational_children:
            return True
        return any(c.contains_subquery() for c in self.children)

    # -- typing ---------------------------------------------------------------

    @property
    def dtype(self) -> DataType:
        raise NotImplementedError

    @property
    def nullable(self) -> bool:
        return True

    # -- analysis --------------------------------------------------------------

    def free_columns(self) -> ColumnSet:
        """All columns this expression reads (including inside subqueries)."""
        found: dict[int, Column] = {}
        for child in self.children:
            for column in child.free_columns():
                found.setdefault(column.cid, column)
        for rel in self.relational_children:
            for column in rel.outer_references():
                found.setdefault(column.cid, column)
        return ColumnSet(found.values())

    def substitute_columns(self, mapping: Mapping[int, "ScalarExpr"]) -> "ScalarExpr":
        """Replace column references by ``mapping[cid]`` where present."""
        new_children = tuple(c.substitute_columns(mapping) for c in self.children)
        if all(n is o for n, o in zip(new_children, self.children)):
            return self
        return self.with_children(new_children)

    def remap_columns(self, mapping: Mapping[int, Column]) -> "ScalarExpr":
        """Replace column references by other columns (id-level rename)."""
        return self.substitute_columns(
            {cid: ColumnRef(col) for cid, col in mapping.items()})

    # -- equality ---------------------------------------------------------------

    def _key(self) -> tuple:
        """Structural identity key; subclasses extend it with local fields."""
        return (type(self).__name__,) + tuple(c._key() for c in self.children)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScalarExpr) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return self.sql()

    def sql(self) -> str:
        """Best-effort SQL-ish rendering for EXPLAIN output."""
        raise NotImplementedError


class ColumnRef(ScalarExpr):
    """Reference to a column by identity."""

    __slots__ = ("column",)

    def __init__(self, column: Column) -> None:
        self.column = column

    @property
    def dtype(self) -> DataType:
        return self.column.dtype

    @property
    def nullable(self) -> bool:
        return self.column.nullable

    def free_columns(self) -> ColumnSet:
        return ColumnSet.of(self.column)

    def substitute_columns(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return mapping.get(self.column.cid, self)

    def _key(self) -> tuple:
        return ("col", self.column.cid)

    def sql(self) -> str:
        return repr(self.column)


class Literal(ScalarExpr):
    """A constant value (``None`` is SQL NULL)."""

    __slots__ = ("value", "_dtype")

    def __init__(self, value: Any, dtype: DataType | None = None) -> None:
        self.value = value
        self._dtype = dtype if dtype is not None else infer_literal_type(value)

    @property
    def dtype(self) -> DataType:
        return self._dtype

    @property
    def nullable(self) -> bool:
        return self.value is None

    def _key(self) -> tuple:
        return ("lit", self.value, self._dtype)

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


TRUE = Literal(True)
FALSE = Literal(False)


class Parameter(ScalarExpr):
    """A query parameter placeholder (``?`` or ``:name``).

    The value is supplied at execution time; within one execution the slot
    is a constant, so rewrites may treat it like a literal of unknown value
    (it reads no columns and has no side effects) — but constant folding
    must never evaluate it at plan time, which falls out of it not being a
    :class:`Literal`.  The type is deferred (:attr:`DataType.UNKNOWN`).
    """

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str | None = None) -> None:
        if index < 0:
            raise ValueError("parameter index must be non-negative")
        self.index = index
        self.name = name

    @property
    def dtype(self) -> DataType:
        return DataType.UNKNOWN

    @property
    def nullable(self) -> bool:
        return True  # NULL may be bound

    def _key(self) -> tuple:
        return ("param", self.index)

    def sql(self) -> str:
        return f":{self.name}" if self.name is not None else f"?{self.index}"


def parameter_slot(index: int) -> int:
    """Key of parameter ``index`` in an execution environment.

    Execution environments map column ids (positive integers) to values;
    parameter slots share the mapping under negative keys so the executors
    need no second lookup structure.
    """
    return -1 - index


class Comparison(ScalarExpr):
    """Binary comparison with SQL NULL propagation."""

    __slots__ = ("op", "left", "right")

    VALID_OPS = ("=", "<>", "<", "<=", ">", ">=")

    def __init__(self, op: str, left: ScalarExpr, right: ScalarExpr) -> None:
        if op not in self.VALID_OPS:
            raise ValueError(f"invalid comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[ScalarExpr]) -> "Comparison":
        left, right = children
        return Comparison(self.op, left, right)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return self.left.nullable or self.right.nullable

    def _key(self) -> tuple:
        return ("cmp", self.op, self.left._key(), self.right._key())

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


class And(ScalarExpr):
    """N-ary three-valued conjunction."""

    __slots__ = ("args",)

    def __init__(self, args: Iterable[ScalarExpr]) -> None:
        self.args = tuple(args)
        if len(self.args) < 1:
            raise ValueError("And requires at least one argument")

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return self.args

    def with_children(self, children: Sequence[ScalarExpr]) -> "And":
        return And(children)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return any(a.nullable for a in self.args)

    def _key(self) -> tuple:
        return ("and",) + tuple(a._key() for a in self.args)

    def sql(self) -> str:
        return "(" + " AND ".join(a.sql() for a in self.args) + ")"


class Or(ScalarExpr):
    """N-ary three-valued disjunction."""

    __slots__ = ("args",)

    def __init__(self, args: Iterable[ScalarExpr]) -> None:
        self.args = tuple(args)
        if len(self.args) < 1:
            raise ValueError("Or requires at least one argument")

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return self.args

    def with_children(self, children: Sequence[ScalarExpr]) -> "Or":
        return Or(children)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return any(a.nullable for a in self.args)

    def _key(self) -> tuple:
        return ("or",) + tuple(a._key() for a in self.args)

    def sql(self) -> str:
        return "(" + " OR ".join(a.sql() for a in self.args) + ")"


class Not(ScalarExpr):
    """Three-valued negation."""

    __slots__ = ("arg",)

    def __init__(self, arg: ScalarExpr) -> None:
        self.arg = arg

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.arg,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "Not":
        (arg,) = children
        return Not(arg)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return self.arg.nullable

    def _key(self) -> tuple:
        return ("not", self.arg._key())

    def sql(self) -> str:
        return f"NOT ({self.arg.sql()})"


class IsNull(ScalarExpr):
    """``expr IS [NOT] NULL`` — never yields UNKNOWN."""

    __slots__ = ("arg", "negated")

    def __init__(self, arg: ScalarExpr, negated: bool = False) -> None:
        self.arg = arg
        self.negated = negated

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.arg,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "IsNull":
        (arg,) = children
        return IsNull(arg, self.negated)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return False

    def _key(self) -> tuple:
        return ("isnull", self.negated, self.arg._key())

    def sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.arg.sql()} {suffix}"


class Arithmetic(ScalarExpr):
    """Binary arithmetic (+ - * /) with NULL propagation."""

    __slots__ = ("op", "left", "right")

    VALID_OPS = ("+", "-", "*", "/")

    def __init__(self, op: str, left: ScalarExpr, right: ScalarExpr) -> None:
        if op not in self.VALID_OPS:
            raise ValueError(f"invalid arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[ScalarExpr]) -> "Arithmetic":
        left, right = children
        return Arithmetic(self.op, left, right)

    @property
    def dtype(self) -> DataType:
        left, right = self.left.dtype, self.right.dtype
        if DataType.UNKNOWN in (left, right):
            return DataType.UNKNOWN
        if DataType.INTERVAL in (left, right):
            return left if right is DataType.INTERVAL else right
        if left is DataType.DATE and right is DataType.DATE:
            return DataType.INTEGER  # date difference in days
        if self.op == "/":
            return DataType.FLOAT
        if DataType.FLOAT in (left, right):
            return DataType.FLOAT
        if DataType.DECIMAL in (left, right):
            return DataType.DECIMAL
        return left

    @property
    def nullable(self) -> bool:
        return self.left.nullable or self.right.nullable

    def _key(self) -> tuple:
        return ("arith", self.op, self.left._key(), self.right._key())

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


class Negate(ScalarExpr):
    """Unary minus."""

    __slots__ = ("arg",)

    def __init__(self, arg: ScalarExpr) -> None:
        self.arg = arg

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.arg,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "Negate":
        (arg,) = children
        return Negate(arg)

    @property
    def dtype(self) -> DataType:
        return self.arg.dtype

    @property
    def nullable(self) -> bool:
        return self.arg.nullable

    def _key(self) -> tuple:
        return ("neg", self.arg._key())

    def sql(self) -> str:
        return f"(-{self.arg.sql()})"


class Case(ScalarExpr):
    """Searched CASE.

    ``whens`` is a sequence of (condition, result) pairs; ``otherwise`` is
    the ELSE branch (NULL when absent).  Evaluation is lazy — only the
    selected branch runs — which matters for paper Section 2.4's
    "conditional scalar execution" discussion.
    """

    __slots__ = ("whens", "otherwise")

    def __init__(self, whens: Sequence[tuple[ScalarExpr, ScalarExpr]],
                 otherwise: ScalarExpr | None = None) -> None:
        if not whens:
            raise ValueError("CASE requires at least one WHEN")
        self.whens = tuple((c, v) for c, v in whens)
        self.otherwise = otherwise

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        flat: list[ScalarExpr] = []
        for cond, value in self.whens:
            flat.append(cond)
            flat.append(value)
        if self.otherwise is not None:
            flat.append(self.otherwise)
        return tuple(flat)

    def with_children(self, children: Sequence[ScalarExpr]) -> "Case":
        n = len(self.whens)
        whens = [(children[2 * i], children[2 * i + 1]) for i in range(n)]
        otherwise = children[2 * n] if self.otherwise is not None else None
        return Case(whens, otherwise)

    @property
    def dtype(self) -> DataType:
        return self.whens[0][1].dtype

    @property
    def nullable(self) -> bool:
        if self.otherwise is None:
            return True
        branches = [v for _, v in self.whens] + [self.otherwise]
        return any(b.nullable for b in branches)

    def _key(self) -> tuple:
        parts = tuple((c._key(), v._key()) for c, v in self.whens)
        other = self.otherwise._key() if self.otherwise is not None else None
        return ("case", parts, other)

    def sql(self) -> str:
        whens = " ".join(f"WHEN {c.sql()} THEN {v.sql()}" for c, v in self.whens)
        tail = f" ELSE {self.otherwise.sql()}" if self.otherwise is not None else ""
        return f"CASE {whens}{tail} END"


class Extract(ScalarExpr):
    """``extract(year|month|day from date_expr)`` — NULL-propagating."""

    __slots__ = ("part", "arg")

    VALID_PARTS = ("year", "month", "day")

    def __init__(self, part: str, arg: ScalarExpr) -> None:
        if part not in self.VALID_PARTS:
            raise ValueError(f"invalid extract part {part!r}")
        self.part = part
        self.arg = arg

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.arg,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "Extract":
        (arg,) = children
        return Extract(self.part, arg)

    @property
    def dtype(self) -> DataType:
        return DataType.INTEGER

    @property
    def nullable(self) -> bool:
        return self.arg.nullable

    def _key(self) -> tuple:
        return ("extract", self.part, self.arg._key())

    def sql(self) -> str:
        return f"extract({self.part} from {self.arg.sql()})"


class Like(ScalarExpr):
    """SQL LIKE with %/_ wildcards against a constant pattern."""

    __slots__ = ("arg", "pattern", "negated")

    def __init__(self, arg: ScalarExpr, pattern: str, negated: bool = False) -> None:
        self.arg = arg
        self.pattern = pattern
        self.negated = negated

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.arg,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "Like":
        (arg,) = children
        return Like(arg, self.pattern, self.negated)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return self.arg.nullable

    def _key(self) -> tuple:
        return ("like", self.pattern, self.negated, self.arg._key())

    def sql(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.arg.sql()} {op} {Literal(self.pattern).sql()}"


class InList(ScalarExpr):
    """``expr [NOT] IN (v1, v2, ...)`` over constant values."""

    __slots__ = ("arg", "values", "negated")

    def __init__(self, arg: ScalarExpr, values: Sequence[Any],
                 negated: bool = False) -> None:
        self.arg = arg
        self.values = tuple(values)
        self.negated = negated

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.arg,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "InList":
        (arg,) = children
        return InList(arg, self.values, self.negated)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return self.arg.nullable or any(v is None for v in self.values)

    def _key(self) -> tuple:
        return ("inlist", self.values, self.negated, self.arg._key())

    def sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        inner = ", ".join(Literal(v).sql() for v in self.values)
        return f"{self.arg.sql()} {op} ({inner})"


class AggregateCall(ScalarExpr):
    """An aggregate function application.

    Valid only as an item of a GroupBy-family operator, never inside an
    arbitrary scalar tree (the binder enforces this).  ``argument`` is
    ``None`` exactly for ``count(*)``.
    """

    __slots__ = ("func", "argument", "distinct")

    def __init__(self, func: AggregateFunction,
                 argument: ScalarExpr | None = None,
                 distinct: bool = False) -> None:
        if (argument is None) != (func is AggregateFunction.COUNT_STAR):
            raise ValueError("count(*) takes no argument; other aggregates need one")
        self.func = func
        self.argument = argument
        self.distinct = distinct

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return () if self.argument is None else (self.argument,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "AggregateCall":
        if self.argument is None:
            if children:
                raise ValueError("count(*) takes no children")
            return self
        (arg,) = children
        return AggregateCall(self.func, arg, self.distinct)

    @property
    def descriptor(self):
        return descriptor(self.func)

    @property
    def dtype(self) -> DataType:
        if self.func in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return DataType.INTEGER
        if self.func is AggregateFunction.AVG:
            return DataType.FLOAT
        assert self.argument is not None
        return self.argument.dtype

    @property
    def nullable(self) -> bool:
        if self.func in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return False
        return True  # sum/min/max/avg can yield NULL on empty/all-NULL groups

    def _key(self) -> tuple:
        arg = self.argument._key() if self.argument is not None else None
        return ("agg", self.func, self.distinct, arg)

    def sql(self) -> str:
        if self.func is AggregateFunction.COUNT_STAR:
            return "count(*)"
        prefix = "distinct " if self.distinct else ""
        assert self.argument is not None
        return f"{self.func.value}({prefix}{self.argument.sql()})"


# ---------------------------------------------------------------------------
# Relational-valued scalar operators (pre-normalization only)
# ---------------------------------------------------------------------------

class RelationalScalarExpr(ScalarExpr):
    """Base for scalar nodes holding a relational subtree."""

    __slots__ = ()


class ScalarSubquery(RelationalScalarExpr):
    """A subquery used as a scalar value (must yield ≤ 1 row, 1 column)."""

    __slots__ = ("query",)

    def __init__(self, query: "RelationalOp") -> None:
        self.query = query

    @property
    def relational_children(self) -> tuple["RelationalOp", ...]:
        return (self.query,)

    @property
    def dtype(self) -> DataType:
        return self.query.output_columns()[0].dtype

    def _key(self) -> tuple:
        return ("scalar_subquery", id(self.query))

    def substitute_columns(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        rewritten = _substitute_in_relation(self.query, mapping)
        if rewritten is self.query:
            return self
        return ScalarSubquery(rewritten)

    def sql(self) -> str:
        return "SUBQUERY(...)"


class ExistsSubquery(RelationalScalarExpr):
    """``[NOT] EXISTS (subquery)``."""

    __slots__ = ("query", "negated")

    def __init__(self, query: "RelationalOp", negated: bool = False) -> None:
        self.query = query
        self.negated = negated

    @property
    def relational_children(self) -> tuple["RelationalOp", ...]:
        return (self.query,)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    @property
    def nullable(self) -> bool:
        return False

    def _key(self) -> tuple:
        return ("exists", self.negated, id(self.query))

    def substitute_columns(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        rewritten = _substitute_in_relation(self.query, mapping)
        if rewritten is self.query:
            return self
        return ExistsSubquery(rewritten, self.negated)

    def sql(self) -> str:
        return ("NOT " if self.negated else "") + "EXISTS(...)"


class InSubquery(RelationalScalarExpr):
    """``expr [NOT] IN (subquery)`` with full 3VL semantics."""

    __slots__ = ("needle", "query", "negated")

    def __init__(self, needle: ScalarExpr, query: "RelationalOp",
                 negated: bool = False) -> None:
        self.needle = needle
        self.query = query
        self.negated = negated

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.needle,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "InSubquery":
        (needle,) = children
        return InSubquery(needle, self.query, self.negated)

    @property
    def relational_children(self) -> tuple["RelationalOp", ...]:
        return (self.query,)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def _key(self) -> tuple:
        return ("in_subquery", self.negated, self.needle._key(), id(self.query))

    def substitute_columns(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        needle = self.needle.substitute_columns(mapping)
        rewritten = _substitute_in_relation(self.query, mapping)
        if needle is self.needle and rewritten is self.query:
            return self
        return InSubquery(needle, rewritten, self.negated)

    def sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"{self.needle.sql()} {op} (SUBQUERY)"


class QuantifiedComparison(RelationalScalarExpr):
    """``expr op ANY|ALL (subquery)``."""

    __slots__ = ("op", "quantifier", "needle", "query")

    def __init__(self, op: str, quantifier: str, needle: ScalarExpr,
                 query: "RelationalOp") -> None:
        if quantifier not in ("ANY", "ALL"):
            raise ValueError(f"invalid quantifier {quantifier!r}")
        if op not in Comparison.VALID_OPS:
            raise ValueError(f"invalid comparison operator {op!r}")
        self.op = op
        self.quantifier = quantifier
        self.needle = needle
        self.query = query

    @property
    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.needle,)

    def with_children(self, children: Sequence[ScalarExpr]) -> "QuantifiedComparison":
        (needle,) = children
        return QuantifiedComparison(self.op, self.quantifier, needle, self.query)

    @property
    def relational_children(self) -> tuple["RelationalOp", ...]:
        return (self.query,)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def _key(self) -> tuple:
        return ("quantified", self.op, self.quantifier,
                self.needle._key(), id(self.query))

    def substitute_columns(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        needle = self.needle.substitute_columns(mapping)
        rewritten = _substitute_in_relation(self.query, mapping)
        if needle is self.needle and rewritten is self.query:
            return self
        return QuantifiedComparison(self.op, self.quantifier, needle, rewritten)

    def sql(self) -> str:
        return f"{self.needle.sql()} {self.op} {self.quantifier} (SUBQUERY)"


def _substitute_in_relation(rel: "RelationalOp",
                            mapping: Mapping[int, ScalarExpr]) -> "RelationalOp":
    """Apply a column substitution to the *outer references* of a subquery."""
    from .relational import substitute_outer_columns  # local import: cycle
    return substitute_outer_columns(rel, mapping)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def conjunction(parts: Iterable[ScalarExpr]) -> ScalarExpr:
    """AND together ``parts``, flattening nested Ands; empty → TRUE."""
    flat: list[ScalarExpr] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.args)
        elif isinstance(part, Literal) and part.value is True:
            continue
        else:
            flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def conjuncts(expr: ScalarExpr) -> list[ScalarExpr]:
    """Split an expression into top-level AND conjuncts."""
    if isinstance(expr, And):
        result: list[ScalarExpr] = []
        for arg in expr.args:
            result.extend(conjuncts(arg))
        return result
    return [expr]


def disjuncts(expr: ScalarExpr) -> list[ScalarExpr]:
    """Split an expression into top-level OR disjuncts (flattening)."""
    if isinstance(expr, Or):
        result: list[ScalarExpr] = []
        for arg in expr.args:
            result.extend(disjuncts(arg))
        return result
    return [expr]


def cannot_raise(expr: ScalarExpr) -> bool:
    """Comparisons, IN lists, IS [NOT] NULL and LIKE over column
    references, literals and parameters, under AND/OR/NOT — unlike, say,
    a division, which raises on a zero divisor.  Such an expression may
    be evaluated on rows the row engine never evaluates it on (an implied
    filter below a join, a zone-map chunk skip) without changing which
    error a statement raises."""
    if isinstance(expr, (And, Or, Not)):
        return all(cannot_raise(arg) for arg in expr.children)
    if isinstance(expr, (Comparison, InList, IsNull, Like)):
        return all(isinstance(arg, (ColumnRef, Literal, Parameter))
                   for arg in expr.children)
    return False


def equals(left: ScalarExpr | Column, right: ScalarExpr | Column) -> Comparison:
    """Equality comparison, lifting bare columns to references."""
    if isinstance(left, Column):
        left = ColumnRef(left)
    if isinstance(right, Column):
        right = ColumnRef(right)
    return Comparison("=", left, right)


def column_equalities(predicate: ScalarExpr) -> list[tuple[Column, Column]]:
    """Extract top-level ``col = col`` conjuncts from a predicate."""
    pairs: list[tuple[Column, Column]] = []
    for part in conjuncts(predicate):
        if (isinstance(part, Comparison) and part.op == "="
                and isinstance(part.left, ColumnRef)
                and isinstance(part.right, ColumnRef)):
            pairs.append((part.left.column, part.right.column))
    return pairs
