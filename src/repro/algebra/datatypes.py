"""SQL data types and three-valued logic primitives.

SQL NULL is represented as Python ``None`` throughout the engine.  Boolean
expressions therefore evaluate to one of three values: ``True``, ``False`` or
``None`` (UNKNOWN).  The helpers in this module implement the SQL-92 truth
tables and NULL-propagating scalar operations; every expression evaluator and
every rewrite that reasons about null-rejection builds on them.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any


class Interval:
    """A SQL interval of whole months and/or days.

    Month arithmetic follows SQL convention: the day-of-month is clamped to
    the length of the target month (Jan 31 + 1 month = Feb 28/29).
    """

    __slots__ = ("months", "days")

    def __init__(self, months: int = 0, days: int = 0) -> None:
        self.months = months
        self.days = days

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Interval)
                and other.months == self.months and other.days == self.days)

    def __hash__(self) -> int:
        return hash((self.months, self.days))

    def __neg__(self) -> "Interval":
        return Interval(-self.months, -self.days)

    def __repr__(self) -> str:
        return f"interval({self.months} months, {self.days} days)"

    def add_to(self, date: datetime.date) -> datetime.date:
        if self.months:
            total = date.year * 12 + (date.month - 1) + self.months
            year, month = divmod(total, 12)
            month += 1
            day = min(date.day, _days_in_month(year, month))
            date = datetime.date(year, month, day)
        if self.days:
            date = date + datetime.timedelta(days=self.days)
        return date


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = datetime.date(year + 1, 1, 1)
    else:
        nxt = datetime.date(year, month + 1, 1)
    return (nxt - datetime.timedelta(days=1)).day


class DataType(enum.Enum):
    """The SQL types supported by the engine.

    ``DECIMAL`` values are carried as Python floats: the reproduction targets
    plan-shape fidelity, not money-grade arithmetic.
    """

    INTEGER = "integer"
    FLOAT = "float"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    DATE = "date"
    BOOLEAN = "boolean"
    INTERVAL = "interval"
    #: Deferred typing: query parameters (``?`` / ``:name``) carry UNKNOWN
    #: until a concrete value is bound at execution time; type checks treat
    #: UNKNOWN as compatible with anything.
    UNKNOWN = "unknown"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT, DataType.DECIMAL)


#: Python value classes accepted for each SQL type.
_PYTHON_CLASSES = {
    DataType.INTEGER: (int,),
    DataType.FLOAT: (int, float),
    DataType.DECIMAL: (int, float),
    DataType.VARCHAR: (str,),
    DataType.DATE: (datetime.date,),
    DataType.BOOLEAN: (bool,),
    DataType.INTERVAL: (Interval,),
}


def value_matches_type(value: Any, dtype: DataType) -> bool:
    """Return True when ``value`` is NULL or an instance of ``dtype``."""
    if value is None:
        return True
    if dtype is DataType.UNKNOWN:
        return True
    if dtype is DataType.BOOLEAN:
        # bool is a subclass of int; check it first and exclusively.
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    return isinstance(value, _PYTHON_CLASSES[dtype])


def infer_literal_type(value: Any) -> DataType:
    """Infer the SQL type of a Python literal value.

    NULL literals default to VARCHAR; the binder retypes them from context
    when possible.
    """
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.VARCHAR
    if isinstance(value, datetime.date):
        return DataType.DATE
    if isinstance(value, Interval):
        return DataType.INTERVAL
    if value is None:
        return DataType.VARCHAR
    raise TypeError(f"unsupported literal value {value!r}")


def common_supertype(a: DataType, b: DataType) -> DataType:
    """Result type of combining operands of types ``a`` and ``b``."""
    if a is DataType.UNKNOWN:
        return b
    if b is DataType.UNKNOWN:
        return a
    if a == b:
        return a
    numeric_order = [DataType.INTEGER, DataType.DECIMAL, DataType.FLOAT]
    if a.is_numeric and b.is_numeric:
        return max(a, b, key=numeric_order.index)
    raise TypeError(f"no common supertype for {a} and {b}")


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------

def sql_and(a: bool | None, b: bool | None) -> bool | None:
    """SQL AND: FALSE dominates, then UNKNOWN."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def sql_or(a: bool | None, b: bool | None) -> bool | None:
    """SQL OR: TRUE dominates, then UNKNOWN."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def sql_not(a: bool | None) -> bool | None:
    """SQL NOT: UNKNOWN stays UNKNOWN."""
    if a is None:
        return None
    return not a


def sql_compare(op: str, left: Any, right: Any) -> bool | None:
    """SQL comparison with NULL propagation.

    Any comparison involving NULL yields UNKNOWN (``None``).
    """
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValueError(f"unknown comparison operator {op!r}")


def negate_comparison(op: str) -> str:
    """The comparison operator equivalent to NOT(op) under two-valued logic.

    Note: under 3VL, NOT(a < b) is not (a >= b) when NULLs are involved —
    both are UNKNOWN then, so the flipped operator is still exactly
    equivalent.
    """
    return {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]


def flip_comparison(op: str) -> str:
    """The operator obtained by swapping comparison operands."""
    return {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def sql_add(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if isinstance(right, Interval):
        return right.add_to(left)
    if isinstance(left, Interval):
        return left.add_to(right)
    return left + right


def sql_sub(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if isinstance(right, Interval):
        return (-right).add_to(left)
    return left - right


def sql_mul(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    return left * right


def sql_div(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if right == 0:
        raise ZeroDivisionError("division by zero")
    if isinstance(left, int) and isinstance(right, int) and left % right == 0:
        return left // right
    return left / right


ARITHMETIC_FUNCTIONS = {
    "+": sql_add,
    "-": sql_sub,
    "*": sql_mul,
    "/": sql_div,
}
