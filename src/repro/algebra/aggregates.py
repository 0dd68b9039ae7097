"""Aggregate functions described by abstract properties.

The paper (Sections 1.2 and 3.3) insists on *operating based on abstract
properties of aggregate functions, rather than considering the five standard
SQL aggregates*.  This module is that abstraction:

* ``value_on_empty`` / ``null_on_empty`` — scalar aggregation over an empty
  input (drives the outerjoin rewrite of identity (9) and the computing
  project of Section 3.2);
* ``empty_equals_single_null`` — whether ``agg(∅) = agg({NULL})``, the
  validity condition of identity (9); it fails only for ``count(*)``, which
  is why that identity substitutes ``count(c)`` over a non-nullable column;
* ``splittable`` plus :meth:`AggregateDescriptor.split` — the local/global
  decomposition ``f(∪ Si) = f_g(∪ f_l(Si))`` of Section 3.3, including the
  composite case (``avg``) that decomposes into primitive aggregates and a
  finalizing projection (footnote 3 of the paper);
* ``duplicate_insensitive`` — whether the aggregate ignores duplicates
  (``min``/``max``), which relaxes several reordering conditions.

The same descriptors provide the fold semantics (``initial``/``step``/
``final``) shared by the naive interpreter and the physical executor, so
there is exactly one definition of each aggregate's behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class AggregateFunction(enum.Enum):
    COUNT_STAR = "count(*)"
    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SplitPart:
    """One primitive aggregate produced when splitting a composite one.

    ``role`` names the intermediate ("sum", "count", ...) so the finalizer
    can refer to it.
    """

    func: AggregateFunction
    role: str


@dataclass(frozen=True)
class AggregateSplit:
    """Local/global decomposition of an aggregate function.

    ``local`` aggregates run below (over the original argument), ``global_``
    aggregates combine the local results positionally.  ``finalizer`` is
    ``None`` when the single global result *is* the answer; otherwise it is a
    role-keyed recipe evaluated in a projection above the global GroupBy
    (``avg`` finalizes as ``sum / count``).
    """

    local: tuple[SplitPart, ...]
    global_: tuple[SplitPart, ...]
    finalizer: str | None = None


class AggregateDescriptor:
    """Behaviour and algebraic properties of one aggregate function."""

    def __init__(self, func: AggregateFunction, *,
                 value_on_empty: Any,
                 value_on_single_null: Any,
                 duplicate_insensitive: bool,
                 split: AggregateSplit | None) -> None:
        self.func = func
        self.value_on_empty = value_on_empty
        self.value_on_single_null = value_on_single_null
        self.duplicate_insensitive = duplicate_insensitive
        self._split = split

    # -- algebraic properties ------------------------------------------------

    @property
    def null_on_empty(self) -> bool:
        return self.value_on_empty is None

    @property
    def empty_equals_single_null(self) -> bool:
        """Validity condition of identity (9): ``agg(∅) = agg({NULL})``."""
        return self.value_on_empty == self.value_on_single_null and (
            (self.value_on_empty is None) == (self.value_on_single_null is None))

    @property
    def splittable(self) -> bool:
        return self._split is not None

    @property
    def split(self) -> AggregateSplit:
        if self._split is None:
            raise ValueError(f"{self.func} has no local/global decomposition")
        return self._split

    # -- fold semantics --------------------------------------------------------

    def initial(self) -> Any:
        if self.func in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return 0
        if self.func is AggregateFunction.AVG:
            return (None, 0)
        return None  # sum/min/max start "no value seen"

    def step(self, state: Any, value: Any) -> Any:
        func = self.func
        if func is AggregateFunction.COUNT_STAR:
            return state + 1
        if func is AggregateFunction.COUNT:
            return state + (0 if value is None else 1)
        if value is None:
            return state
        if func is AggregateFunction.SUM:
            return value if state is None else state + value
        if func is AggregateFunction.MIN:
            return value if state is None else min(state, value)
        if func is AggregateFunction.MAX:
            return value if state is None else max(state, value)
        if func is AggregateFunction.AVG:
            total, count = state
            return (value if total is None else total + value, count + 1)
        raise AssertionError(f"unhandled aggregate {func}")

    def final(self, state: Any) -> Any:
        if self.func is AggregateFunction.AVG:
            total, count = state
            if count == 0:
                return None
            return total / count
        return state

    def merge(self, state: Any, other: Any) -> Any:
        """Combine two partial states (used by spilling-style execution)."""
        func = self.func
        if func in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return state + other
        if func is AggregateFunction.AVG:
            total_a, count_a = state
            total_b, count_b = other
            if total_a is None:
                total = total_b
            elif total_b is None:
                total = total_a
            else:
                total = total_a + total_b
            return (total, count_a + count_b)
        if other is None:
            return state
        if state is None:
            return other
        if func is AggregateFunction.SUM:
            return state + other
        if func is AggregateFunction.MIN:
            return min(state, other)
        if func is AggregateFunction.MAX:
            return max(state, other)
        raise AssertionError(f"unhandled aggregate {func}")


_SIMPLE_SPLITS = {
    AggregateFunction.SUM: AggregateSplit(
        (SplitPart(AggregateFunction.SUM, "sum"),),
        (SplitPart(AggregateFunction.SUM, "sum"),)),
    AggregateFunction.MIN: AggregateSplit(
        (SplitPart(AggregateFunction.MIN, "min"),),
        (SplitPart(AggregateFunction.MIN, "min"),)),
    AggregateFunction.MAX: AggregateSplit(
        (SplitPart(AggregateFunction.MAX, "max"),),
        (SplitPart(AggregateFunction.MAX, "max"),)),
    AggregateFunction.COUNT: AggregateSplit(
        (SplitPart(AggregateFunction.COUNT, "count"),),
        (SplitPart(AggregateFunction.SUM, "count"),)),
    AggregateFunction.COUNT_STAR: AggregateSplit(
        (SplitPart(AggregateFunction.COUNT_STAR, "count"),),
        (SplitPart(AggregateFunction.SUM, "count"),)),
    AggregateFunction.AVG: AggregateSplit(
        (SplitPart(AggregateFunction.SUM, "sum"),
         SplitPart(AggregateFunction.COUNT, "count")),
        (SplitPart(AggregateFunction.SUM, "sum"),
         SplitPart(AggregateFunction.SUM, "count")),
        finalizer="sum/count"),
}

DESCRIPTORS: dict[AggregateFunction, AggregateDescriptor] = {
    AggregateFunction.COUNT_STAR: AggregateDescriptor(
        AggregateFunction.COUNT_STAR,
        value_on_empty=0, value_on_single_null=1,
        duplicate_insensitive=False,
        split=_SIMPLE_SPLITS[AggregateFunction.COUNT_STAR]),
    AggregateFunction.COUNT: AggregateDescriptor(
        AggregateFunction.COUNT,
        value_on_empty=0, value_on_single_null=0,
        duplicate_insensitive=False,
        split=_SIMPLE_SPLITS[AggregateFunction.COUNT]),
    AggregateFunction.SUM: AggregateDescriptor(
        AggregateFunction.SUM,
        value_on_empty=None, value_on_single_null=None,
        duplicate_insensitive=False,
        split=_SIMPLE_SPLITS[AggregateFunction.SUM]),
    AggregateFunction.MIN: AggregateDescriptor(
        AggregateFunction.MIN,
        value_on_empty=None, value_on_single_null=None,
        duplicate_insensitive=True,
        split=_SIMPLE_SPLITS[AggregateFunction.MIN]),
    AggregateFunction.MAX: AggregateDescriptor(
        AggregateFunction.MAX,
        value_on_empty=None, value_on_single_null=None,
        duplicate_insensitive=True,
        split=_SIMPLE_SPLITS[AggregateFunction.MAX]),
    AggregateFunction.AVG: AggregateDescriptor(
        AggregateFunction.AVG,
        value_on_empty=None, value_on_single_null=None,
        duplicate_insensitive=False,
        split=_SIMPLE_SPLITS[AggregateFunction.AVG]),
}


def descriptor(func: AggregateFunction) -> AggregateDescriptor:
    """The :class:`AggregateDescriptor` for ``func``."""
    return DESCRIPTORS[func]
