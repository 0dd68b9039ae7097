"""Scalar expression compilation for the vectorized executor.

``compile_vector`` turns a scalar expression into a closure
``fn(batch, params) -> list`` that evaluates the expression over a whole
column batch at once and returns one output value per row.  ``batch`` is a
:class:`~repro.executor.vectorized.Batch` (list-of-columns), ``params``
maps correlation-parameter column ids / query-parameter slots to values.

Semantics are identical to the row compiler (:mod:`.expressions`): the
same three-valued-logic helpers and NULL-propagating arithmetic are
applied elementwise, so a query answered by either engine produces the
same values.  The speed comes from the evaluation shape: one Python-level
loop (a list comprehension or a C-level ``map``) per operator per batch
instead of a closure-call tree per row.

NULL-free batches take a C-level kernel, chosen per batch: ``+ - *``
over numeric operand types runs ``list(map(operator.add, ...))`` (sub,
mul) and ``< <= > >=`` run their ``operator`` function the same way,
which is what the row helpers reduce to when no operand is NULL.  Each
kernel raises ``TypeError`` on a NULL operand, so the NULL test costs
nothing; that batch then takes the per-row path.  ``/``, ``=``/``<>``
(which answer a NULL instead of raising), Interval and date arithmetic,
and operands typed UNKNOWN (query parameters) always take the per-row
path.

Returned column lists must be treated as immutable — a compiled
``ColumnRef`` hands back the batch's own column list without copying, and
combinators always allocate fresh output lists.

Conditional evaluation is preserved at batch granularity: CASE branch
values are evaluated only over the rows whose condition selected them,
and a later AND/OR argument only over the rows the earlier ones left
undecided (via gather/scatter), so a guarded division never runs on rows
its guard excludes — the batched analogue of the paper's Section 2.4
conditional scalar execution.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import (TYPE_CHECKING, AbstractSet, Any, Callable, Mapping,
                    Optional, Sequence)

from ..algebra.datatypes import ARITHMETIC_FUNCTIONS, sql_and, sql_not, sql_or
from ..algebra.scalar import (AggregateCall, And, Arithmetic, Case,
                              ColumnRef, Comparison, Extract, InList,
                              IsNull, Like, Literal, Negate, Not, Or,
                              Parameter, ScalarExpr, parameter_slot)
from ..errors import ExecutionError
from .naive import _like_regex

if TYPE_CHECKING:  # pragma: no cover
    from .vectorized import Batch

Layout = Mapping[int, int]
CompiledVector = Callable[["Batch", Mapping[int, Any]], list]

#: ``sql_add``/``sql_sub``/``sql_mul`` over numeric operands with no NULL.
_KERNELS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
#: Comparisons that raise ``TypeError`` on a NULL (``=``/``<>`` answer it).
_ORDERING = frozenset({"<", "<=", ">", ">="})

_COMPARE_FUNCTIONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_vector(expr: ScalarExpr, layout: Layout,
                   bound: AbstractSet[int] = frozenset()) -> CompiledVector:
    """Compile ``expr`` against a batch layout (column id → column position).

    ``bound`` names the correlation columns a batched Apply
    (:mod:`.batched_apply`) binds set-at-a-time: for those,
    ``params[cid]`` holds one value *per distinct binding* and the
    batch's leading column holds each row's binding ordinal, so the
    reference compiles to a gather through the ordinal instead of a
    broadcast scalar.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch, params: [value] * batch.nrows

    if isinstance(expr, ColumnRef):
        cid = expr.column.cid
        if cid in layout:
            position = layout[cid]
            return lambda batch, params: batch.columns[position]
        if cid in bound:
            return lambda batch, params: list(
                map(params[cid].__getitem__, batch.columns[0]))

        def read_param(batch: "Batch", params: Mapping[int, Any]) -> list:
            try:
                return [params[cid]] * batch.nrows
            except KeyError:
                raise ExecutionError(
                    f"unbound column/parameter {expr.column!r}") from None
        return read_param

    if isinstance(expr, Parameter):
        slot = parameter_slot(expr.index)
        label = expr.sql()

        def read_query_param(batch: "Batch",
                             params: Mapping[int, Any]) -> list:
            try:
                return [params[slot]] * batch.nrows
            except KeyError:
                raise ExecutionError(
                    f"unbound query parameter {label}") from None
        return read_query_param

    if isinstance(expr, Comparison):
        fn = _COMPARE_FUNCTIONS[expr.op]
        if any(isinstance(e, Literal) and e.value is None
               for e in (expr.left, expr.right)):
            return lambda batch, params: [None] * batch.nrows
        return _binary(expr, layout, bound, lambda a, b: [
            None if x is None or y is None else fn(x, y)
            for x, y in zip(a, b)], fn if expr.op in _ORDERING else None)

    if isinstance(expr, (And, Or)):
        # The row engine's short circuit at batch granularity: a later
        # argument is evaluated only on the rows still undecided (not yet
        # FALSE for AND, not yet TRUE for OR, NULL included), so a guard
        # such as ``x <> 0 and y / x > 1`` never divides by zero.
        first = compile_vector(expr.args[0], layout, bound)
        rest = [(compile_vector(a, layout, bound), _gatherer(a, layout, bound))
                for a in expr.args[1:]]
        combine, decided = ((sql_and, False) if isinstance(expr, And)
                            else (sql_or, True))

        def eval_logic(batch: "Batch", params: Mapping[int, Any]) -> list:
            acc = first(batch, params)
            for fn, take in rest:
                undecided = [i for i, v in enumerate(acc) if v is not decided]
                if not undecided:
                    break
                if len(undecided) == batch.nrows:
                    acc = [combine(x, y)
                           for x, y in zip(acc, fn(batch, params))]
                    continue
                acc = list(acc)  # ``first`` may return a batch column
                for i, y in zip(undecided,
                                fn(take(batch, undecided), params)):
                    acc[i] = combine(acc[i], y)
            return acc
        return eval_logic

    if isinstance(expr, Not):
        inner = compile_vector(expr.arg, layout, bound)
        return lambda batch, params: [sql_not(v)
                                      for v in inner(batch, params)]

    if isinstance(expr, IsNull):
        inner = compile_vector(expr.arg, layout, bound)
        if expr.negated:
            return lambda batch, params: [v is not None
                                          for v in inner(batch, params)]
        return lambda batch, params: [v is None
                                      for v in inner(batch, params)]

    if isinstance(expr, Arithmetic):
        fn = ARITHMETIC_FUNCTIONS[expr.op]
        numeric = expr.left.dtype.is_numeric and expr.right.dtype.is_numeric
        return _binary(expr, layout, bound, lambda a, b: list(map(fn, a, b)),
                       _KERNELS.get(expr.op) if numeric else None)

    if isinstance(expr, Negate):
        inner = compile_vector(expr.arg, layout, bound)
        return lambda batch, params: [None if v is None else -v
                                      for v in inner(batch, params)]

    if isinstance(expr, Case):
        compiled_whens = [(compile_vector(c, layout, bound),
                           _gatherer(c, layout, bound),
                           compile_vector(v, layout, bound),
                           _gatherer(v, layout, bound))
                          for c, v in expr.whens]
        otherwise = (compile_vector(expr.otherwise, layout, bound)
                     if expr.otherwise is not None else None)
        take_otherwise = (_gatherer(expr.otherwise, layout, bound)
                          if expr.otherwise is not None else None)

        def eval_case(batch: "Batch", params: Mapping[int, Any]) -> list:
            result: list = [None] * batch.nrows
            remaining = list(range(batch.nrows))
            for cond, take_cond, value, take_value in compiled_whens:
                if not remaining:
                    break
                conds = cond(take_cond(batch, remaining), params)
                chosen = [row for row, v in zip(remaining, conds)
                          if v is True]
                if chosen:
                    values = value(take_value(batch, chosen), params)
                    for row, v in zip(chosen, values):
                        result[row] = v
                remaining = [row for row, v in zip(remaining, conds)
                             if v is not True]
            if otherwise is not None and remaining:
                values = otherwise(take_otherwise(batch, remaining), params)
                for row, v in zip(remaining, values):
                    result[row] = v
            return result
        return eval_case

    if isinstance(expr, Extract):
        inner = compile_vector(expr.arg, layout, bound)
        part = expr.part
        return lambda batch, params: [
            None if v is None else getattr(v, part)
            for v in inner(batch, params)]

    if isinstance(expr, Like):
        inner = compile_vector(expr.arg, layout, bound)
        match = _like_regex(expr.pattern).fullmatch
        if expr.negated:
            return lambda batch, params: [
                None if v is None else match(v) is None
                for v in inner(batch, params)]
        return lambda batch, params: [
            None if v is None else match(v) is not None
            for v in inner(batch, params)]

    if isinstance(expr, InList):
        inner = compile_vector(expr.arg, layout, bound)
        values = expr.values
        has_null = any(v is None for v in values)
        non_null = frozenset(v for v in values if v is not None)
        negated = expr.negated

        def eval_in(batch: "Batch", params: Mapping[int, Any]) -> list:
            out = []
            for v in inner(batch, params):
                if v is None:
                    result: Any = None
                elif v in non_null:
                    result = True
                elif has_null:
                    result = None
                else:
                    result = False
                out.append(sql_not(result) if negated else result)
            return out
        return eval_in

    if isinstance(expr, AggregateCall):
        raise ExecutionError(
            "aggregate call cannot be compiled as a batch expression")

    raise ExecutionError(
        f"cannot compile {type(expr).__name__} for batched execution; "
        f"physical plans must be normalized (no embedded subqueries)")


def _binary(expr: Comparison | Arithmetic, layout: Layout,
            bound: AbstractSet[int], general: Callable[[Any, Any], list],
            kernel: Optional[Callable[[Any, Any], Any]]) -> CompiledVector:
    """``list(map(kernel, a, b))`` over the operands' values, or
    ``general(a, b)`` where the kernel raises ``TypeError`` (a NULL, or
    a genuine type error that ``general`` raises again).  A non-NULL
    literal operand is an endless ``repeat``, not a per-batch list."""
    left = compile_vector(expr.left, layout, bound)
    right = compile_vector(expr.right, layout, bound)
    if isinstance(expr.right, Literal) and expr.right.value is not None:
        value = expr.right.value
        right = lambda batch, params: repeat(value)  # noqa: E731
    elif isinstance(expr.left, Literal) and expr.left.value is not None:
        value = expr.left.value
        left = lambda batch, params: repeat(value)  # noqa: E731

    def combine(batch: "Batch", params: Mapping[int, Any]) -> list:
        a = left(batch, params)
        b = right(batch, params)
        if kernel is not None:
            try:
                return list(map(kernel, a, b))
            except TypeError:
                pass  # a NULL operand
        return general(a, b)
    return combine


def _gatherer(expr: ScalarExpr, layout: Layout, bound: AbstractSet[int]
              ) -> Callable[["Batch", list[int]], "Batch"]:
    """``take(batch, rows)``: the rows of ``batch`` at the increasing
    positions ``rows``, gathering only the columns ``expr`` reads.  The
    other columns are left empty: the compiled ``expr`` never reads them.
    """
    needed = read_positions(expr, layout, bound)

    def take(batch: "Batch", rows: Sequence[int]) -> "Batch":
        if len(rows) == batch.nrows:
            return batch
        return type(batch)([gather(col, rows) if p in needed else []
                            for p, col in enumerate(batch.columns)],
                           len(rows))
    return take


def read_positions(expr: ScalarExpr, layout: Layout,
                   bound: AbstractSet[int] = frozenset()) -> set[int]:
    """The batch columns the compiled ``expr`` reads, by position."""
    ids = expr.free_columns().ids()
    needed = {layout[cid] for cid in ids if cid in layout}
    if any(cid in bound for cid in ids if cid not in layout):
        needed.add(0)  # a bound reference gathers through the ordinal
    return needed


def gather(column: list, rows: Sequence[int]) -> list:
    """``column`` at the increasing positions ``rows``; a ``range`` is
    sliced."""
    if isinstance(rows, range):
        return column[rows.start:rows.stop]
    return [column[i] for i in rows]
