"""What a statement takes in and hands back: parameter bindings and
:class:`QueryResult`."""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence, Union

from .algebra import DataType
from .errors import ParameterError
from .governor import QueryStats

#: Parameter bindings accepted by ``execute``: a sequence for positional
#: ``?`` markers (also accepted, in slot order, for named ones) or a
#: mapping for ``:name`` markers.
Params = Union[Sequence[Any], Mapping[str, Any], None]


class QueryResult:
    """Rows plus the output schema (column names and types).

    ``degraded`` is True when the answer came from a fallback plan after
    a cost-based-optimizer failure (the rows are still correct — only
    the plan quality degraded); ``stats`` carries per-query execution
    statistics (:class:`~repro.governor.QueryStats`), including the
    fallback reason and any governor budget consumption.
    """

    #: ``(compiled entry, per-operator row counts)`` when the run was
    #: profiled for EXPLAIN ANALYZE — the renderer's input; ``None`` on
    #: every ordinary result.
    profiled: tuple | None = None

    def __init__(self, names: list[str], rows: list[tuple],
                 types: Sequence[DataType] | None = None,
                 degraded: bool = False,
                 stats: QueryStats | None = None) -> None:
        if types is not None and len(types) != len(names):
            raise ValueError(
                f"QueryResult schema mismatch: {len(names)} column "
                f"name(s) but {len(types)} type(s)")
        self.names = names
        self.rows = rows
        self.types = (list(types) if types is not None
                      else [DataType.UNKNOWN] * len(names))
        self.degraded = degraded
        self.stats = stats if stats is not None else QueryStats(
            degraded=degraded)

    @property
    def columns(self) -> list[tuple[str, DataType]]:
        """Output schema as ``(name, DataType)`` pairs."""
        return list(zip(self.names, self.types))

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dicts keyed by output column name."""
        return [dict(zip(self.names, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result.

        Raises ``ValueError`` when the result is any other shape, so a
        miswritten aggregate query fails loudly instead of silently
        returning the first of many values.
        """
        if len(self.rows) != 1 or len(self.names) != 1:
            raise ValueError(
                f"scalar() requires a 1x1 result, got {len(self.rows)} "
                f"row(s) x {len(self.names)} column(s)")
        return self.rows[0][0]

    def first(self) -> tuple | None:
        """The first row, or ``None`` for an empty result."""
        return self.rows[0] if self.rows else None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryResult):
            return self.rows == other.rows
        return self.rows == other

    def __repr__(self) -> str:
        return f"QueryResult({self.names}, {len(self.rows)} rows)"


def bind_parameters(parameters: Sequence, params: Params) -> tuple:
    """Match user-supplied bindings against a statement's parameter list.

    Returns the values in slot order.  Positional statements take a
    sequence; named statements take a mapping (or a sequence in slot
    order).  ``None`` is a legal value for any parameter (SQL NULL);
    missing, extra or mis-shaped bindings raise :class:`ParameterError`.
    """
    if isinstance(params, str):
        raise ParameterError(
            "parameters must be a sequence or mapping, not a bare string")
    if not parameters:
        if params:
            raise ParameterError("statement takes no parameters")
        return ()
    named = parameters[0].name is not None
    if isinstance(params, Mapping):
        if not named:
            raise ParameterError(
                "statement uses positional (?) parameters; "
                "pass a sequence, not a mapping")
        names = [p.name for p in parameters]
        missing = [n for n in names if n not in params]
        if missing:
            raise ParameterError(
                f"missing parameter(s): {', '.join(missing)}")
        unknown = sorted(set(params) - set(names))
        if unknown:
            raise ParameterError(
                f"unknown parameter(s): {', '.join(unknown)}")
        return tuple(params[n] for n in names)
    if params is None:
        raise ParameterError(
            f"statement expects {len(parameters)} parameter(s), got 0")
    values = tuple(params)
    if len(values) != len(parameters):
        raise ParameterError(
            f"statement expects {len(parameters)} parameter(s), "
            f"got {len(values)}")
    return values
