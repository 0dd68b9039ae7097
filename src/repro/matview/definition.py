"""Materialized-view definitions and their backing-table schemas.

A materialized view stores the §3.3 *local-aggregate* form of its
defining query: one backing row per group, carrying ``count(*)`` plus
per-column partial aggregates (``sum``/``count``/``min``/``max``).
Carrying counts alongside sums is what makes the stored form
*composable*: a query's ``AVG`` re-derives as ``sum(sum_c)/sum(cnt_c)``
and its ``COUNT`` as ``sum(cnt_c)``, so a query grouping *coarser* than
the view can still be answered by re-aggregating view rows (the
global-aggregate step of the paper's segmented execution).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.datatypes import DataType
from ..catalog import ColumnDef, TableDef
from ..errors import ReproError, SqlSyntaxError
from ..sql import ast, parse
from .canonical import (CanonicalAggregate, canonicalize, emit_expr,
                        expr_columns, quote)

#: Data types ``sum``/``avg`` accept; ``min``/``max``/``count`` take any.
_SUMMABLE = frozenset({"integer", "float", "decimal"})


class MatViewError(ReproError):
    """Invalid materialized-view definition or operation."""


@dataclass(frozen=True)
class TrackedColumn:
    """Partial aggregates the backing table carries for one base column."""

    column: str
    needs_sum: bool   # sum_<c>: query used sum/avg
    needs_cnt: bool   # cnt_<c>: query used sum/avg/count
    needs_min: bool
    needs_max: bool


@dataclass(frozen=True)
class MatViewDef:
    """A registered materialized view.

    ``conjuncts`` are canonical parameter-free predicate ASTs evaluated
    both by SQL re-emission (build/refresh) and directly over inserted
    rows (incremental maintenance) — one definition, two evaluators,
    checked equivalent by the differential tests.
    """

    name: str                        # lowered view name
    sql: str                         # defining SELECT text (verbatim)
    table: str                       # base table, lowered
    group_cols: tuple[str, ...]
    conjuncts: tuple[ast.Expr, ...]
    tracked: tuple[TrackedColumn, ...]

    @classmethod
    def from_sql(cls, name: str, sql: str,
                 base_lookup=None) -> "MatViewDef":
        """Validate and canonicalize a defining query.

        ``base_lookup`` maps a lowered table name to its
        :class:`TableDef` (or ``None`` when unknown) so column
        references can be checked eagerly.
        """
        try:
            parsed = parse(sql)
        except SqlSyntaxError as exc:
            raise MatViewError(
                f"materialized view {name!r}: {exc}") from exc
        fingerprint = canonicalize(parsed)
        if fingerprint is None:
            raise MatViewError(
                f"materialized view {name!r}: defining query must be a "
                "single-table GROUP BY over plain columns with "
                "count/sum/avg/min/max aggregates (no joins, DISTINCT, "
                "HAVING, or expression grouping)")
        if not fingerprint.group_cols:
            raise MatViewError(
                f"materialized view {name!r}: defining query needs a "
                "GROUP BY clause")
        if not fingerprint.aggregates:
            raise MatViewError(
                f"materialized view {name!r}: defining query needs at "
                "least one aggregate output")
        if fingerprint.order_by or fingerprint.limit is not None:
            raise MatViewError(
                f"materialized view {name!r}: ORDER BY / LIMIT have no "
                "meaning in a stored view definition")
        if fingerprint.has_parameters():
            raise MatViewError(
                f"materialized view {name!r}: defining query cannot "
                "take parameters")
        viewdef = cls(
            name=name.lower(),
            sql=sql.strip(),
            table=fingerprint.table,
            group_cols=fingerprint.group_cols,
            conjuncts=fingerprint.conjuncts,
            tracked=_tracked_columns(fingerprint))
        if base_lookup is not None:
            base = base_lookup(viewdef.table)
            if base is not None:
                viewdef.validate_against(base)
        return viewdef

    def validate_against(self, base: TableDef) -> None:
        """Check column references and dtypes against the base schema."""
        referenced = set(self.group_cols)
        for conjunct in self.conjuncts:
            referenced |= expr_columns(conjunct)
        for spec in self.tracked:
            referenced.add(spec.column)
        for column in sorted(referenced):
            if not base.has_column(column):
                raise MatViewError(
                    f"materialized view {self.name!r}: no column "
                    f"{column!r} in table {self.table!r}")
        for spec in self.tracked:
            dtype = base.column(spec.column).dtype
            if spec.needs_sum and dtype.value not in _SUMMABLE:
                raise MatViewError(
                    f"materialized view {self.name!r}: cannot sum "
                    f"{dtype.value} column {spec.column!r}")

    def backing_def(self, base: TableDef) -> TableDef:
        """The backing table schema: group columns + partial aggregates."""
        self.validate_against(base)
        columns = [ColumnDef(col, base.column(col).dtype,
                             base.column(col).nullable)
                   for col in self.group_cols]
        columns.append(ColumnDef("cnt_star", DataType.INTEGER,
                                 nullable=False))
        for spec in self.tracked:
            dtype = base.column(spec.column).dtype
            if spec.needs_sum:
                columns.append(ColumnDef(f"sum_{spec.column}", dtype))
            if spec.needs_cnt:
                columns.append(ColumnDef(f"cnt_{spec.column}",
                                         DataType.INTEGER, nullable=False))
            if spec.needs_min:
                columns.append(ColumnDef(f"min_{spec.column}", dtype))
            if spec.needs_max:
                columns.append(ColumnDef(f"max_{spec.column}", dtype))
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise MatViewError(
                f"materialized view {self.name!r}: generated backing "
                f"columns collide: {sorted(names)}")
        try:
            return TableDef(self.name, columns,
                            primary_key=self.group_cols)
        except ReproError as exc:
            raise MatViewError(
                f"materialized view {self.name!r}: {exc}") from exc

    def storage_sql(self) -> str:
        """SQL computing the full backing contents from the base table.

        Executed with view rewriting disabled (a view must never be
        built from itself) for the initial build, REFRESH, and the
        recovery rebuild.
        """
        items = [f"{quote(col)} AS {quote(col)}" for col in self.group_cols]
        items.append(f'count(*) AS {quote("cnt_star")}')
        for spec in self.tracked:
            col = quote(spec.column)
            if spec.needs_sum:
                items.append(f'sum({col}) AS {quote(f"sum_{spec.column}")}')
            if spec.needs_cnt:
                items.append(
                    f'count({col}) AS {quote(f"cnt_{spec.column}")}')
            if spec.needs_min:
                items.append(f'min({col}) AS {quote(f"min_{spec.column}")}')
            if spec.needs_max:
                items.append(f'max({col}) AS {quote(f"max_{spec.column}")}')
        sql = f'SELECT {", ".join(items)} FROM {quote(self.table)}'
        if self.conjuncts:
            sql += " WHERE " + " AND ".join(
                emit_expr(c) for c in self.conjuncts)
        sql += " GROUP BY " + ", ".join(quote(c) for c in self.group_cols)
        return sql

    def supports(self, func: str, column: str | None) -> bool:
        """Can the backing table answer aggregate ``func(column)``?"""
        if func == "count_star":
            return True
        spec = next((t for t in self.tracked if t.column == column), None)
        if spec is None:
            return False
        if func in ("sum", "avg"):
            return spec.needs_sum and spec.needs_cnt
        if func == "count":
            return spec.needs_cnt
        if func == "min":
            return spec.needs_min
        if func == "max":
            return spec.needs_max
        return False


def _tracked_columns(
        fingerprint: CanonicalAggregate) -> tuple[TrackedColumn, ...]:
    funcs: dict[str, set[str]] = {}
    for spec in fingerprint.aggregates:
        if spec.column is not None:
            funcs.setdefault(spec.column, set()).add(spec.func)
    tracked = []
    for column in sorted(funcs):
        used = funcs[column]
        needs_sum = bool(used & {"sum", "avg"})
        tracked.append(TrackedColumn(
            column=column,
            needs_sum=needs_sum,
            needs_cnt=needs_sum or "count" in used,
            needs_min="min" in used,
            needs_max="max" in used))
    return tuple(tracked)
