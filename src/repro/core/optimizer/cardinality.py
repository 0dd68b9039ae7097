"""Cardinality estimation for logical operator trees.

Standard System-R-style estimation: per-table statistics from the catalog,
independence across conjuncts, containment for equijoins, distinct-count
products (capped by input size) for grouping.  Estimates drive the cost
model; absolute accuracy matters less than preserving the *ordering* of
plan alternatives, which is what the paper's cost-based choices rely on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from ...algebra import (And, Apply, ColumnRef, Comparison, ConstantScan,
                        Difference, Get, GroupBy, InList, IsNull, Join,
                        JoinKind, Like, Literal, LocalGroupBy, Max1row,
                        Not, Or, Project, RelationalOp, ScalarGroupBy,
                        SegmentApply, SegmentRef, Select, Sort, Top,
                        UnionAll, conjuncts)
from ...catalog.statistics import CorrectionStore, TableStats

#: A quoted string literal (group 1, kept whole: ``'Brand#12'`` is
#: data) or the ``#cid`` suffix of a rendered column reference.
_CID_SUFFIX = re.compile(r"('(?:[^']|'')*')|#\d+")


def _strip_cid(match: "re.Match[str]") -> str:
    return match.group(1) or ""


def predicate_fingerprint(predicate) -> str:
    """A fingerprint of a predicate stable across compilations.

    Column ids are assigned fresh at every bind, so the rendered
    ``name#cid`` forms are normalized down to bare column names (string
    literals are left as they are) and the conjuncts sorted — the same
    WHERE clause fingerprints identically however often the statement
    is re-planned, which is what lets a runtime correction recorded
    during one execution be found by the optimizer during the next.
    """
    parts = sorted(_CID_SUFFIX.sub(_strip_cid, part.sql())
                   for part in conjuncts(predicate))
    return " AND ".join(parts)

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.1
DEFAULT_NDV = 10.0


@dataclass
class ColumnEstimate:
    """Per-column statistics carried through operators."""

    ndv: float
    min_value: Any = None
    max_value: Any = None
    null_fraction: float = 0.0
    histogram: Any = None  # catalog Histogram, carried from base tables


@dataclass
class Estimate:
    """Estimated output of one operator."""

    rows: float
    columns: dict[int, ColumnEstimate] = field(default_factory=dict)
    #: Base-table provenance: set only for an unfiltered table scan
    #: (:class:`Get`) and deliberately dropped by every derivation
    #: (``scaled`` and the operator cases construct fresh Estimates), so
    #: a Select whose child estimate carries ``table`` is exactly a
    #: filter directly over that table — the shape runtime corrections
    #: are keyed on.
    table: Optional[str] = None

    def ndv(self, cid: int) -> float:
        info = self.columns.get(cid)
        if info is None:
            return DEFAULT_NDV
        return max(info.ndv, 1.0)

    def scaled(self, new_rows: float) -> "Estimate":
        """The same column stats with distinct counts capped by row count
        and histograms dropped.  Column estimates are never mutated, so
        one that the cap leaves unchanged is shared, not copied."""
        new_rows = max(new_rows, 0.0)
        cap = max(new_rows, 1.0)
        columns = {
            cid: info if info.ndv <= cap and info.histogram is None
            else ColumnEstimate(min(info.ndv, cap), info.min_value,
                                info.max_value, info.null_fraction)
            for cid, info in self.columns.items()}
        return Estimate(new_rows, columns)


class Estimator:
    """Estimates logical trees.

    ``stats_provider`` maps table names to :class:`TableStats`;
    ``group_lookup`` resolves memo ``GroupRef`` leaves; ``segment_rows``
    supplies per-segment row counts when estimating a SegmentApply inner
    tree.
    """

    def __init__(self,
                 stats_provider: Callable[[str], Optional[TableStats]],
                 group_lookup: Callable[[Any], Estimate] | None = None,
                 segment_rows: Mapping[frozenset[int], Estimate] | None = None,
                 corrections: CorrectionStore | None = None,
                 ) -> None:
        self._stats_provider = stats_provider
        self._group_lookup = group_lookup
        self._segment_rows = dict(segment_rows or {})
        self._corrections = corrections
        # Keyed by the operator itself (identity hash), which the entry keeps
        # alive: a freed tree's address can never serve a stale estimate.
        self._cache: dict[RelationalOp, Estimate] = {}

    def estimate(self, rel: RelationalOp) -> Estimate:
        cached = self._cache.get(rel)
        if cached is None:
            cached = self._estimate(rel)
            cached.rows = max(cached.rows, 0.0)
            self._cache[rel] = cached
        return cached

    # -- dispatch ---------------------------------------------------------------

    def _estimate(self, rel: RelationalOp) -> Estimate:
        if self._group_lookup is not None and _is_group_ref(rel):
            return self._group_lookup(rel)

        if isinstance(rel, Get):
            return self._estimate_get(rel)
        if isinstance(rel, ConstantScan):
            return Estimate(float(len(rel.rows)),
                            {c.cid: ColumnEstimate(float(len(rel.rows)))
                             for c in rel.columns})
        if isinstance(rel, SegmentRef):
            key = frozenset(c.cid for c in rel.columns)
            found = self._segment_rows.get(key)
            if found is not None:
                return found
            return Estimate(DEFAULT_NDV,
                            {c.cid: ColumnEstimate(DEFAULT_NDV)
                             for c in rel.columns})
        if isinstance(rel, Select):
            child = self.estimate(rel.child)
            corrected = self._corrected_rows(rel.predicate, child)
            if corrected is not None:
                return child.scaled(corrected)
            selectivity = self.predicate_selectivity(rel.predicate, child)
            return child.scaled(child.rows * selectivity)
        if isinstance(rel, Project):
            child = self.estimate(rel.child)
            columns = {}
            for column, expr in rel.items:
                if isinstance(expr, ColumnRef) and \
                        expr.column.cid in child.columns:
                    columns[column.cid] = child.columns[expr.column.cid]
                else:
                    used = [child.ndv(c.cid) for c in expr.free_columns()]
                    ndv = min(max(used, default=1.0), max(child.rows, 1.0))
                    columns[column.cid] = ColumnEstimate(ndv)
            return Estimate(child.rows, columns)
        if isinstance(rel, (Join, Apply)):
            source, rows = self._join_rows(rel)
            return source.scaled(rows)
        if isinstance(rel, ScalarGroupBy):
            columns = {c.cid: ColumnEstimate(1.0) for c, _ in rel.aggregates}
            self.estimate(rel.child)
            return Estimate(1.0, columns)
        if isinstance(rel, (GroupBy, LocalGroupBy)):
            return self._estimate_groupby(rel)
        if isinstance(rel, Max1row):
            child = self.estimate(rel.child)
            return child.scaled(min(child.rows, 1.0))
        if isinstance(rel, Sort):
            return self.estimate(rel.child)
        if isinstance(rel, Top):
            child = self.estimate(rel.child)
            available = max(child.rows - rel.offset, 0.0)
            return child.scaled(min(available, float(rel.count)))
        if isinstance(rel, UnionAll):
            total = 0.0
            ndv_by_output = {c.cid: 0.0 for c in rel.columns}
            for source, imap in zip(rel.inputs, rel.input_maps):
                est = self.estimate(source)
                total += est.rows
                for out, src in zip(rel.columns, imap):
                    ndv_by_output[out.cid] += est.ndv(src.cid)
            columns = {cid: ColumnEstimate(max(ndv, 1.0))
                       for cid, ndv in ndv_by_output.items()}
            return Estimate(total, columns)
        if isinstance(rel, Difference):
            left = self.estimate(rel.left)
            self.estimate(rel.right)
            columns = {out.cid: left.columns.get(src.cid, ColumnEstimate(
                DEFAULT_NDV)) for out, src in zip(rel.columns, rel.left_map)}
            return Estimate(left.rows, columns)
        if isinstance(rel, SegmentApply):
            return self._estimate_segment_apply(rel)
        # Unknown operator: assume pass-through of the first child.
        if rel.children:
            return self.estimate(rel.children[0])
        return Estimate(1.0)

    def _corrected_rows(self, predicate, child: Estimate) -> float | None:
        """Runtime-feedback override for a filter directly over a table.

        When the child estimate still carries base-table provenance and
        the correction store holds a non-drifted observation for this
        (table, predicate) pair, the *observed* cardinality replaces the
        selectivity math entirely.
        """
        if self._corrections is None or child.table is None:
            return None
        found = self._corrections.lookup(child.table,
                                         predicate_fingerprint(predicate))
        if found is None:
            return None
        return float(found.actual_rows)

    # -- leaves -----------------------------------------------------------------

    def _estimate_get(self, rel: Get) -> Estimate:
        stats = self._stats_provider(rel.table_name)
        if stats is None:
            rows = 1000.0
            return Estimate(rows, {c.cid: ColumnEstimate(DEFAULT_NDV)
                                   for c in rel.columns},
                            table=rel.table_name)
        columns = {}
        for column in rel.columns:
            info = stats.column(column.name)
            if info is None:
                columns[column.cid] = ColumnEstimate(DEFAULT_NDV)
            else:
                null_fraction = (info.null_count / stats.row_count
                                 if stats.row_count else 0.0)
                columns[column.cid] = ColumnEstimate(
                    max(float(info.distinct_count), 1.0),
                    info.min_value, info.max_value, null_fraction,
                    info.histogram)
        return Estimate(float(stats.row_count), columns,
                        table=rel.table_name)

    # -- joins -------------------------------------------------------------------

    def join_rows(self, rel: Join | Apply) -> float:
        """``estimate(rel).rows`` without the column-level estimate."""
        return max(self._join_rows(rel)[1], 0.0)

    def _join_rows(self, rel: Join | Apply) -> tuple[Estimate, float]:
        """The join's output rows and the estimate holding its columns."""
        left = self.estimate(rel.left)
        right = self.estimate(rel.right)
        combined_columns = dict(left.columns)
        combined_columns.update(right.columns)
        cross = Estimate(max(left.rows, 0.0) * max(right.rows, 0.0),
                         combined_columns)
        predicate = rel.predicate
        selectivity = (self.predicate_selectivity(predicate, cross)
                       if predicate is not None else 1.0)
        inner_rows = cross.rows * selectivity

        kind = rel.kind
        if kind is JoinKind.INNER:
            return cross, inner_rows
        if kind is JoinKind.LEFT_OUTER:
            return cross, max(inner_rows, left.rows)
        # Semi/anti: fraction of left rows with at least one match.
        matches_per_left = (inner_rows / left.rows) if left.rows > 0 else 0.0
        semi_rows = left.rows * min(matches_per_left, 1.0)
        if kind is JoinKind.LEFT_SEMI:
            return left, semi_rows
        return left, left.rows - semi_rows

    def _estimate_groupby(self, rel: GroupBy | LocalGroupBy) -> Estimate:
        child = self.estimate(rel.child)
        groups = 1.0
        for column in rel.group_columns:
            groups *= child.ndv(column.cid)
        groups = min(groups, max(child.rows, 0.0))
        columns = {c.cid: child.columns.get(c.cid, ColumnEstimate(groups))
                   for c in rel.group_columns}
        for column, _ in rel.aggregates:
            columns[column.cid] = ColumnEstimate(max(groups, 1.0))
        return Estimate(groups, columns).scaled(groups)

    def _estimate_segment_apply(self, rel: SegmentApply) -> Estimate:
        left = self.estimate(rel.left)
        segments = 1.0
        for column in rel.segment_columns:
            segments *= left.ndv(column.cid)
        segments = max(min(segments, max(left.rows, 1.0)), 1.0)
        per_segment = left.rows / segments
        seg_columns = {}
        left_cols = rel.left.output_columns()
        for left_col, inner_col in zip(left_cols, rel.inner_columns):
            info = left.columns.get(left_col.cid)
            ndv = min(info.ndv, per_segment) if info else DEFAULT_NDV
            seg_columns[inner_col.cid] = ColumnEstimate(max(ndv, 1.0))
        key = frozenset(c.cid for c in rel.inner_columns)
        nested = Estimator(self._stats_provider, self._group_lookup,
                           {**self._segment_rows,
                            key: Estimate(per_segment, seg_columns)},
                           corrections=self._corrections)
        right = nested.estimate(rel.right)
        rows = segments * right.rows
        columns = {c.cid: ColumnEstimate(left.ndv(c.cid))
                   for c in rel.segment_columns}
        columns.update(right.columns)
        return Estimate(rows, columns).scaled(rows)

    # -- predicates ---------------------------------------------------------------

    def predicate_selectivity(self, predicate, input_est: Estimate) -> float:
        selectivity = 1.0
        for part in conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(part, input_est)
        return min(max(selectivity, 0.0), 1.0)

    def _conjunct_selectivity(self, part, input_est: Estimate) -> float:
        if isinstance(part, Literal):
            if part.value is True:
                return 1.0
            return 0.0
        if isinstance(part, And):  # a branch of an OR of ANDs
            selectivity = 1.0
            for arg in part.args:
                selectivity *= self._conjunct_selectivity(arg, input_est)
            return selectivity
        if isinstance(part, Or):
            misses = 1.0
            for arg in part.args:
                misses *= 1.0 - self._conjunct_selectivity(arg, input_est)
            return 1.0 - misses
        if isinstance(part, Not):
            return 1.0 - self._conjunct_selectivity(part.arg, input_est)
        if isinstance(part, IsNull):
            fraction = 0.05
            if isinstance(part.arg, ColumnRef):
                info = input_est.columns.get(part.arg.column.cid)
                if info is not None:
                    fraction = info.null_fraction
            return 1.0 - fraction if part.negated else fraction
        if isinstance(part, Like):
            return 1.0 - DEFAULT_LIKE_SELECTIVITY if part.negated \
                else DEFAULT_LIKE_SELECTIVITY
        if isinstance(part, InList):
            if isinstance(part.arg, ColumnRef):
                ndv = input_est.ndv(part.arg.column.cid)
                hit = min(len(part.values) / ndv, 1.0)
            else:
                hit = min(len(part.values) * DEFAULT_EQ_SELECTIVITY, 1.0)
            return 1.0 - hit if part.negated else hit
        if isinstance(part, Comparison):
            return self._comparison_selectivity(part, input_est)
        return DEFAULT_RANGE_SELECTIVITY

    def _comparison_selectivity(self, part: Comparison,
                                input_est: Estimate) -> float:
        left, right = part.left, part.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            from ...algebra.datatypes import flip_comparison
            part = Comparison(flip_comparison(part.op), right, left)
            left, right = part.left, part.right

        if part.op == "=":
            if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                in_left = left.column.cid in input_est.columns
                in_right = right.column.cid in input_est.columns
                if in_left and in_right:
                    return 1.0 / max(input_est.ndv(left.column.cid),
                                     input_est.ndv(right.column.cid))
                if in_left:
                    return 1.0 / input_est.ndv(left.column.cid)
                if in_right:
                    return 1.0 / input_est.ndv(right.column.cid)
                return DEFAULT_EQ_SELECTIVITY
            if isinstance(left, ColumnRef) and isinstance(right, Literal):
                return 1.0 / input_est.ndv(left.column.cid)
            return DEFAULT_EQ_SELECTIVITY

        if part.op == "<>":
            return 1.0 - self._comparison_selectivity(
                Comparison("=", left, right), input_est)

        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            info = input_est.columns.get(left.column.cid)
            if info is not None and info.min_value is not None:
                return _range_fraction(part.op, right.value, info)
        return DEFAULT_RANGE_SELECTIVITY


def _range_fraction(op: str, value: Any, info: ColumnEstimate) -> float:
    import datetime

    if info.histogram is not None:
        non_null = 1.0 - info.null_fraction
        if op == "<":
            return info.histogram.fraction_below(value) * non_null
        if op == "<=":
            return info.histogram.fraction_below(value, inclusive=True) \
                * non_null
        if op == ">":
            return (1.0 - info.histogram.fraction_below(
                value, inclusive=True)) * non_null
        if op == ">=":
            return (1.0 - info.histogram.fraction_below(value)) * non_null

    def numeric(v: Any) -> float | None:
        if isinstance(v, bool):
            return float(v)
        if isinstance(v, (int, float)):
            return float(v)
        if isinstance(v, datetime.date):
            return float(v.toordinal())
        return None

    low = numeric(info.min_value)
    high = numeric(info.max_value)
    point = numeric(value)
    if low is None or high is None or point is None or high <= low:
        return DEFAULT_RANGE_SELECTIVITY
    position = min(max((point - low) / (high - low), 0.0), 1.0)
    non_null = 1.0 - info.null_fraction
    if op in ("<", "<="):
        return position * non_null
    return (1.0 - position) * non_null


def _is_group_ref(rel: RelationalOp) -> bool:
    return type(rel).__name__ == "GroupRefLeaf"
