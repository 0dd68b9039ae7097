"""Table and column statistics for cardinality estimation.

The cost-based optimizer (paper Section 4: "the plan with cheapest estimated
cost is selected") needs row counts, distinct-value counts and value ranges.
Statistics are computed from stored data on demand and cached by the
database facade.

:class:`CorrectionStore` holds *runtime cardinality corrections*: actual
row counts observed by the feedback loop (:mod:`repro.feedback`) for
(table, predicate) pairs the static model mis-estimated.  The estimator
consults them before falling back to the selectivity math, closing the
optimize → execute → observe loop.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..concurrency import TrackedLock
from ..stats_version import (DEFAULT_DRIFT_THRESHOLD, StatsSnapshot,
                             drifted)


@dataclass(frozen=True)
class Histogram:
    """Equi-depth histogram over a column's non-NULL values.

    ``boundaries`` holds ``bucket_count + 1`` sorted values; bucket *i*
    covers ``[boundaries[i], boundaries[i+1])`` (the last bucket is
    closed).  Buckets hold (approximately) equal row counts, so the
    fraction of rows below a probe value can be read off directly —
    robust to skew where the uniform min/max interpolation is not.
    """

    boundaries: tuple
    rows_per_bucket: float

    @property
    def bucket_count(self) -> int:
        return len(self.boundaries) - 1

    def fraction_below(self, value: Any, inclusive: bool = False) -> float:
        """Estimated fraction of (non-NULL) rows ``< value`` (or ``<=``)."""
        if self.bucket_count <= 0:
            return 0.5
        if inclusive:
            position = bisect.bisect_right(self.boundaries, value)
        else:
            position = bisect.bisect_left(self.boundaries, value)
        if position <= 0:
            return 0.0
        if position >= len(self.boundaries):
            return 1.0
        # Interpolate inside the bucket the value falls in.
        low = self.boundaries[position - 1]
        high = self.boundaries[position]
        complete = (position - 1) / self.bucket_count
        try:
            if high == low:
                within = 0.5
            else:
                within = (_numeric(value) - _numeric(low)) / \
                    (_numeric(high) - _numeric(low))
        except TypeError:
            within = 0.5
        within = min(max(within, 0.0), 1.0)
        return complete + within / self.bucket_count


def build_histogram(values: Sequence[Any],
                    bucket_count: int = 16) -> Optional[Histogram]:
    """An equi-depth histogram, or None for empty/incomparable input."""
    comparable = []
    for value in values:
        if value is None:
            continue
        try:
            _numeric(value)
        except TypeError:
            return None
        comparable.append(value)
    if not comparable:
        return None
    ordered = sorted(comparable)
    buckets = min(bucket_count, len(ordered))
    boundaries = [ordered[0]]
    for i in range(1, buckets):
        boundaries.append(ordered[(i * len(ordered)) // buckets])
    boundaries.append(ordered[-1])
    return Histogram(tuple(boundaries), len(ordered) / buckets)


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of one stored column."""

    distinct_count: int
    null_count: int
    min_value: Any = None
    max_value: Any = None
    histogram: Optional[Histogram] = None


def _numeric(value: Any) -> float:
    """Map a value to a number for range interpolation."""
    import datetime

    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    raise TypeError(f"not numeric: {value!r}")


class TableStats:
    """Row count plus per-column statistics for one table."""

    def __init__(self, row_count: int,
                 columns: dict[str, ColumnStats] | None = None) -> None:
        self.row_count = row_count
        self.columns = columns or {}

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def __repr__(self) -> str:
        return f"TableStats(rows={self.row_count}, {len(self.columns)} columns)"


@dataclass(frozen=True)
class CardinalityCorrection:
    """One observed (table, predicate) cardinality, with provenance.

    ``estimated_rows`` is what the cost model predicted when the
    observation was made, ``actual_rows`` what execution produced, and
    ``q_error`` their max ratio.  ``snapshot`` pins the table sizes at
    observation time (:mod:`repro.stats_version`): a correction is only
    trusted while those sizes have not drifted — stale observations are
    no better than stale statistics.
    """

    table: str
    predicate_key: str
    estimated_rows: float
    actual_rows: int
    q_error: float
    snapshot: StatsSnapshot

    def as_dict(self) -> dict:
        return {"table": self.table, "predicate": self.predicate_key,
                "estimated_rows": self.estimated_rows,
                "actual_rows": self.actual_rows, "q_error": self.q_error}


class CorrectionStore:
    """Thread-safe map of ``(table, predicate_key)`` → latest correction.

    ``row_count_of`` supplies current table sizes; a lookup whose stored
    snapshot drifted beyond ``drift_threshold`` evicts the entry and
    reports a miss (versioned invalidation via
    :mod:`repro.stats_version`, same policy as the plan cache).
    ``version`` increments on every accepted record, so observers can
    cheaply detect that corrections changed.
    """

    def __init__(self,
                 row_count_of: Callable[[str], int] | None = None,
                 drift_threshold: float = DEFAULT_DRIFT_THRESHOLD) -> None:
        self._entries: dict[tuple[str, str], CardinalityCorrection] = {}
        self._lock = TrackedLock("stats.corrections")
        self._row_count_of = row_count_of
        self.drift_threshold = drift_threshold
        self.version = 0

    def record(self, correction: CardinalityCorrection) -> None:
        key = (correction.table.lower(), correction.predicate_key)
        with self._lock:
            self._entries[key] = correction
            self.version += 1

    def lookup(self, table: str,
               predicate_key: str) -> CardinalityCorrection | None:
        key = (table.lower(), predicate_key)
        with self._lock:
            found = self._entries.get(key)
        if found is None:
            return None
        if self._row_count_of is not None and drifted(
                found.snapshot, self._row_count_of, self.drift_threshold):
            with self._lock:
                # Only evict the exact observation we judged stale; a
                # concurrent recorder may have installed a fresher one.
                if self._entries.get(key) is found:
                    del self._entries[key]
            return None
        return found

    def invalidate(self, table: str | None = None) -> int:
        """Drop corrections — all, or those for one table (DDL hook)."""
        with self._lock:
            if table is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                wanted = table.lower()
                doomed = [k for k in self._entries if k[0] == wanted]
                for k in doomed:
                    del self._entries[k]
                removed = len(doomed)
            if removed:
                self.version += 1
        return removed

    def entries(self) -> list[CardinalityCorrection]:
        with self._lock:
            return list(self._entries.values())

    def dump_state(self) -> list[dict]:
        """JSON-safe form of every correction, for checkpoints.

        Unlike :meth:`CardinalityCorrection.as_dict` (a display shape)
        this keeps the staleness snapshot, so a correction restored
        after recovery still evicts itself once the table drifts.
        """
        with self._lock:
            return [{"table": c.table, "predicate_key": c.predicate_key,
                     "estimated_rows": c.estimated_rows,
                     "actual_rows": c.actual_rows, "q_error": c.q_error,
                     "row_counts": dict(c.snapshot.row_counts)}
                    for c in self._entries.values()]

    def load_state(self, state: Sequence[dict]) -> None:
        """Restore corrections dumped by :meth:`dump_state`."""
        for entry in state:
            self.record(CardinalityCorrection(
                table=entry["table"],
                predicate_key=entry["predicate_key"],
                estimated_rows=entry["estimated_rows"],
                actual_rows=entry["actual_rows"],
                q_error=entry["q_error"],
                snapshot=StatsSnapshot(dict(entry["row_counts"]))))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def compute_table_stats(column_names: Sequence[str],
                        columns: Iterable[Sequence[Any]], row_count: int,
                        histogram_buckets: int = 16) -> TableStats:
    """Compute full statistics from ``columns``, one value sequence per
    name in ``column_names``, consumed one at a time (a lazy iterable
    holds one column's values at once)."""
    stats: dict[str, ColumnStats] = {}
    for name, values in zip(column_names, columns):
        non_null = [v for v in values if v is not None]
        distinct = len(set(non_null))
        min_value = min(non_null) if non_null else None
        max_value = max(non_null) if non_null else None
        stats[name] = ColumnStats(
            distinct_count=distinct,
            null_count=row_count - len(non_null),
            min_value=min_value,
            max_value=max_value,
            histogram=build_histogram(non_null, histogram_buckets))
    return TableStats(row_count, stats)
