"""Table-statistics snapshots for plan-cache staleness detection.

A cached plan was costed against the table sizes that existed when it was
optimized.  If those sizes drift far enough, the optimizer might pick a
different plan today (join order, index seek vs scan, hash vs stream
aggregate), so the cached plan should be thrown away and rebuilt.  This
module provides the snapshot taken at plan time and the drift test applied
on every cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

#: Relative row-count change that invalidates a cached plan.  0.5 means a
#: table must grow or shrink by more than half its planned size before the
#: plan is considered stale — generous enough that steady trickle inserts
#: do not thrash the cache, tight enough that a bulk load forces a re-cost.
DEFAULT_DRIFT_THRESHOLD = 0.5

RowCountOf = Callable[[str], int]


@dataclass(frozen=True)
class StatsSnapshot:
    """Row counts of the tables a plan references, frozen at plan time."""

    row_counts: Mapping[str, int]

    def tables(self) -> Iterable[str]:
        return self.row_counts.keys()


def capture(row_count_of: RowCountOf,
            table_names: Iterable[str]) -> StatsSnapshot:
    """Snapshot the current row counts of ``table_names``."""
    return StatsSnapshot({name: row_count_of(name)
                          for name in sorted(set(table_names))})


def drifted(snapshot: StatsSnapshot, row_count_of: RowCountOf,
            threshold: float = DEFAULT_DRIFT_THRESHOLD) -> bool:
    """True when any snapshotted table's size moved beyond ``threshold``.

    The change is measured relative to the planned size, with empty tables
    treated as size 1 so that any insert into a planned-empty table trips
    the check (going from 0 rows to any data invalidates every cardinality
    estimate the optimizer made).
    """
    return any(size_drifted(planned, row_count_of(name), threshold)
               for name, planned in snapshot.row_counts.items())


def size_drifted(planned: int, current: int,
                 threshold: float = DEFAULT_DRIFT_THRESHOLD) -> bool:
    """The one drift rule: ``current`` rows moved more than ``threshold``
    of ``planned`` (an empty ``planned`` counts as 1, so any insert into
    an empty table drifts).  Plan cache, correction store and the table
    statistics cache all apply it."""
    return abs(current - planned) > threshold * max(planned, 1)
