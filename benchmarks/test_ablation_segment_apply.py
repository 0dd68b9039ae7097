"""Ablation A3 — Section 3.4: segmented execution on/off.

With SegmentApply disabled the optimizer falls back to the flattened
aggregate-join plan for Q17; with it enabled, the per-segment plan
(Figure 7) computes the average only for the partkeys that survive the
part filter.  The database carries no FK indexes here: with an index on
``l_partkey`` the correlated index-lookup plan hides the effect, whereas
the segmented-vs-flattened contrast is exactly about avoiding the
whole-table aggregation when no such access path exists.
"""

import pytest

from repro import FULL
from repro.bench import (NO_SEGMENT_APPLY, format_table, time_query,
                         tpch_database)
from repro.physical import PSegmentApply
from repro.tpch import QUERIES

SCALE_FACTOR = 0.01


def _walk(plan):
    yield plan
    for child in plan.children:
        yield from _walk(child)


def test_ablation_segment_apply(benchmark):
    db = tpch_database(SCALE_FACTOR, with_indexes=False)
    sql = QUERIES["Q17"]

    with_plan = db.plan(sql, FULL)
    without_plan = db.plan(sql, NO_SEGMENT_APPLY)
    assert any(isinstance(n, PSegmentApply) for n in _walk(with_plan))
    assert not any(isinstance(n, PSegmentApply) for n in _walk(without_plan))

    rows = []
    timings = {}
    for label, mode in (("segment_apply on", FULL),
                        ("segment_apply off", NO_SEGMENT_APPLY)):
        plan_s, exec_s, count = time_query(db, sql, mode, repeat=3)
        rows.append([label, f"{exec_s * 1000:.2f}", count])
        timings[label] = exec_s
    print()
    print(f"Ablation — SegmentApply (TPC-H Q17, SF={SCALE_FACTOR})")
    print(format_table(["configuration", "exec (ms)", "rows"], rows))

    assert db.execute(sql, FULL).rows == db.execute(sql, NO_SEGMENT_APPLY).rows

    from repro.executor.physical import PhysicalExecutor
    executor = PhysicalExecutor(db.storage)
    prepared = executor.prepare(with_plan)
    benchmark(lambda: executor.run_prepared(prepared))
