"""Paper-reproduction helpers: configuration matrix, timing, tables.

The paper's evaluation (Section 5) compares published TPC-H results across
DBMSs and processor counts.  Our substitution (see DESIGN.md): the "system"
axis becomes optimizer configurations of this engine, and the "processors"
axis becomes the data scale factor.  This module provides the shared
machinery of the Figure 1/8/9 and ablation benches: building TPC-H
databases per scale factor, timing queries under each configuration, and
printing paper-style tables.  Performance evidence for the repository
itself comes from ``benchmarks/e2e/`` only, never from here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.normalize import NormalizeConfig
from ..core.optimizer import OptimizerConfig
from ..database import (CORRELATED, DECORRELATE_ONLY, FULL, Database,
                        ExecutionMode)
from ..tpch import create_tpch_schema, generate_tpch

#: The benchmark "system" axis: the paper's system (FULL) against
#: progressively weaker configurations standing in for the comparators.
CONFIGURATIONS: tuple[ExecutionMode, ...] = (FULL, DECORRELATE_ONLY,
                                             CORRELATED)

#: Ablation modes for individual technique families (Section 3).
NO_GROUPBY_REORDER = ExecutionMode(
    "no_groupby_reorder",
    optimizer_config=OptimizerConfig(groupby_reorder=False,
                                     segment_apply=False,
                                     local_aggregates=False))
NO_SEGMENT_APPLY = ExecutionMode(
    "no_segment_apply",
    optimizer_config=OptimizerConfig(segment_apply=False))
NO_LOCAL_AGGREGATES = ExecutionMode(
    "no_local_aggregates",
    optimizer_config=OptimizerConfig(local_aggregates=False))
NO_INDEX_APPLY = ExecutionMode(
    "no_index_apply",
    optimizer_config=OptimizerConfig(index_apply=False))
NO_OJ_SIMPLIFY = ExecutionMode(
    "no_oj_simplify",
    normalize_config=NormalizeConfig(simplify_outerjoins=False),
    optimizer_config=OptimizerConfig(groupby_reorder=False,
                                     segment_apply=False,
                                     local_aggregates=False))


_DB_CACHE: dict[tuple[float, int, bool], Database] = {}


def tpch_database(scale_factor: float, seed: int = 20010521,
                  with_indexes: bool = True) -> Database:
    """A populated TPC-H database, cached per (scale, seed, indexes)."""
    key = (scale_factor, seed, with_indexes)
    if key not in _DB_CACHE:
        db = Database()
        create_tpch_schema(db, with_indexes=with_indexes)
        generate_tpch(db, scale_factor, seed)
        _DB_CACHE[key] = db
    return _DB_CACHE[key]


@dataclass
class Measurement:
    """One timed query: compile (plan) time and execution time.

    The paper's Figure 9 reports elapsed *power-run* execution time, where
    compilation is negligible against 300 GB of data; in this scaled-down
    reproduction compilation would otherwise mask the execution-strategy
    effect, so the two are measured separately and the series report
    ``elapsed_seconds`` (execution).
    """

    query: str
    mode: str
    scale_factor: float
    elapsed_seconds: float
    plan_seconds: float
    row_count: int


def time_query(db: Database, sql: str, mode: ExecutionMode,
               repeat: int = 1) -> tuple[float, float, int]:
    """(plan seconds, best-of-``repeat`` execution seconds, row count)."""
    from ..executor.physical import PhysicalExecutor
    from ..executor import NaiveInterpreter
    from ..sql import parse

    if mode.use_naive_interpreter:
        bound = db._binder.bind(parse(sql))
        interpreter = NaiveInterpreter(lambda name: db.storage.get(name).rows)
        best = float("inf")
        rows = 0
        for _ in range(repeat):
            start = time.perf_counter()
            result = interpreter.run(bound.rel)
            best = min(best, time.perf_counter() - start)
            rows = len(result)
        return 0.0, best, rows

    start = time.perf_counter()
    plan = db.plan(sql, mode)
    plan_seconds = time.perf_counter() - start
    executor = PhysicalExecutor(db.storage)
    best = float("inf")
    rows = 0
    for _ in range(repeat):
        start = time.perf_counter()
        result = executor.run(plan)
        best = min(best, time.perf_counter() - start)
        rows = len(result)
    return plan_seconds, best, rows


def run_matrix(sql: str, query_name: str, scale_factors: Sequence[float],
               modes: Sequence[ExecutionMode] = CONFIGURATIONS,
               repeat: int = 1) -> list[Measurement]:
    """Time one query across the scale-factor × configuration matrix."""
    measurements = []
    for scale_factor in scale_factors:
        db = tpch_database(scale_factor)
        for mode in modes:
            plan_s, exec_s, rows = time_query(db, sql, mode, repeat)
            measurements.append(Measurement(
                query_name, mode.name, scale_factor, exec_s, plan_s, rows))
    return measurements


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table (the benches print paper-style tables)."""
    materialized = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value * 1000:.1f}ms" if value < 0.1 else f"{value:.3f}"
    return str(value)


def series_table(measurements: Sequence[Measurement]) -> str:
    """Scale factor rows × configuration columns of elapsed seconds."""
    modes = []
    for m in measurements:
        if m.mode not in modes:
            modes.append(m.mode)
    scale_factors = sorted({m.scale_factor for m in measurements})
    lookup = {(m.scale_factor, m.mode): m for m in measurements}
    rows = []
    for sf in scale_factors:
        row: list[object] = [str(sf)]  # a scale factor, not a duration
        for mode in modes:
            m = lookup.get((sf, mode))
            row.append(m.elapsed_seconds if m else "-")
        rows.append(row)
    return format_table(["scale_factor"] + list(modes), rows)
