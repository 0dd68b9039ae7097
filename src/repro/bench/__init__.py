"""Paper-reproduction helpers shared by the ``benchmarks/`` suite."""

from .harness import (CONFIGURATIONS, Measurement, NO_GROUPBY_REORDER,
                      NO_INDEX_APPLY, NO_LOCAL_AGGREGATES, NO_OJ_SIMPLIFY,
                      NO_SEGMENT_APPLY, format_table, run_matrix,
                      series_table, time_query, tpch_database)

__all__ = ["CONFIGURATIONS", "Measurement", "NO_GROUPBY_REORDER",
           "NO_INDEX_APPLY", "NO_LOCAL_AGGREGATES", "NO_OJ_SIMPLIFY",
           "NO_SEGMENT_APPLY", "format_table", "run_matrix", "series_table",
           "time_query", "tpch_database"]
