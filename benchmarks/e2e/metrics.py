"""The benchmark's metric registry.

``BENCHMARK.json`` (whose schema admits only name/unit/better/bound) is
checked against these tables by ``test_smoke.py``; what the schema has no
room for lives here: the regression bound's justification and, for every
per-layer metric, the end-to-end number it is predicted to move and on
which workload.  A zero for a per-layer metric means the workload never
entered that layer — the "no change" half of a prediction made visible.
"""

from __future__ import annotations

#: (name, unit, better, bound).  The driver refuses a benchmark whose
#: ten-run interquartile spread exceeds a metric's bound.  Two ``--aa 5``
#: sessions of identical code twenty minutes apart (AA_BASELINE_*.json,
#: README.md) spread the raw timings by 3-7 % in the first and by 8-16 %
#: in the second, so 10 % cannot be held on this sandbox and every timing
#: takes the contract's ceiling.  Resident memory repeats within 0.5 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("latency_geomean_ms", "ms", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_COMPILE = ("adhoc_compile throughput/geomean/p90 and tpch_power setup_s; "
            "no change on tpch_power timed metrics")
_VECTOR = ("tpch_power throughput/geomean; no change on adhoc_compile")
_WRITE = "server_mixed throughput and latency_p90_ms (writes are ~3/4 of it)"
_READ = "server_mixed latency_p50_ms"
_APPLY = "every timed metric of residual_apply, none of tpch_power"

#: (name, unit, better, predicted interaction)
PER_LAYER = (
    ("sql.parse_ms", "ms", "lower", _COMPILE),
    ("sql.parse_chars_per_s", "chars/s", "higher", _COMPILE),
    ("binder.bind_ms", "ms", "lower", _COMPILE),
    ("core.normalize.normalize_ms", "ms", "lower", _COMPILE),
    ("core.normalize.apply_removed_share", "share", "higher",
     "rising moves a statement from residual_apply-like cost to "
     "tpch_power-like cost"),
    ("core.optimizer.optimize_ms", "ms", "lower", _COMPILE),
    ("core.optimizer.memo_groups", "count", "lower", _COMPILE),
    ("core.optimizer.rule_applications", "count", "lower", _COMPILE),
    ("core.optimizer.compile_share", "share", "lower",
     "~1 on adhoc_compile, 0 on the cached workloads"),
    ("plancache.hit_rate", "share", "higher",
     "1.0 on cached workloads, 0 on adhoc_compile; a drop moves "
     "compile cost into every timed metric"),
    ("plancache.evictions", "count", "lower", "as plancache.hit_rate"),
    ("plancache.stale", "count", "lower",
     "server_mixed: growth-triggered replans land in latency_p50_ms"),
    ("plancache.hit_path_ms", "ms", "lower", _READ),
    *((f"executor.vectorized.q{n:02d}_ms", "ms", "lower", _VECTOR)
      for n in range(1, 23)),
    ("executor.vectorized.round_ms", "ms", "lower", _VECTOR),
    ("executor.vectorized.prepare_ms", "ms", "lower", _COMPILE),
    ("executor.vectorized.rows_examined_per_result", "rows", "lower",
     _VECTOR),
    ("executor.physical.round_ms", "ms", "lower",
     "reference engine; moves no gated metric"),
    ("executor.vectorized.speedup_vs_tuple", "x", "higher",
     "base: executor.physical.round_ms over the same plans"),
    ("executor.apply.outer_rows", "count", "lower", _APPLY),
    *((f"executor.apply.ms_per_outer_row.{shape}", "ms", "lower", _APPLY)
      for shape in ("max1row", "case_branch", "topn_limit",
                    "union_all_apply")),
    ("storage.scan_rows_per_s", "rows/s", "higher",
     "tpch_power throughput up; watch storage.clone_ms for the price"),
    ("storage.chunks_skipped_share", "share", "higher", _VECTOR),
    ("storage.clone_ms", "ms", "lower", _WRITE),
    ("storage.insert_rows_per_s", "rows/s", "higher", "setup_s everywhere"),
    ("storage.bytes_per_row", "B/row", "lower", "peak_rss_mb everywhere"),
    ("matview.rewrite_share", "share", "higher", _READ),
    ("matview.maintained_commits", "count", "higher", _WRITE),
    ("matview.dash_speedup", "x", "higher",
     "base: the dashboard statement with use_matviews=False; " + _READ),
    ("matview.create_ms", "ms", "lower", "server_mixed setup_s"),
    ("durability.wal_bytes_per_commit", "B", "lower", _WRITE),
    ("durability.commit_ms", "ms", "lower", _WRITE),
    ("durability.checkpoint_ms", "ms", "lower", "server_mixed setup_s"),
    ("durability.recover_s", "s", "lower",
     "restart time; moves no gated metric"),
    ("server.wire.roundtrip_overhead_ms", "ms", "lower", _READ),
    *((f"server.sessions.execute_ms.{name}", "ms", "lower", _READ)
      for name in ("order_by_key", "customer_orders", "dash_aggregate",
                   "correlated_count", "exists_filter")),
    ("server.sessions.stage_insert_ms", "ms", "lower", _WRITE),
    ("server.sessions.commit_ms", "ms", "lower", _WRITE),
    ("server.admission.completed", "count", "higher",
     "sanity: equals the statements issued"),
    ("server.admission.failed", "count", "lower", "must stay 0"),
    ("server.admission.shed", "count", "lower", "must stay 0"),
    ("tpch.generate_s", "s", "lower", "setup_s everywhere"),
    ("tpch.rows_loaded", "count", "higher", "fixed by the scale factor"),
    ("bench.calibration_ms", "ms", "lower",
     "machine drift, not the program: a fixed pure-Python kernel timed "
     "before and after the phase (mean of the two)"),
    ("bench.trace_overhead_share", "share", "lower",
     "how far the traced numbers sit above the untraced ones"),
    ("bench.gc_gen2_collections", "count", "lower",
     "full collections during the timed phase"),
    ("bench.gc_pause_share", "share", "lower",
     "full-collection pauses over timed wall; they are part of the "
     "latencies (~half of an order_write)"),
)

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
