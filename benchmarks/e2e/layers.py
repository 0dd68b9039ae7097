"""Per-layer metrics of the traced run.

Two sources: the spans the recorder collected around each layer's public
entry points (set-up and the recording phase), and a handful of direct
probes made after the timed phases on the live database.  Every name in
``metrics.PER_LAYER`` gets a value; 0 means this workload never entered
the layer.
"""

from __future__ import annotations

import re
import statistics
import time

import workloads as wl
from metrics import PER_LAYER_NAMES, UNITS

_now = time.perf_counter
_PROBE_REPEATS = 3
_HIT_PATH_STATEMENT = "select r_name from region where r_regionkey = 1"
_SCAN_STATEMENT = "select count(*) from lineitem"
_SCAN_LABEL = re.compile(r"^TableScan\((\w+)")
_COMPILE_SPANS = ("sql.parse", "binder.bind", "core.normalize",
                  "core.optimizer.optimize", "executor.vectorized.prepare")


def _median_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def _mean_ms(seconds) -> float:
    return statistics.fmean(seconds) * 1e3 if seconds else 0.0


def _timed(function, repeats: int = _PROBE_REPEATS) -> float:
    """Median seconds of ``function()``."""
    times = []
    for _ in range(repeats):
        start = _now()
        function()
        times.append(_now() - start)
    return statistics.median(times)


def _statement(span) -> str | None:
    """Name of the workload statement ``span`` ran under."""
    parent = span.parent
    while parent is not None:
        if parent.name.startswith("stmt."):
            return parent.name[len("stmt."):]
        parent = parent.parent
    return None


def _walk(node: dict):
    yield node
    for child in node["children"]:
        yield from _walk(child)


# -- probes on the live system ------------------------------------------------------

def probe(run) -> dict:
    """Measurements that need the database still open."""
    env = run.env
    db = env.db
    out: dict = {}

    db.execute(_HIT_PATH_STATEMENT)
    out["hit_path_s"] = _timed(lambda: db.execute(_HIT_PATH_STATEMENT), 200)

    # A full scan as the executor drives it: count(*) over lineitem.
    lineitem = db.storage.get("lineitem")
    orders = db.storage.get("orders")
    db.execute(_SCAN_STATEMENT)
    out["scan_rows_per_s"] = len(lineitem) / _timed(
        lambda: db.execute(_SCAN_STATEMENT))
    out["clone_s"] = _timed(lambda: (lineitem.clone(), orders.clone()))

    # One profiled execution of each distinct statement of the last
    # round: rows examined at the leaves, outer rows of every surviving
    # Apply, chunks the zone maps skipped.
    examined = results = outer_rows = skipped = scanned = 0
    outer_by_statement: dict = {}  # name -> outer rows of each execution
    seen = set()
    statements = [query for operation in run.last_round
                  for query in operation.queries]
    for query in statements:
        if (query.sql, query.params) in seen:
            continue
        seen.add((query.sql, query.params))
        analysis = db.explain(query.sql, analyze=True, format="dict",
                              params=query.params)
        results += analysis["row_count"]
        outer_here = 0
        for node in _walk(analysis["plan"]):
            actual = node["actual_rows"] or 0
            if not node["children"]:
                examined += actual
            if node["op"].startswith("NLApply"):
                outer_here += node["children"][0]["actual_rows"] or 0
            table = _SCAN_LABEL.match(node["op"])
            if table:
                scanned += len(db.storage.get(table.group(1)).scan_units())
                skipped += node.get("chunks_skipped", 0)
        outer_rows += outer_here
        outer_by_statement.setdefault(query.name, []).append(outer_here)
    out["rows_examined_per_result"] = examined / max(results, 1)
    out["outer_rows"] = outer_rows
    out["outer_by_statement"] = outer_by_statement
    out["chunks_skipped_share"] = skipped / scanned if scanned else 0.0

    out["dash_speedup"] = 0.0
    if env.spec.served:
        dash = wl.PAGE_STATEMENTS["dash_aggregate"]
        db.execute(dash, use_matviews=False)
        raw = _timed(lambda: db.execute(dash, use_matviews=False))
        rewritten = _timed(lambda: db.execute(dash))
        out["dash_speedup"] = raw / rewritten
        out["admission"] = env.server.metrics()["admission"]
    out["matviews"] = db.matviews.status()
    cache = db.plan_cache.stats
    out["evictions"], out["stale"] = cache.evictions, cache.stale
    return out


# -- span arithmetic -----------------------------------------------------------------

def per_layer(run, quiet, traced, probes: dict, recover_s: float) -> dict:
    recorder = run.recorder
    counts = recorder.counts
    env = run.env
    by_name: dict = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str) -> list:
        return by_name.get(name, [])

    def self_times(name: str) -> list:
        return [span.self_time for span in spans(name)]

    def durations(name: str) -> list:
        return [span.duration for span in spans(name)]

    traced_ops = {op for ops in traced.round_ops for op in ops}
    rounds = len(traced.round_ops)
    m = dict.fromkeys(PER_LAYER_NAMES, 0.0)

    # -- front end and optimizer: every compilation of the run -------------------
    parse = durations("sql.parse")
    m["sql.parse_ms"] = _mean_ms(parse)
    m["sql.parse_chars_per_s"] = (counts["sql.chars"] / sum(parse)
                                  if parse else 0.0)
    m["binder.bind_ms"] = _mean_ms(self_times("binder.bind"))
    m["core.normalize.normalize_ms"] = _mean_ms(self_times("core.normalize"))
    if counts["normalize.applies_in"]:
        m["core.normalize.apply_removed_share"] = 1.0 - (
            counts["normalize.applies_out"] / counts["normalize.applies_in"])
    m["core.optimizer.optimize_ms"] = _mean_ms(
        self_times("core.optimizer.optimize"))
    compiled = counts["optimizer.statements"]
    if compiled:
        m["core.optimizer.memo_groups"] = (
            counts["optimizer.memo_groups"] / compiled)
        m["core.optimizer.rule_applications"] = (
            counts["optimizer.rule_applications"] / compiled)
    op_time = sum(span.duration for span in spans("bench.op"))
    compile_time = sum(span.self_time for name in _COMPILE_SPANS
                       for span in spans(name) if span.op in traced_ops)
    m["core.optimizer.compile_share"] = (compile_time / op_time
                                         if op_time else 0.0)
    m["executor.vectorized.prepare_ms"] = _mean_ms(
        durations("executor.vectorized.prepare"))

    # -- plan cache ---------------------------------------------------------------
    lookups = traced.cache_hits + traced.cache_misses
    m["plancache.hit_rate"] = traced.cache_hits / lookups if lookups else 0.0
    m["plancache.evictions"] = probes["evictions"]
    m["plancache.stale"] = probes["stale"]
    m["plancache.hit_path_ms"] = probes["hit_path_s"] * 1e3

    # -- executors --------------------------------------------------------------------
    vector_by_op: dict = {}
    for span in spans("executor.vectorized.run"):
        if span.op in traced_ops:
            vector_by_op[span.op] = (vector_by_op.get(span.op, 0.0)
                                     + span.duration)
    for cls, ops in traced.ops.items():
        name = f"executor.vectorized.{cls}_ms"
        if name in m:
            m[name] = _median_ms([vector_by_op.get(op, 0.0) for op in ops])
    m["executor.vectorized.round_ms"] = _median_ms(
        [sum(vector_by_op.get(op, 0.0) for op in ops)
         for ops in traced.round_ops])
    m["executor.vectorized.rows_examined_per_result"] = (
        probes["rows_examined_per_result"])

    # The tuple engine ran every statement once for the correctness gate;
    # the vectorized time of the same statements is the base's peer.
    tuple_seconds = run.checker.tuple_seconds
    vector_seconds: dict = {}
    for span in spans("executor.vectorized.run"):
        name = _statement(span)
        if name in tuple_seconds:
            vector_seconds.setdefault(name, []).append(span.duration)
    per_round = {name: len(values) / rounds
                 for name, values in vector_seconds.items()}
    physical = sum(tuple_seconds[name] * per_round[name]
                   for name in vector_seconds)
    vectorized = sum(statistics.median(values) * per_round[name]
                     for name, values in vector_seconds.items())
    m["executor.physical.round_ms"] = physical * 1e3
    if vectorized:
        m["executor.vectorized.speedup_vs_tuple"] = physical / vectorized

    m["executor.apply.outer_rows"] = probes["outer_rows"]
    for shape, outer in probes["outer_by_statement"].items():
        name = f"executor.apply.ms_per_outer_row.{shape}"
        if name in m and any(outer):
            m[name] = (_median_ms(traced.latencies[shape])
                       / statistics.fmean(outer))

    # -- storage ------------------------------------------------------------------------
    m["storage.scan_rows_per_s"] = probes["scan_rows_per_s"]
    m["storage.chunks_skipped_share"] = probes["chunks_skipped_share"]
    m["storage.clone_ms"] = probes["clone_s"] * 1e3
    insert = durations("storage.insert")
    if insert:
        m["storage.insert_rows_per_s"] = (counts["storage.rows_inserted"]
                                          / sum(insert))
    m["storage.bytes_per_row"] = env.load_rss_bytes / env.rows_loaded

    # -- materialized views, durability, server ----------------------------------------
    views = probes["matviews"]
    m["matview.rewrite_share"] = views["rewrites"] / env.statements_issued
    m["matview.maintained_commits"] = views["maintained_commits"]
    m["matview.dash_speedup"] = probes["dash_speedup"]
    m["matview.create_ms"] = _median_ms(durations("matview.create"))
    if traced.writes:
        m["durability.wal_bytes_per_commit"] = (traced.wal_bytes
                                                / traced.writes)
    m["durability.commit_ms"] = _median_ms(
        [span.duration for span in spans("durability.log_commit")
         if span.op in traced_ops])
    m["durability.checkpoint_ms"] = _median_ms(
        durations("durability.checkpoint"))
    m["durability.recover_s"] = recover_s

    m["server.wire.roundtrip_overhead_ms"] = _median_ms(
        [span.parent.duration - span.duration
         for span in spans("server.sessions.execute")
         if span.parent is not None
         and span.parent.name == "server.wire.request"])
    page_seconds: dict = {}
    for span in spans("server.sessions.execute"):
        if span.op in traced_ops:
            page_seconds.setdefault(_statement(span), []).append(
                span.duration)
    for statement in wl.PAGE_STATEMENTS:
        m[f"server.sessions.execute_ms.{statement}"] = _median_ms(
            page_seconds.get(statement))
    staged: dict = {}
    for span in spans("server.sessions.insert"):
        if span.op in traced_ops:
            staged[span.op] = staged.get(span.op, 0.0) + span.duration
    m["server.sessions.stage_insert_ms"] = _median_ms(list(staged.values()))
    m["server.sessions.commit_ms"] = _median_ms(
        [span.duration for span in spans("server.sessions.commit")
         if span.op in traced_ops])
    for counter in ("completed", "failed", "shed"):
        m[f"server.admission.{counter}"] = probes.get(
            "admission", {}).get(counter, 0)

    # -- data generation and the bench itself ------------------------------------------
    generate = durations("tpch.generate")
    m["tpch.generate_s"] = statistics.median(generate) if generate else 0.0
    m["tpch.rows_loaded"] = env.rows_loaded
    m["bench.calibration_ms"] = statistics.fmean(traced.calibration_ms)
    m["bench.trace_overhead_share"] = (
        statistics.median(traced.rounds) / statistics.median(quiet.rounds)
        - 1.0)
    m["bench.gc_gen2_collections"] = traced.gc_collections
    m["bench.gc_pause_share"] = traced.gc_pause / sum(traced.rounds)
    return {name: float(value) for name, value in m.items()}


def describe(metrics: dict) -> list:
    lines = ["per-layer metrics (recording phase; 0 = layer not entered)"]
    for name in PER_LAYER_NAMES:
        lines.append(f"  {name:<48}{metrics[name]:>16.4f} {UNITS[name]}")
    return lines
