"""Run one workload in this process: set-up, correctness gate, timed
closed loop, end-to-end metrics.

Estimator rules (README.md has the measurements behind them):

* closed loop, one caller, identical seeded rounds; the number of rounds
  is fixed before the timed phase (``Spec.rounds`` scaled by
  ``--seconds``), never decided by a clock inside the loop;
* per-operation wall time from ``time.perf_counter``; GC stays on and a
  pause stays in the operation it lands on, which is what the caller
  waits for; an untimed ``gc.collect()`` before every round brings the
  collector to the same state, so the pauses land at the same places in
  every round instead of wandering between classes;
* every latency metric is a function of per-class medians, throughput of
  the median round;
* a fixed pure-Python kernel is timed before and after the phase and
  printed (``bench.calibration_ms``) so that machine drift can be read
  beside the numbers; nothing is scaled by it.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import bootstrap
import layers
import workloads as wl
from estimators import geomean, weighted_quantile
from metrics import UNITS
from spans import Recorder, instrument

from repro import Database, QueryServer, ServerClient
from repro.executor.physical import PhysicalExecutor
from repro.physical import explain_physical
from repro.tpch import create_tpch_schema, generate_tpch

_now = time.perf_counter

#: Scale of the pre-flight database on which the §2.1 naive interpreter
#: (independent of normalizer, optimizer and both engines) is tractable.
TINY_SCALE = 0.0001
#: Same list as tests/test_tpch.py: the other templates are 3+-way cross
#: products under naive evaluation.
NAIVE_FEASIBLE = frozenset(("Q1", "Q4", "Q6", "Q11", "Q12", "Q13", "Q14",
                            "Q15", "Q16", "Q17", "Q19", "Q22"))
MIN_ROUNDS = 2
#: ``--smoke`` always times this many rounds.
SMOKE_ROUNDS = 3
#: Share of a traced run's rounds timed with the wrappers idle.
QUIET_SHARE = 0.3
CALIBRATION_REPEATS = 5


# -- machine drift and collector diagnostics -----------------------------------

_KERNEL_ROWS = [(i, float(i % 97), str(i % 13)) for i in range(20000)]


def kernel() -> float:
    """Fixed work shaped like the engine's: arithmetic on a cache-resident
    dict, then 20 000 boxed tuples grouped, transposed and filtered."""
    acc = 0
    table = {}
    for i in range(50000):
        acc += (i * i) % 7
        table[i & 1023] = acc
    groups: dict = {}
    for _, value, key in _KERNEL_ROWS:
        if value > 10.0:
            group = groups.get(key)
            if group is None:
                groups[key] = [value, 1]
            else:
                group[0] += value
                group[1] += 1
    columns = list(zip(*_KERNEL_ROWS))
    return acc + len(groups) + sum(x for x in columns[1] if x < 50.0)


def calibration_ms() -> float:
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = _now()
        kernel()
        times.append(_now() - start)
    return statistics.median(times) * 1e3


class GcPauses:
    """Time spent in full collections, from ``gc.callbacks`` (traced run
    only: a diagnostic, never taken out of any latency)."""

    def __init__(self) -> None:
        self.total = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] < 2:
            return
        if phase == "start":
            self._started = _now()
        else:
            self.total += _now() - self._started


def full_collections() -> int:
    return gc.get_stats()[2]["collections"]


# -- result comparison ---------------------------------------------------------

def checksum(rows) -> tuple:
    """Row count and an order-insensitive hash (per-process salt is fine:
    it is only compared with results of this process)."""
    return len(rows), sum(hash(tuple(row)) for row in rows) & (2 ** 64 - 1)


def _sort_key(row) -> tuple:
    return tuple((0, "") if value is None
                 else (1, f"{value:.6g}") if isinstance(value, float)
                 else (2, str(value)) for value in row)


def rows_match(left, right) -> bool:
    """Bag equality with float tolerance, for comparing *different*
    engines (their summation orders differ in the last bits)."""
    if len(left) != len(right):
        return False
    for a, b in zip(sorted(left, key=_sort_key),
                    sorted(right, key=_sort_key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, (int, float)):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


# -- the system under test --------------------------------------------------------

def current_rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * resource.getpagesize()
    except OSError:
        return 0


class Environment:
    """One set-up of the system: schema, fixed TPC-H population, indexes
    and — for a served workload — WAL, the dashboard view, a checkpoint,
    the in-process server and one client connection.

    Flush policy: the WAL is written but not fsynced (``fsync=False``);
    the sandbox disk is not the device under test.
    """

    def __init__(self, spec: wl.Spec, scale_factor: float,
                 recorder: Recorder) -> None:
        self.spec = spec
        self.recorder = recorder
        self.path = None
        self.server = None
        self.client = None
        self.acknowledged_writes = 0
        self.statements_issued = 0
        if spec.served:
            self.path = tempfile.mkdtemp(prefix=f"{spec.name}-",
                                         dir=bootstrap.OUT_DIR)
        try:
            self.db = Database(default_engine="vectorized", path=self.path,
                               fsync=False)
            create_tpch_schema(self.db)
            rss_before = current_rss_bytes()
            with recorder.span("tpch.generate"):
                counts = generate_tpch(self.db, scale_factor,
                                       seed=wl.DATA_SEED)
            expected = wl.tpch_counts(scale_factor)
            if any(getattr(counts, table) != rows
                   for table, rows in expected.items()):
                raise RuntimeError(f"generate_tpch produced {counts}, the "
                                   f"schedules assume {expected}")
            self.base_orders = counts.orders
            self.rows_loaded = sum(vars(counts).values())
            self.load_rss_bytes = current_rss_bytes() - rss_before
            if spec.served:
                name, sql = wl.DASH_VIEW
                self.db.execute(f"create materialized view {name} as {sql}")
                self.db.checkpoint()
                self.server = QueryServer(self.db, max_workers=2).start()
                self.client = ServerClient(*self.server.address)
        except BaseException:
            self.close()
            raise

    def query(self, query: wl.Query) -> list:
        self.statements_issued += 1
        with self.recorder.span("stmt." + query.name):
            if self.client is not None:
                return self.client.query(query.sql, query.params).rows
            return self.db.execute(query.sql, params=query.params).rows

    def wal_bytes(self) -> int:
        status = self.db.durability_status()
        return status["wal_bytes"] if status is not None else 0

    def run(self, operation: wl.Operation) -> list:
        """Execute one operation; the results of its queries, in order."""
        results = [self.query(query) for query in operation.queries]
        write = operation.write
        if write is not None:
            self.client.begin()
            try:
                self.client.insert("orders", [write.order])
                self.client.insert("lineitem", list(write.lines))
                self.client.commit()
            except BaseException:
                # Leave the session usable for the next operation; a
                # failed commit has already ended the transaction.
                self.client.rollback()
                raise
            self.acknowledged_writes += 1
        return results

    def stop_serving(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self.stop_serving()
        if getattr(self, "db", None) is not None:
            self.db.close()
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


# -- correctness gate ---------------------------------------------------------------

class Checker:
    """Reference results and the per-operation check.

    The first result of every distinct (text, parameters) is compared
    with the tuple engine running the same plan; from then on every
    execution must reproduce its row count and checksum.  The served
    dashboard aggregate changes with every order written, so its expected
    rows are tracked from the base tables forward instead.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.tuple_engine = PhysicalExecutor(env.db.storage)
        self.references: dict = {}
        self.mismatches: list[str] = []
        #: seconds the tuple engine spent per statement name (the traced
        #: run reports them as executor.physical.*)
        self.tuple_seconds: dict = {}
        self.dash: dict | None = None
        if env.spec.served:
            rows = env.db.execute(wl.PAGE_STATEMENTS["dash_aggregate"],
                                  engine="tuple", use_matviews=False).rows
            self.dash = {(flag, status): [quantity, count]
                         for flag, status, quantity, count in rows}

    def _learn(self, query: wl.Query, rows) -> bool:
        plan = self.env.db.prepare(query.sql).plan
        start = _now()
        expected = self.tuple_engine.run(plan, query.params)
        self.tuple_seconds[query.name] = _now() - start
        agrees = rows_match(rows, expected)
        if not agrees:
            self.mismatches.append(
                f"{query.name}: vectorized result differs from the tuple "
                f"engine ({len(rows)} vs {len(expected)} rows)")
        self.references[(query.sql, query.params)] = (
            checksum(rows) if agrees else None)
        return agrees

    def check_query(self, query: wl.Query, rows) -> bool:
        if self.dash is not None and query.name == "dash_aggregate":
            expected = [(*key, *value) for key, value in self.dash.items()]
            agrees = rows_match(rows, expected)
            if not agrees:
                self.mismatches.append("dash_aggregate: view contents "
                                       "differ from the orders written")
            return agrees
        key = (query.sql, query.params)
        if key not in self.references:
            return self._learn(query, rows)
        agrees = self.references[key] == checksum(rows)
        if not agrees and self.references[key] is not None:
            self.mismatches.append(f"{query.name}: result changed between "
                                   "executions of one statement")
        return agrees

    def check(self, operation: wl.Operation, results) -> bool:
        agrees = all([self.check_query(query, rows)
                      for query, rows in zip(operation.queries, results)])
        if operation.write is not None and self.dash is not None:
            for line in operation.write.lines:
                group = self.dash.setdefault((line[8], line[9]), [0.0, 0])
                group[0] += line[4]
                group[1] += 1
        return agrees

    def learn_ahead(self, rounds) -> None:
        """Reference results for the distinct statements of ``rounds``,
        executed untimed (writes are left to the timed phase)."""
        for operations in rounds:
            for operation in operations:
                for query in operation.queries:
                    if (query.sql, query.params) not in self.references:
                        self.check_query(query, self.env.query(query))


class Preflight:
    """The naive-interpreter oracle on a tiny population.

    The plan under test is the one compiled against the full-size
    database: ``Database.execute(snapshot=...)`` runs it over the tiny
    tables, and ``mode="naive"`` interprets the bound tree there.
    """

    def __init__(self) -> None:
        self.tiny = Database()
        create_tpch_schema(self.tiny)
        generate_tpch(self.tiny, TINY_SCALE, seed=wl.DATA_SEED)
        self.checked = 0
        self.mismatches: list[str] = []

    def check(self, env: Environment, query: wl.Query) -> bool:
        if query.name in wl.QUERIES and query.name not in NAIVE_FEASIBLE:
            return True
        expected = self.tiny.execute(query.sql, "naive", query.params).rows
        got = env.db.execute(query.sql, params=query.params,
                             snapshot=self.tiny.storage.snapshot()).rows
        self.checked += 1
        agrees = rows_match(got, expected)
        if not agrees:
            self.mismatches.append(f"{query.name}: optimized plan differs "
                                   "from the naive interpreter")
        return agrees


# -- samples and end-to-end metrics --------------------------------------------------

@dataclass
class Samples:
    """What one timed phase observed."""

    latencies: dict = field(default_factory=dict)  # class -> [seconds]
    rounds: list = field(default_factory=list)     # seconds in operations
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    #: the fixed kernel just before and just after the phase
    calibration_ms: tuple = (0.0, 0.0)
    #: full collections that began inside an operation and, in a traced
    #: run, how long they paused it
    gc_collections: int = 0
    gc_pause: float = 0.0
    #: operation ids of this phase, per class and per round (they join
    #: spans to classes and rounds)
    ops: dict = field(default_factory=dict)
    round_ops: list = field(default_factory=list)
    #: plan-cache lookups made by the operations themselves (the
    #: checker's own lookups are not the workload's)
    cache_hits: int = 0
    cache_misses: int = 0
    writes: int = 0
    wal_bytes: int = 0

    def medians(self) -> dict:
        return {name: statistics.median(values)
                for name, values in self.latencies.items()}


def end_to_end(spec: wl.Spec, samples: Samples, setup_s: float) -> dict:
    medians = samples.medians()
    shares = {name: spec.classes[name] for name in medians}
    return {
        "setup_s": setup_s,
        "throughput_qps":
            sum(shares.values()) / statistics.median(samples.rounds),
        "latency_geomean_ms": geomean(list(medians.values())) * 1e3,
        "latency_p50_ms": weighted_quantile(medians, shares, 0.5) * 1e3,
        "latency_p90_ms": weighted_quantile(medians, shares, 0.9) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- the run ------------------------------------------------------------------------

@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: list


class Run:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, started: float) -> None:
        self.spec = wl.SPECS[workload]
        self.seed = seed
        self.trace = trace
        self.smoke = smoke
        #: ``time.perf_counter()`` when the process began: set-up counts
        #: from there, imports included
        self.started = started
        #: Fixed here, once: the timed loop never looks at a clock to
        #: decide how much work to do, so a faster build does the same
        #: operations on the same tables and every count repeats.
        self.rounds = (SMOKE_ROUNDS if smoke else max(
            MIN_ROUNDS,
            round(self.spec.rounds * seconds / wl.REFERENCE_SECONDS)))
        self.scale_factor = (wl.SMOKE_SCALE if smoke
                             else self.spec.scale_factor)
        self.recorder = Recorder()
        self.pauses = GcPauses()
        self.digest = wl.ScheduleDigest()
        self.schedule = wl.rounds(workload, seed, self.scale_factor, smoke)
        self.env: Environment | None = None
        self.checker: Checker | None = None
        self.preflight: Preflight | None = None
        self.preflight_rounds = 0
        self.next_op = 0
        self.last_round: list = []

    # -- phases ---------------------------------------------------------------

    def set_up(self) -> float:
        """Build the environment and run the warm-up rounds that fill the
        plan cache; seconds since the process started."""
        warm = [next(self.schedule) for _ in range(self.spec.warm_rounds)]
        self.env = Environment(self.spec, self.scale_factor, self.recorder)
        for operations in warm:
            for operation in operations:
                self.env.run(operation)
                self.digest.add(operation)
        setup_s = _now() - self.started
        # Warm-up results go unchecked; the gate re-runs every statement.
        self.checker = Checker(self.env)
        return setup_s

    def gate(self) -> list:
        """Untimed: generate the rounds to be timed, check one round
        against the naive interpreter and take a reference result for
        every distinct statement."""
        self.preflight = Preflight()
        rounds = [next(self.schedule) for _ in range(self.rounds)]
        if self.spec.warm_rounds:
            tiny_round = next(wl.rounds(self.spec.name, self.seed,
                                        TINY_SCALE, self.smoke))
            for operation in tiny_round:
                for query in operation.queries:
                    self.preflight.check(self.env, query)
            self.checker.learn_ahead(rounds)
        else:
            # Every statement is new text: the first timed round is
            # checked against the oracle right after it ran.
            self.preflight_rounds = 1
        return rounds

    def timed_phase(self, rounds: list) -> Samples:
        samples = Samples()
        recorder, env = self.recorder, self.env
        before = calibration_ms()
        collections, pauses = full_collections(), self.pauses
        cache = env.db.plan_cache.stats
        phase_start = _now()
        for operations in rounds:
            gc.collect()
            round_seconds = 0.0
            samples.round_ops.append([])
            for operation in operations:
                self.digest.add(operation)
                self.next_op += 1
                recorder.op = self.next_op
                samples.ops.setdefault(operation.cls, []).append(
                    self.next_op)
                samples.round_ops[-1].append(self.next_op)
                hits, misses = cache.hits, cache.misses
                wal = env.wal_bytes() if operation.write else 0
                root = (recorder.open("bench.op") if recorder.enabled
                        else None)
                paused = pauses.total
                start = _now()
                try:
                    results = env.run(operation)
                except Exception:  # the loop must outlive a failed op
                    traceback.print_exc(file=sys.stderr)
                    results = None
                latency = _now() - start
                samples.gc_pause += pauses.total - paused
                if root is not None:
                    recorder.close(root)
                samples.cache_hits += cache.hits - hits
                samples.cache_misses += cache.misses - misses
                if operation.write:
                    samples.writes += 1
                    samples.wal_bytes += max(env.wal_bytes() - wal, 0)
                agrees = (results is not None
                          and self.checker.check(operation, results))
                if agrees and self.preflight_rounds:
                    agrees = all([self.preflight.check(env, query)
                                  for query in operation.queries])
                samples.attempted += 1
                samples.failed += not agrees
                samples.latencies.setdefault(operation.cls, []).append(
                    latency)
                round_seconds += latency
            recorder.op = None
            samples.rounds.append(round_seconds)
            self.last_round = operations
            self.preflight_rounds = max(self.preflight_rounds - 1, 0)
        samples.wall = _now() - phase_start
        samples.gc_collections = (full_collections() - collections
                                  - len(rounds))
        samples.calibration_ms = (before, calibration_ms())
        return samples

    def durability_check(self) -> tuple[int, float]:
        """Close everything, reopen from ``path`` alone and count the
        orders: every acknowledged write must be there with its lines.
        Returns (writes lost, seconds the reopen took)."""
        env = self.env
        env.stop_serving()
        env.db.close()
        start = _now()
        reopened = Database(default_engine="vectorized", path=env.path,
                            fsync=False)
        recover_s = _now() - start
        try:
            orders = reopened.execute(
                "select count(*) from orders where o_orderkey > ?",
                params=(env.base_orders,)).scalar()
            lines = reopened.execute(
                "select count(*) from lineitem where l_orderkey > ?",
                params=(env.base_orders,)).scalar()
        finally:
            reopened.close()
        lost = env.acknowledged_writes - min(
            orders, lines // wl.LINES_PER_ORDER)
        return max(lost, 0), recover_s

    # -- driver --------------------------------------------------------------------

    def execute(self) -> Outcome:
        bootstrap.OUT_DIR.mkdir(exist_ok=True)
        if self.trace:
            gc.callbacks.append(self.pauses)
            instrument(self.recorder)
            self.recorder.enabled = True
        try:
            return self._execute()
        finally:
            if self.trace:
                gc.callbacks.remove(self.pauses)
            if self.env is not None:
                self.env.close()

    def _execute(self) -> Outcome:
        setup_s = self.set_up()  # recorded when tracing; the gate is not
        self.check_shapes()
        self.recorder.enabled = False
        rounds = self.gate()
        if self.trace:
            # A quiet phase (wrappers installed but idle) gives this run's
            # own untraced numbers; the recording phase gives the spans.
            cut = max(round(len(rounds) * QUIET_SHARE), 1)
            quiet = self.timed_phase(rounds[:cut])
            self.recorder.enabled = True
            traced = self.timed_phase(rounds[cut:])
            self.recorder.enabled = False
            phases = [quiet, traced]
            probes = layers.probe(self)
        else:
            quiet = self.timed_phase(rounds)
            phases = [quiet]
        metrics = end_to_end(self.spec, quiet, setup_s)
        lost, recover_s = (self.durability_check() if self.spec.served
                           else (0, 0.0))
        attempted = sum(phase.attempted for phase in phases)
        failed = sum(phase.failed for phase in phases) + lost
        report: list[str] = []
        self.describe(report, quiet, metrics, attempted, failed, lost)
        if self.trace:
            metrics = layers.per_layer(self, quiet, traced, probes,
                                       recover_s)
            trace_path = bootstrap.OUT_DIR / f"{self.spec.name}.trace.json"
            self.recorder.dump(trace_path)
            report.append(f"trace: {len(self.recorder.spans)} spans -> "
                          f"{trace_path}")
            report.extend(layers.describe(metrics))
        return Outcome(failed == 0, attempted, failed, metrics, report)

    def check_shapes(self) -> None:
        """residual_apply is only what it claims while every one of its
        plans still contains an Apply the normalizer could not remove."""
        if self.spec.name != "residual_apply":
            return
        for shape, sql in wl.RESIDUAL_SHAPES.items():
            plan = explain_physical(self.env.db.prepare(sql).plan)
            if "NLApply" not in plan:
                raise RuntimeError(
                    f"residual_apply shape {shape!r} no longer keeps its "
                    f"Apply; the workload needs a new shape:\n{plan}")

    def describe(self, report: list, samples: Samples, metrics: dict,
                 attempted: int, failed: int, lost: int) -> None:
        spec = self.spec
        report.append(f"workload {spec.name}  seed {self.seed}  "
                      f"scale factor {self.scale_factor}  "
                      f"rounds {len(samples.rounds)}  "
                      f"timed wall {samples.wall:.2f} s")
        report.append(f"why: {spec.why}")
        for name, value in metrics.items():
            report.append(f"  {name:<22}{value:>14.4f} {UNITS[name]}")
        before, after = samples.calibration_ms
        report.append(f"  calibration kernel: {before:.3f} ms before, "
                      f"{after:.3f} ms after the timed phase "
                      "(machine drift; nothing is scaled by it)")
        report.append(f"  full collections in the timed phase: "
                      f"{samples.gc_collections} (their pauses are part of "
                      "the latencies)")
        report.append("  class            n   median ms   p90 ms (diag.)")
        pooled: list = []
        for name, values in sorted(samples.latencies.items()):
            pooled.extend(values)
            p90 = (statistics.quantiles(values, n=10)[-1]
                   if len(values) > 1 else values[0])
            report.append(f"  {name:<14}{len(values):>5}"
                          f"{statistics.median(values) * 1e3:>12.3f}"
                          f"{p90 * 1e3:>9.3f}")
        if len(pooled) >= 100:
            cuts = statistics.quantiles(pooled, n=100)
            report.append(f"  pooled raw p95 {cuts[94] * 1e3:.3f} ms, p99 "
                          f"{cuts[98] * 1e3:.3f} ms (diagnostic, not gated)")
        report.append(
            f"  operations attempted {attempted}, failed {failed}"
            + (f" ({lost} acknowledged writes lost)" if lost else ""))
        report.append(
            f"  correctness: {len(self.checker.references)} statements "
            f"cross-checked against the tuple engine, "
            f"{self.preflight.checked} against the naive interpreter")
        mismatches = self.checker.mismatches + self.preflight.mismatches
        for line in dict.fromkeys(mismatches):
            report.append(f"  MISMATCH x{mismatches.count(line)} {line}")
        report.append(f"  schedule sha256 {self.digest.hexdigest()}")
