"""The benchmark's span recorder still finds every layer it patches.

``benchmarks/e2e/spans.py`` lives outside ``src/`` and replaces ``parse``
and ``normalize`` *as globals of* ``repro.database`` (reading the SQL
text / bound tree from ``args[0]``), plus entry points on the binder,
optimizer, executor and ``Database``.  Moving a patched call site to
another module would not fail anything — it would silently report
``sql.parse_ms`` as zero.  This test makes that a tier-1 failure: one new
statement must cross every compile layer once, a cached one only the
executor.  A subprocess, because ``instrument`` patches classes for the
life of the interpreter.
"""

import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from repro import Database, DataType

recorder = spans.Recorder()
spans.instrument(recorder)
db = Database(default_engine="vectorized")
db.create_table("t", [("a", DataType.INTEGER, False)], primary_key=("a",))
db.insert("t", [(i,) for i in range(10)])
recorder.enabled = True
runs = []
for _ in range(2):
    del recorder.spans[:]
    rows = db.execute(sys.argv[2]).rows
    runs.append(sorted(span.name for span in recorder.spans))
print(json.dumps({"runs": runs, "rows": rows,
                  "chars": recorder.counts["sql.chars"],
                  "statements": recorder.counts["optimizer.statements"]}))
"""

STATEMENT = "select count(*) from t where a > 3"
EXECUTION = ["database.execute", "executor.vectorized.run"]
COMPILATION = ["binder.bind", "core.normalize", "core.optimizer.optimize",
               "executor.vectorized.prepare", "sql.parse"]


def test_new_statement_crosses_every_patched_layer_cached_one_none():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH_DIR), STATEMENT],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["rows"] == [[6]]
    first, second = seen["runs"]
    assert first == sorted(COMPILATION + EXECUTION)
    assert second == EXECUTION
    assert seen["chars"] == len(STATEMENT)
    assert seen["statements"] == 1  # optimize_with_cost entered once
