"""Golden plan snapshots: the optimizer's output, pinned.

Each golden file under ``tests/goldens/`` holds the
:func:`~repro.algebra.printer.plan_signature` of the FULL-mode physical
plan for one query — all 22 TPC-H templates (Q2 and Q17 are the paper's
two running examples) and the three Figure 4 formulations of the
Section 1.1 query.  Signatures normalize column ids to first-appearance
ordinals, so they are stable across processes and sessions — a second
interpreter with another ``PYTHONHASHSEED`` must reproduce every one;
the plans themselves are engine-independent (the tuple and vectorized
engines compile the same physical tree).

An intentional optimizer change updates the snapshots with::

    pytest tests/test_golden_plans.py --update-goldens

and the resulting diff documents exactly how the plans moved.  The
three Figure 4 formulations must additionally collapse to *one*
signature, so their three golden files are byte-identical (paper
Section 1.2, syntax independence).
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro import FULL, Database
from repro.algebra.printer import plan_signature
from repro.tpch import (QUERIES, create_tpch_schema, generate_tpch,
                        paper_example_formulations)

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _cases() -> dict[str, str]:
    cases = {f"tpch_{name.lower()}": sql for name, sql in QUERIES.items()}
    for name, sql in paper_example_formulations().items():
        cases[f"fig4_{_slug(name)}"] = sql
    return cases


CASES = _cases()


def make_golden_db() -> Database:
    # Deterministic instance: same seed, same stats, same plans.
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.001, seed=7)
    return db


@pytest.fixture(scope="module")
def golden_db() -> Database:
    return make_golden_db()


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_matches_golden(golden_db, name, request):
    signature = plan_signature(golden_db.plan(CASES[name], FULL)) + "\n"
    path = GOLDEN_DIR / f"{name}.plan"
    if request.config.getoption("--update-goldens"):
        path.write_text(signature)
    assert path.exists(), \
        f"missing golden {path.name}; run pytest --update-goldens"
    expected = path.read_text()
    assert signature == expected, \
        f"plan for {name} drifted from {path.name}; if intentional, " \
        f"rerun with --update-goldens and review the diff"


RECOMPILE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from repro import FULL
from repro.algebra.printer import plan_signature
from test_golden_plans import CASES, make_golden_db

db = make_golden_db()
print(json.dumps({name: plan_signature(db.plan(sql, FULL)) + "\\n"
                  for name, sql in CASES.items()}))
"""


def test_goldens_repeat_under_another_hash_seed():
    """Same text, same plan, in every process: a fresh interpreter whose
    string hashes (and so set and dict orders) differ from this one's
    compiles every case to its golden signature."""
    import repro

    seed = "4242" if os.environ.get("PYTHONHASHSEED") != "4242" else "2424"
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", RECOMPILE, src, str(GOLDEN_DIR.parent)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": seed})
    assert done.returncode == 0, done.stderr
    signatures = json.loads(done.stdout.splitlines()[-1])
    assert signatures.keys() == CASES.keys()
    drifted = [name for name, signature in signatures.items()
               if signature != (GOLDEN_DIR / f"{name}.plan").read_text()]
    assert drifted == []


def test_figure4_formulations_converge(golden_db):
    """Section 1.2: all three formulations produce the same plan, line
    for line — required-column pruning leaves no formulation its own
    stack of ComputeScalar wrappers."""
    signatures = {
        name: plan_signature(golden_db.plan(sql, FULL))
        for name, sql in paper_example_formulations().items()}
    assert len(set(signatures.values())) == 1, signatures


def test_figure4_goldens_are_byte_identical():
    """Figure 1's claim in its most literal form: the three pinned
    Figure 4 plans are one file's bytes."""
    contents = {path.name: path.read_bytes()
                for path in sorted(GOLDEN_DIR.glob("fig4_*.plan"))}
    assert len(contents) == 3
    assert len(set(contents.values())) == 1, sorted(contents)


def test_goldens_have_no_strays():
    """Every checked-in golden corresponds to a known case."""
    known = {f"{name}.plan" for name in CASES}
    present = {p.name for p in GOLDEN_DIR.glob("*.plan")}
    assert present <= known, present - known
