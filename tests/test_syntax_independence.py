"""Experiment E7 — syntax independence (paper Section 1.2).

The three equivalent SQL formulations of the Section 1.1 query must
produce the same optimized execution strategy and identical results.
Plan comparison ignores column identities only; every operator — which
table is scanned, where the aggregate sits, which access path joins
customers, each projection — must match.
"""

import re

import pytest

from repro import FULL, Database, DataType
from repro.physical import explain_physical
from repro.tpch import paper_example_formulations


def plan_skeleton(plan) -> str:
    return re.sub(r"#\d+", "#x", explain_physical(plan))


@pytest.fixture(scope="module")
def db() -> Database:
    database = Database()
    database.create_table(
        "customer",
        [("c_custkey", DataType.INTEGER, False),
         ("c_name", DataType.VARCHAR, False)],
        primary_key=("c_custkey",))
    database.create_table(
        "orders",
        [("o_orderkey", DataType.INTEGER, False),
         ("o_custkey", DataType.INTEGER, False),
         ("o_totalprice", DataType.FLOAT, False)],
        primary_key=("o_orderkey",))
    database.create_index("ix_orders_custkey", "orders", ["o_custkey"])
    database.insert("customer",
                    [(i, f"c{i}") for i in range(1, 201)])
    rows = []
    key = 0
    for c in range(1, 201):
        for j in range(8):
            key += 1
            rows.append((key, c, float(((c * 7 + j) % 50) * 40000)))
    database.insert("orders", rows)
    return database


def test_three_formulations_one_plan(db):
    formulations = paper_example_formulations(500000.0)
    skeletons = {}
    results = {}
    for label, sql in formulations.items():
        skeletons[label] = plan_skeleton(db.plan(sql, FULL))
        results[label] = sorted(db.execute(sql, FULL).rows)

    reference_label = next(iter(formulations))
    for label in formulations:
        assert results[label] == results[reference_label]
        assert skeletons[label] == skeletons[reference_label], (
            f"{label} diverged:\n{skeletons[label]}\n--- vs ---\n"
            f"{skeletons[reference_label]}")


def test_results_nonempty(db):
    # guard against a trivially-empty comparison
    sql = next(iter(paper_example_formulations(500000.0).values()))
    assert len(db.execute(sql, FULL).rows) > 0
