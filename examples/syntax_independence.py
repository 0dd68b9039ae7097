"""Syntax independence (paper Section 1.2, Figure 1).

"The query processor should then produce the same efficient execution plan
for the various equivalent SQL formulations ... achieving a degree of
syntax-independence."

The three formulations of the Section 1.1 query — correlated subquery,
outerjoin-then-aggregate, aggregate-then-join — are optimized and shown to
produce the same physical plan, line for line, and identical results.

Run:  python examples/syntax_independence.py
"""

import re

from repro import FULL
from repro.bench import tpch_database
from repro.physical import explain_physical
from repro.tpch import paper_example_formulations

SCALE_FACTOR = 0.005


def plan_shape(plan) -> str:
    """Physical plan text normalized for comparison: column ids replaced
    (each formulation binds its own columns)."""
    return re.sub(r"#\d+", "#x", explain_physical(plan))


def main() -> None:
    db = tpch_database(SCALE_FACTOR)
    formulations = paper_example_formulations(1000000.0)

    shapes = {}
    results = {}
    for label, sql in formulations.items():
        plan = db.plan(sql, FULL)
        shapes[label] = plan_shape(plan)
        results[label] = sorted(db.execute(sql, FULL).rows)

    first_label = next(iter(shapes))
    print(f"physical plan for: {first_label}")
    print()
    print(shapes[first_label])
    print()

    reference_shape = shapes[first_label]
    reference_rows = results[first_label]
    for label in formulations:
        same_plan = shapes[label] == reference_shape
        same_rows = results[label] == reference_rows
        print(f"{label:<32} same plan: {str(same_plan):<6} "
              f"same result: {same_rows} ({len(results[label])} rows)")

    if all(shapes[label] == reference_shape for label in formulations):
        print("\nsyntax independence achieved: one plan, three syntaxes.")
    else:
        print("\nplans differ in shape (but results agree) — see "
              "EXPERIMENTS.md for discussion.")


if __name__ == "__main__":
    main()
