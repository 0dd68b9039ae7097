"""A memo group is a column set; column order is enforced only where a
consumer reads by position.

Join orders share their group, so the members of a group deliver its
columns in any order, and the implementer puts them in the group's order
only for the statement's result, a SegmentApply inner tree's result and
a SegmentApply's segmented input.  Two properties pin the design:

* every expression of every group delivers exactly the group's column-id
  set, each column once: over randomized join statements (hypothesis)
  and over the memos of the 22 TPC-H templates and the three Figure-4
  formulations;
* the chosen plan delivers the bound statement's columns in the
  statement's order, and the tuple and vectorized engines return the
  same rows, which are the naive interpreter's wherever it finishes at
  SF 0.0001 (the templates ``test_tpch.py`` lists; the others are 3+-way
  cross products to it) and for the Figure-4 formulations.
"""

import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL, NAIVE, Database, DataType
from repro.core.optimizer import optimizer as optimizer_module
from repro.tpch import (QUERIES, create_tpch_schema, generate_tpch,
                        paper_example_formulations)

CASES = {**QUERIES, **paper_example_formulations()}

#: Templates the naive interpreter finishes at SF 0.0001.
NAIVE_FEASIBLE = ("Q1", "Q4", "Q6", "Q11", "Q12", "Q13", "Q14", "Q15",
                  "Q16", "Q17", "Q19", "Q22")


@contextmanager
def explored_memos():
    """Collect every memo the optimizer explores inside the block."""
    memos = []
    explore = optimizer_module.Optimizer._explore

    def spy(self, memo):
        explore(self, memo)
        memos.append(memo)

    with mock.patch.object(optimizer_module.Optimizer, "_explore", spy):
        yield memos


def column_set_violations(memo):
    """(group, expression) pairs whose output is not the group's column
    set with each column once."""
    found = []
    for group in memo.groups:
        expected = sorted(c.cid for c in group.columns)
        assert len(set(expected)) == len(expected)
        for expr in group.exprs:
            delivered = sorted(c.cid for c in expr.op.output_columns())
            if delivered != expected:
                found.append((group.group_id, expr.op.label()))
    return found


def compiled_order(db, sql):
    """The chosen plan's result columns and the bound statement's."""
    entry = db.prepare(sql, FULL)._entry()
    assert entry.plan is not None and not entry.degraded
    return ([c.cid for c in entry.plan.columns],
            [c.cid for c in entry.rel.output_columns()])


def rows_on(db, sql, mode=FULL, engine=None):
    return Counter(tuple(round(v, 6) if isinstance(v, float) else v
                         for v in row)
                   for row in db.execute(sql, mode, engine=engine).rows)


@pytest.fixture(scope="module")
def tiny_tpch_db():
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.0001, seed=11)
    return db


@pytest.mark.parametrize("name", list(CASES))
def test_templates_keep_column_sets_and_result_order(tiny_tpch_db, name):
    db = tiny_tpch_db
    sql = CASES[name]
    with explored_memos() as memos:
        delivered, statement = compiled_order(db, sql)
    assert memos
    for memo in memos:
        assert column_set_violations(memo) == []
    assert delivered == statement
    rows = rows_on(db, sql, engine="tuple")
    assert rows_on(db, sql, engine="vectorized") == rows
    if name in NAIVE_FEASIBLE or name not in QUERIES:
        assert rows_on(db, sql, NAIVE) == rows


TABLES = 4


def star_chain_database(data):
    db = Database()
    for i in range(TABLES):
        db.create_table(f"t{i}", [(f"k{i}", DataType.INTEGER, False),
                                  (f"f{i}", DataType.INTEGER, False)])
        db.insert(f"t{i}", data[i])
    return db


rows_strategy = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         max_size=5)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.lists(rows_strategy, min_size=TABLES, max_size=TABLES),
       seed=st.integers(0, 10_000), grouped=st.booleans())
def test_random_joins_keep_column_sets_and_result_order(data, seed,
                                                        grouped):
    # A random join tree over three or four tables (each joins an
    # earlier one), its select list a random order of some columns,
    # optionally aggregated: the shapes whose join orders share groups.
    rng = random.Random(seed)
    count = rng.randint(3, TABLES)
    tables = list(range(count))
    rng.shuffle(tables)
    where = [f"k{t} = f{rng.choice(tables[:i])}"
             for i, t in enumerate(tables) if i]
    columns = [f"{c}{t}" for t in tables for c in "kf"]
    rng.shuffle(columns)
    picked = columns[:rng.randint(1, len(columns))]
    source = (f"from {', '.join(f't{t}' for t in tables)} "
              f"where {' and '.join(where)}")
    if grouped:
        sql = (f"select {', '.join(picked)}, count(*) as n {source} "
               f"group by {', '.join(picked)}")
    else:
        sql = f"select {', '.join(picked)} {source}"
    db = star_chain_database(data)
    with explored_memos() as memos:
        delivered, statement = compiled_order(db, sql)
    for memo in memos:
        assert column_set_violations(memo) == []
    assert delivered == statement
    rows = rows_on(db, sql, NAIVE)
    assert rows_on(db, sql, engine="tuple") == rows
    assert rows_on(db, sql, engine="vectorized") == rows
