"""One memo per statement: the pushed-down tree and its SegmentApply
variants share one search, and join commute/associate inside it choose
the join order by cost."""

import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL, NAIVE, Database, DataType, QueryTimeout
from repro import ResourceGovernor
from repro.core.normalize import normalize
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.optimizer import optimizer as optimizer_module
from repro.core.optimizer.memo import Memo
from repro.physical.plan import (PHashJoin, PIndexSeek, PNestedLoopsJoin,
                                 PNLApply, PSegmentApply, PTableScan)
from repro.sql import parse

THREE_WAY = "select bk, mk, tk from big, mid, tiny where mk = bk and tk = mf"

Q17_SHAPE = """
    select sum(l_quantity) from lineitem, part
    where p_partkey = l_partkey and p_brand = 'Brand#1'
      and l_quantity < (select 0.5 * avg(l2.l_quantity)
                        from lineitem l2
                        where l2.l_partkey = p_partkey)"""


@pytest.fixture(scope="module")
def join_db():
    db = Database()
    db.create_table("big", [("bk", DataType.INTEGER, False),
                            ("bv", DataType.INTEGER, False)],
                    primary_key=("bk",))
    db.create_table("mid", [("mk", DataType.INTEGER, False),
                            ("mf", DataType.INTEGER, False)],
                    primary_key=("mk",))
    db.create_table("tiny", [("tk", DataType.INTEGER, False)],
                    primary_key=("tk",))
    db.insert("big", [(i, i % 7) for i in range(3000)])
    db.insert("mid", [(i, i % 5) for i in range(200)])
    db.insert("tiny", [(i,) for i in range(3)])
    return db


@pytest.fixture(scope="module")
def q17_db():
    db = Database()
    db.create_table("lineitem",
                    [("l_orderkey", DataType.INTEGER, False),
                     ("l_partkey", DataType.INTEGER, False),
                     ("l_linenumber", DataType.INTEGER, False),
                     ("l_quantity", DataType.FLOAT, False)],
                    primary_key=("l_orderkey", "l_linenumber"))
    db.create_table("part",
                    [("p_partkey", DataType.INTEGER, False),
                     ("p_brand", DataType.VARCHAR, False)],
                    primary_key=("p_partkey",))
    db.insert("lineitem", [(i // 3 + 1, i % 10 + 1, i % 3 + 1,
                            float(i % 7 + 1)) for i in range(600)])
    db.insert("part", [(i, f"Brand#{i % 3}") for i in range(1, 11)])
    return db


def normalized(db, sql):
    return normalize(db._binder.bind(parse(sql)).rel)


def optimizer_for(db, config=None, governor=None):
    return Optimizer(db._stats_provider, db._index_provider, config,
                     governor=governor)


def walk(plan):
    yield plan
    for child in plan.children:
        yield from walk(child)


def tables_read(plan):
    return {node.table_name for node in walk(plan)
            if isinstance(node, (PTableScan, PIndexSeek))}


@pytest.fixture
def search_log(monkeypatch):
    """Records every explored memo and every top-level ``insert_tree``
    call (not the recursive ones for children) as
    ``(memo, target_group, returned_group)``."""
    log = {"memos": [], "inserts": []}
    depth = [0]
    explore = optimizer_module.Optimizer._explore
    insert_tree = Memo.insert_tree

    def spy_explore(self, memo):
        log["memos"].append(memo)
        explore(self, memo)

    def spy_insert_tree(self, rel, target_group=None):
        depth[0] += 1
        try:
            group = insert_tree(self, rel, target_group)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            log["inserts"].append((self, target_group, group))
        return group

    monkeypatch.setattr(optimizer_module.Optimizer, "_explore", spy_explore)
    monkeypatch.setattr(Memo, "insert_tree", spy_insert_tree)
    return log


def targeted(log):
    return [entry for entry in log["inserts"] if entry[1] is not None]


class TestOneMemo:
    def test_join_statement_explores_one_memo(self, join_db, search_log):
        optimizer_for(join_db).optimize(normalized(join_db, THREE_WAY))
        assert len(search_log["memos"]) == 1
        assert targeted(search_log) == []

    def test_segment_variants_join_the_root_group(self, q17_db, search_log):
        costed = optimizer_for(q17_db).optimize_with_cost(
            normalized(q17_db, Q17_SHAPE))
        # the statement's memo, then one for the SegmentApply inner
        memos = search_log["memos"]
        assert len(memos) == 2
        outer = memos[0]
        # the pushed-down tree creates the root group; each variant is
        # then added to it
        memo, target, root = search_log["inserts"][0]
        assert memo is outer and target is None
        variants = targeted(search_log)
        assert variants
        for memo, target, group in variants:
            assert memo is outer
            assert target == group == root
        assert any(isinstance(node, PSegmentApply)
                   for node in walk(costed.plan))

    def test_segment_apply_off_adds_no_alternatives(self, q17_db,
                                                    search_log):
        config = OptimizerConfig(segment_apply=False)
        plan = optimizer_for(q17_db, config).optimize(
            normalized(q17_db, Q17_SHAPE))
        assert len(search_log["memos"]) == 1
        assert targeted(search_log) == []
        assert not any(isinstance(node, PSegmentApply)
                       for node in walk(plan))

    def test_exploration_enforces_the_deadline(self, join_db):
        governor = ResourceGovernor(timeout=0)
        governor.start()
        time.sleep(0.001)
        with pytest.raises(QueryTimeout):
            optimizer_for(join_db, governor=governor).optimize(
                normalized(join_db, THREE_WAY))


class TestJoinOrder:
    def test_big_table_is_joined_last(self, join_db):
        plan = optimizer_for(join_db).optimize(
            normalized(join_db, THREE_WAY))
        joins = [node for node in walk(plan) if isinstance(
            node, (PHashJoin, PNestedLoopsJoin, PNLApply))]
        assert len(joins) == 2
        # the deepest join pairs the two small tables
        assert tables_read(joins[-1]) == {"mid", "tiny"}

    def test_reordering_never_costs_more(self, join_db):
        fixed = optimizer_for(
            join_db, OptimizerConfig(join_reorder=False)).optimize_with_cost(
                normalized(join_db, THREE_WAY))
        searched = optimizer_for(join_db).optimize_with_cost(
            normalized(join_db, THREE_WAY))
        assert searched.cost <= fixed.cost

    def test_output_columns_preserved(self, join_db):
        rel = normalized(join_db, THREE_WAY)
        plan = optimizer_for(join_db).optimize(rel)
        assert [column.cid for column in plan.columns] == \
            [column.cid for column in rel.output_columns()]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(a_rows=st.lists(st.integers(0, 3), max_size=5),
       b_rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       max_size=6),
       c_rows=st.lists(st.integers(0, 3), max_size=5))
def test_reordering_preserves_results(a_rows, b_rows, c_rows):
    db = Database()
    db.create_table("a", [("ak", DataType.INTEGER, False)])
    db.create_table("b", [("bk", DataType.INTEGER, False),
                          ("bf", DataType.INTEGER, False)])
    db.create_table("c", [("ck", DataType.INTEGER, False)])
    db.insert("a", [(k,) for k in a_rows])
    db.insert("b", b_rows)
    db.insert("c", [(k,) for k in c_rows])
    sql = "select ak, bk, bf, ck from a, b, c where ak = bk and ck = bf"
    reference = Counter(db.execute(sql, NAIVE).rows)
    assert Counter(db.execute(sql, FULL).rows) == reference
