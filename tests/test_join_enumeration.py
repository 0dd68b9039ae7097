"""Exact join enumeration (``core/optimizer/joinenum.py``).

The DPccp enumerator is checked against the closed-form numbers of
csg-cmp pairs for chains, stars, cycles and cliques (Moerkotte &
Neumann, VLDB 2006), under several node numberings, and every pair it
emits against the definition: disjoint, both sides connected, joined by
an edge, each unordered pair once, each side entered before it is used.
In the memo, each connected subset of a cluster is one group, conjuncts
sit on the lowest join that covers them, index-induced edges keep the
cross product that feeds a composite-key seek, and a 14-way star query
compiles within the memo budget and returns the naive interpreter's
rows.  The budget itself is pinned: no TPC-H template and no Figure-4
formulation reaches ``max_memo_exprs``.  A conjunct that reads a single
leaf (a correlation kept on a join, a semijoin's outer-only ON
conjunct) stays on every enumerated order, checked against the naive
interpreter with and without the strict analyzer, and an enumeration
that drops conjuncts fails a strict statement instead of degrading it.
"""

import random

import pytest

from repro import FULL, NAIVE, Database, DataType
from repro.algebra import Join, JoinKind, equals
from repro.core.normalize import normalize
from repro.core.optimizer import Estimator, OptimizerConfig
from repro.core.optimizer import optimizer as optimizer_module
from repro.core.optimizer.joinenum import (JoinSpace, csg_cmp_pairs,
                                           join_pairs)
from repro.core.optimizer.memo import Memo
from repro.core.optimizer.rules import JoinEnumerate
from repro.sql import parse
from repro.tpch import (QUERIES, create_tpch_schema, generate_tpch,
                        paper_example_formulations)

from .helpers import customer_scan, orders_scan


def graph(n, edges):
    neighbours = [0] * n
    for a, b in edges:
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    return neighbours


def chain(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return graph(n, [(0, i) for i in range(1, n)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


CLOSED_FORMS = {
    chain: lambda n: (n ** 3 - n) // 6,
    star: lambda n: (n - 1) * 2 ** (n - 2),
    cycle: lambda n: (n ** 3 - 2 * n ** 2 + n) // 2,
    clique: lambda n: (3 ** n - 2 ** (n + 1) + 1) // 2,
}


def renumbered(neighbours, order):
    """The same graph with node ``order[i]`` numbered ``i``."""
    position = {node: i for i, node in enumerate(order)}
    edges = [(position[a], position[b])
             for a in range(len(neighbours))
             for b in range(len(neighbours)) if neighbours[a] >> b & 1]
    return graph(len(neighbours), edges)


def numberings(n):
    rng = random.Random(n)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    return [list(range(n)), list(reversed(range(n))), shuffled]


def connected(neighbours, nodes):
    start = nodes & -nodes
    reached = frontier = start
    while frontier:
        grown = 0
        for i in range(len(neighbours)):
            if frontier >> i & 1:
                grown |= neighbours[i]
        frontier = grown & nodes & ~reached
        reached |= frontier
    return reached == nodes


def adjacent(neighbours, left, right):
    return any(left >> i & 1 and neighbours[i] & right
               for i in range(len(neighbours)))


@pytest.mark.parametrize("shape,n", [
    (shape, n) for shape in CLOSED_FORMS for n in range(2, 8)
    if shape is not cycle or n >= 3],  # a cycle needs three nodes
    ids=lambda value: getattr(value, "__name__", str(value)))
def test_pair_counts_match_the_closed_forms(shape, n):
    for order in numberings(n):
        neighbours = renumbered(shape(n), order)
        assert len(list(csg_cmp_pairs(neighbours))) == \
            CLOSED_FORMS[shape](n)


@pytest.mark.parametrize("shape", list(CLOSED_FORMS),
                         ids=lambda shape: shape.__name__)
def test_every_pair_is_a_csg_cmp_pair_entered_once(shape):
    n = 6
    for order in numberings(n):
        neighbours = renumbered(shape(n), order)
        seen = set()
        unions = set()
        for left, right in csg_cmp_pairs(neighbours):
            assert left and right and not left & right
            assert connected(neighbours, left)
            assert connected(neighbours, right)
            assert adjacent(neighbours, left, right)
            pair = frozenset((left, right))
            assert pair not in seen
            seen.add(pair)
            # DP order: each side is one node or a union entered before.
            for side in (left, right):
                assert side & (side - 1) == 0 or side in unions
            unions.add(left | right)
        expected = {nodes for nodes in range(1, 1 << n)
                    if nodes & (nodes - 1) and connected(neighbours, nodes)}
        assert unions == expected


def test_disconnected_graph_joins_components_by_cross_products():
    # Components {0, 1}, {2} and {3, 4}: one pair inside each
    # two-node component, then the three components as a clique.
    neighbours = graph(5, [(0, 1), (3, 4)])
    pairs = list(join_pairs(neighbours))
    assert len(pairs) == 1 + 1 + CLOSED_FORMS[clique](3)
    unions = set()
    for left, right in pairs:
        for side in (left, right):
            assert side & (side - 1) == 0 or side in unions
        unions.add(left | right)
    assert unions == {0b00011, 0b11000, 0b00111, 0b11011, 0b11100, 0b11111}


# -- clusters in the memo ------------------------------------------------------

def make_memo(indexes=None):
    return Memo(lambda group_lookup=None: Estimator(lambda name: None,
                                                    group_lookup),
                indexes=indexes)


def enumerate_tree(tree, indexes=None):
    memo = make_memo(indexes)
    root = memo.insert_tree(tree)
    JoinEnumerate().apply(memo.group(root).exprs[0].op, memo)
    return memo, root


def leaf_sets(memo):
    space = JoinSpace.of(memo)
    return [frozenset(leaves) for leaves, _ in space.clusters.values()]


def test_each_connected_subset_is_one_group():
    scans = [orders_scan() for _ in range(5)]
    tree = scans[0][0]
    for (get, cols), (_, prev) in zip(scans[1:], scans):
        tree = Join(JoinKind.INNER, tree, get, equals(cols[1], prev[0]))
    memo, root = enumerate_tree(tree)
    sets = leaf_sets(memo)
    # A chain of five has 10 connected subsets of two or more leaves.
    assert len(sets) == len(set(sets)) == 10
    joins = [e for g in memo.groups for e in g.exprs
             if isinstance(e.op, Join)]
    # Both orders of each of the chain's 20 csg-cmp pairs.
    assert len(joins) == 2 * CLOSED_FORMS[chain](5)


def test_index_edges_keep_the_composite_seek_cross_product():
    # part ⋈ lineitem ⋈ supplier, shaped like TPC-H Q8: "orders" plays
    # lineitem, its (o_custkey, o_totalprice) index the (l_partkey,
    # l_suppkey) one.
    part, (pk, _, _) = customer_scan()
    supplier, (sk, _, _) = customer_scan()
    lineitem, (_, lpk, lsk) = orders_scan()
    tree = Join(JoinKind.INNER,
                Join(JoinKind.INNER, part, lineitem, equals(lpk, pk)),
                supplier, equals(lsk, sk))

    def indexes(table):
        return [(lpk.name, lsk.name)] if table == "orders" else []

    def joined_pairs(memo):
        return {frozenset(memo.group(g).exprs[0].op.label()
                          for g in leaves)
                for leaves, _ in JoinSpace.of(memo).clusters.values()
                if len(leaves) == 2}

    without, _ = enumerate_tree(tree)
    with_index, _ = enumerate_tree(tree, indexes)
    # Every column of the index is equated to part or supplier, so
    # their cross product, which a seek of lineitem needs, is a group.
    assert joined_pairs(with_index) - joined_pairs(without) == {
        frozenset({"Get(customer)"})}
    assert len(leaf_sets(with_index)) == len(leaf_sets(without)) + 1


def star_database(points=13):
    db = Database()
    db.create_table("fact", [(f"k{i}", DataType.INTEGER, False)
                             for i in range(points)])
    for i in range(points):
        db.create_table(f"d{i}", [("id", DataType.INTEGER, False),
                                  ("v", DataType.INTEGER, False)],
                        primary_key=("id",))
        db.insert(f"d{i}", [(0, i), (1, i + 10)])
    rng = random.Random(7)
    db.insert("fact", [tuple(rng.randint(0, 1) for _ in range(points))
                       for _ in range(8)])
    return db


def test_fourteen_way_star_compiles_within_budget(monkeypatch):
    db = star_database()
    tables = ", ".join(["fact"] + [f"d{i}" for i in range(13)])
    where = " and ".join(f"k{i} = d{i}.id" for i in range(13))
    values = " + ".join(f"d{i}.v" for i in range(13))
    sql = (f"select k0, k5, {values} as total from {tables} "
           f"where {where} and d3.v < 10")
    memos = []
    explore = optimizer_module.Optimizer._explore

    def spy(self, memo):
        explore(self, memo)
        memos.append(memo.expr_count)

    monkeypatch.setattr(optimizer_module.Optimizer, "_explore", spy)
    rows = db.execute(sql, FULL).rows
    budget = OptimizerConfig().max_memo_exprs
    # 13 * 2**12 pairs do not fit: the enumeration stops at the budget
    # (one pair's orders may overshoot it) and keeps what it entered.
    assert memos and max(memos) <= budget + 8
    expected = db.execute(sql, NAIVE).rows
    assert 0 < len(expected) < 8  # the d3 filter keeps some fact rows
    assert sorted(rows) == sorted(expected)


@pytest.fixture(scope="module")
def golden_db():
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.001, seed=7)
    return db


CASES = {**QUERIES, **paper_example_formulations()}


@pytest.mark.parametrize("name", list(CASES))
def test_no_statement_reaches_the_memo_budget(golden_db, name, monkeypatch):
    counts = []
    explore = optimizer_module.Optimizer._explore

    def spy(self, memo):
        explore(self, memo)
        counts.append(memo.expr_count)

    monkeypatch.setattr(optimizer_module.Optimizer, "_explore", spy)
    normalized = normalize(golden_db._binder.bind(parse(CASES[name])).rel,
                           FULL.normalize_config)
    golden_db._optimizer(FULL).optimize_with_cost(normalized)
    assert counts
    assert max(counts) < OptimizerConfig().max_memo_exprs


def test_strict_check_catches_a_dropped_conjunct_or_leaf():
    from repro.analysis import RULE_CHECKS
    check = RULE_CHECKS["join_enumerate"]
    a, (ak, _, _) = customer_scan()
    b, (bk, bck, _) = orders_scan()
    c, (ck2, cck, _) = orders_scan()
    ab, bc = equals(bck, ak), equals(cck, bck)
    before = Join(JoinKind.INNER, Join(JoinKind.INNER, a, b, ab), c, bc)
    reordered = Join(JoinKind.INNER, a, Join(JoinKind.INNER, b, c, bc), ab)
    assert check(before, reordered) == []
    dropped = Join(JoinKind.INNER, a, Join(JoinKind.INNER, b, c, bc), None)
    assert [i.code for i in check(before, dropped)] == [
        "join.conjuncts-changed"]
    doubled = Join(JoinKind.INNER, Join(JoinKind.INNER, a, b, ab),
                   Join(JoinKind.INNER, b, c, bc), None)
    assert "join.leaves-changed" in [i.code for i in check(before, doubled)]


def correlated_database():
    db = Database()
    db.create_table("cust", [("ck", DataType.INTEGER, False),
                             ("bal", DataType.INTEGER, False)],
                    primary_key=("ck",))
    db.create_table("ord", [("ok", DataType.INTEGER, False),
                            ("ock", DataType.INTEGER, False)],
                    primary_key=("ok",))
    db.create_table("item", [("iok", DataType.INTEGER, False),
                             ("ln", DataType.INTEGER, False),
                             ("qty", DataType.INTEGER, False)],
                    primary_key=("iok", "ln"))
    rng = random.Random(3)
    db.insert("cust", [(c, rng.randint(-5, 5)) for c in range(12)])
    db.insert("ord", [(o, rng.randint(0, 14)) for o in range(30)])
    db.insert("item", [(o, ln, rng.randint(1, 9)) for o in range(30)
                       for ln in range(rng.randint(0, 3))])
    return db


# Conjuncts that read one leaf of a cluster: the correlation of a join
# kept inside a guarded CASE subquery, and a semijoin's outer-only ON
# conjunct, which SemiJoinToJoinDistinct moves onto an inner join.
ONE_LEAF_CONJUNCTS = {
    "guarded_case": "select ck, case when bal < 0 then (select count(*) "
                    "from ord, item where ok = iok and ock = ck) "
                    "else 0 end as n from cust",
    "guarded_case_sum": "select ck, case when bal < 0 then (select "
                        "sum(qty) from ord, item where ok = iok and "
                        "ock = ck and qty > bal) else 0 end as n from cust",
    "exists_outer_only": "select ck from cust where exists (select * "
                         "from ord join item on ok = iok and bal < 0 "
                         "where ock = ck)",
}


@pytest.mark.parametrize("analyze", ["warn", "strict"])
@pytest.mark.parametrize("name", list(ONE_LEAF_CONJUNCTS))
def test_a_conjunct_reading_one_leaf_stays_on_every_order(name, analyze,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_ANALYZE", analyze)
    db = correlated_database()
    sql = ONE_LEAF_CONJUNCTS[name]
    result = db.execute(sql, FULL)
    assert not result.degraded
    expected = db.execute(sql, NAIVE).rows
    assert sorted(result.rows) == sorted(expected)


def test_strict_statement_fails_when_enumeration_drops_a_conjunct(
        monkeypatch):
    # An enumerator that loses every join conjunct builds cross products
    # that are not the cluster.  The strict check names the rule, and the
    # statement fails instead of running a fallback plan, whose rows
    # would let the strict suites pass on a wrong rule.
    from repro.core.optimizer import joinenum
    from repro.errors import PlanInvariantError
    monkeypatch.setattr(joinenum, "conjunction", lambda parts: None)
    monkeypatch.setenv("REPRO_ANALYZE", "strict")
    db = correlated_database()
    sql = "select ck, ok, ln from cust, ord, item where ock = ck and ok = iok"
    with pytest.raises(PlanInvariantError) as raised:
        db.execute(sql, FULL)
    assert "join.conjuncts-changed" in [i.code for i in raised.value.issues]
    assert "rule:join_enumerate" in str(raised.value)
    monkeypatch.setenv("REPRO_ANALYZE", "warn")
    assert not db.execute(sql, FULL).degraded  # no check runs per rule
