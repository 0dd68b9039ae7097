"""Exact join enumeration: each inner-join cluster once, with DPccp.

A *join cluster* is a maximal tree of INNER joins over leaf groups that
are not inner joins, together with the conjuncts of its join
predicates.  The cluster is enumerated once, when its root expression
is offered to :class:`~repro.core.optimizer.rules.JoinEnumerate`:

* its *query graph* has one node per leaf.  A conjunct connects every
  leaf it reads.  An index on a stored leaf R whose every column is
  equated to columns of other leaves connects the leaves equated to
  different index columns, so their cross product, which feeds a
  composite-key seek of R, stays in the space (TPC-H Q8's part ×
  supplier → lineitem (l_partkey, l_suppkey)).  The components of a
  disconnected graph are joined by cross products;
* every connected subset of leaves is one memo group, whose estimate
  is the product of its leaves and its conjuncts' selectivities,
  whichever pair enters it first;
* every csg-cmp pair (a connected subset and a connected complement
  joined to it by an edge) enters the group of its union, in both
  orders, exactly once (:func:`csg_cmp_pairs`, Moerkotte & Neumann,
  VLDB 2006).  A group is a column set: the two orders deliver its
  columns in different orders, and the implementer enforces an order
  only where a consumer reads by position;
* each conjunct sits on the lowest join whose subset covers the leaves
  it reads.

The memo's expression budget (``OptimizerConfig.max_memo_exprs``) stops
an enumeration that does not fit; the original tree is in the memo
already, so the pairs entered so far only add alternatives.  Under the
strict analyzer every pair is checked against the join it was read from
(same leaves, same conjuncts, same column set).
:class:`JoinSpace` keeps, per memo, the subset groups by (leaf set,
conjunct multiset), which is what lets the clusters of later rule
results (a GroupBy pushed below a join joins a new leaf to an
enumerated subset) reuse every group they share.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

from ...algebra import (ColumnRef, Comparison, Get, Join, JoinKind,
                        RelationalOp, ScalarExpr, Select, conjunction,
                        conjuncts)
from ...analysis import PlanAnalyzer
from .memo import GroupRefLeaf, Memo

#: The rule name the strict analyzer checks enumerated joins under.
RULE_NAME = "join_enumerate"

#: One cluster: its leaf groups in leaf order and its conjuncts (as
#: :class:`JoinSpace` conjunct ids) in cluster order.
Cluster = tuple[tuple[int, ...], tuple[int, ...]]

#: A subset group's identity: leaf set and sorted conjunct ids.
ClusterKey = tuple[frozenset[int], tuple[int, ...]]


# -- DPccp on bitmask graphs ---------------------------------------------------
#
# A graph on nodes 0..n-1 is a list of neighbour bitmasks; node sets are
# bitmasks.  B_i below is the set of nodes numbered at most i.

def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subsets(mask: int) -> Iterator[int]:
    """The non-empty subsets of ``mask``."""
    subset = mask & -mask
    while subset:
        yield subset
        subset = (subset - mask) & mask


def _neighbourhood(neighbours: Sequence[int], nodes: int) -> int:
    found = 0
    for i in _bits(nodes):
        found |= neighbours[i]
    return found & ~nodes


def _grow(neighbours: Sequence[int], nodes: int,
          excluded: int) -> Iterator[int]:
    """EnumerateCsgRec: the connected supersets of ``nodes`` that avoid
    ``excluded``, each once."""
    frontier = _neighbourhood(neighbours, nodes) & ~excluded
    if not frontier:
        return
    grown = [nodes | subset for subset in _subsets(frontier)]
    yield from grown
    excluded |= frontier
    for bigger in grown:
        yield from _grow(neighbours, bigger, excluded)


def _complements(neighbours: Sequence[int], csg: int) -> Iterator[int]:
    """EnumerateCmp: the connected complements of ``csg`` that hold a
    neighbour of it and no node below its smallest one."""
    lowest = csg & -csg
    excluded = ((lowest << 1) - 1) | csg
    frontier = _neighbourhood(neighbours, csg) & ~excluded
    for i in reversed(list(_bits(frontier))):
        start = 1 << i
        yield start
        yield from _grow(neighbours, start,
                         excluded | (frontier & ((start << 1) - 1)))


def csg_cmp_pairs(neighbours: Sequence[int]) -> Iterator[tuple[int, int]]:
    """DPccp's csg-cmp pairs of a connected graph, each unordered pair
    once, in an order where both sides of a pair are a single node or
    the union of an earlier pair."""
    for i in reversed(range(len(neighbours))):
        start = 1 << i
        for csg in chain((start,),
                         _grow(neighbours, start, (start << 1) - 1)):
            for cmp in _complements(neighbours, csg):
                yield csg, cmp


def _components(neighbours: Sequence[int]) -> list[int]:
    """Connected components, ordered by their smallest node."""
    seen = 0
    found: list[int] = []
    for i in range(len(neighbours)):
        if seen >> i & 1:
            continue
        component = frontier = 1 << i
        while frontier:
            frontier = _neighbourhood(neighbours, component)
            component |= frontier
        seen |= component
        found.append(component)
    return found


def _widen(mask: int, members: Sequence[int]) -> int:
    """Map a set of components back to the union of their nodes."""
    widened = 0
    for i in _bits(mask):
        widened |= members[i]
    return widened


def join_pairs(neighbours: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The csg-cmp pairs of any graph: DPccp, which stays within each
    connected component, then DPccp over the components as a clique
    (cross products)."""
    yield from csg_cmp_pairs(neighbours)
    components = _components(neighbours)
    if len(components) > 1:
        everything = (1 << len(components)) - 1
        clique = [everything & ~(1 << j) for j in range(len(components))]
        for left, right in csg_cmp_pairs(clique):
            yield _widen(left, components), _widen(right, components)


# -- clusters in the memo ------------------------------------------------------

class JoinSpace:
    """Per-memo record of the clusters enumerated so far.

    ``clusters`` describes every join group it knows (the inner-join
    groups a cluster was read from and every subset group an enumeration
    created); ``groups`` finds a subset's group by its key; ``done``
    holds the keys whose pairs were entered.
    """

    def __init__(self) -> None:
        self.conjuncts: list[ScalarExpr] = []
        self._conjunct_ids: dict[ScalarExpr, int] = {}
        self.clusters: dict[int, Cluster] = {}
        self.groups: dict[ClusterKey, int] = {}
        self.done: set[ClusterKey] = set()

    @classmethod
    def of(cls, memo: Memo) -> "JoinSpace":
        space = memo.join_space
        if space is None:
            space = memo.join_space = cls()
        return space

    def conjunct_id(self, part: ScalarExpr) -> int:
        found = self._conjunct_ids.get(part)
        if found is None:
            found = self._conjunct_ids[part] = len(self.conjuncts)
            self.conjuncts.append(part)
        return found

    def register(self, group_id: int, cluster: Cluster) -> None:
        self.clusters.setdefault(group_id, cluster)
        self.groups.setdefault(cluster_key(cluster), group_id)


def cluster_key(cluster: Cluster) -> ClusterKey:
    leaves, parts = cluster
    return frozenset(leaves), tuple(sorted(parts))


def _inner_join(op: RelationalOp) -> bool:
    return isinstance(op, Join) and op.kind is JoinKind.INNER


def read_cluster(op: Join, memo: Memo,
                 space: JoinSpace) -> Optional[Cluster]:
    """The cluster rooted at ``op``: a child group is expanded when the
    space knows it or its first expression is an inner join, and is a
    leaf otherwise.  Expanded groups are registered.  ``None`` when a
    leaf repeats (no valid join reads one group twice)."""
    leaves: list[int] = []
    parts: list[int] = []
    for child in op.children:
        assert isinstance(child, GroupRefLeaf)
        known = space.clusters.get(child.group_id)
        if known is None:
            first = memo.group(child.group_id).exprs[0].op
            if _inner_join(first):
                assert isinstance(first, Join)
                known = read_cluster(first, memo, space)
                if known is None:
                    return None
                space.register(child.group_id, known)
        if known is None:
            leaves.append(child.group_id)
        else:
            leaves.extend(known[0])
            parts.extend(known[1])
    if op.predicate is not None:
        parts.extend(space.conjunct_id(p) for p in conjuncts(op.predicate))
    if len(set(leaves)) != len(leaves):
        return None
    return tuple(leaves), tuple(parts)


def enumerate_cluster(op: Join, memo: Memo) -> None:
    """Enumerate the cluster rooted at the inner join ``op`` into the
    memo, unless ``op`` lies inside a larger cluster or its cluster was
    enumerated already."""
    group_id = memo.group_of(op)
    first = memo.group(group_id).exprs[0].op is op
    if first and group_id in memo.inner_join_inputs:
        return  # an interior join: its enclosing cluster covers it
    space = JoinSpace.of(memo)
    cluster = read_cluster(op, memo, space)
    if cluster is None:
        return
    key = cluster_key(cluster)
    if key in space.done:
        return
    space.done.add(key)
    if first:
        # A join a rule added to a group of another kind (a GroupBy
        # pushed below a join) leaves that group a leaf to others.
        space.register(group_id, cluster)
    _Enumeration(memo, space, cluster, op).run()


class _Enumeration:
    """One cluster's graph, conjunct placement and memo insertion."""

    def __init__(self, memo: Memo, space: JoinSpace, cluster: Cluster,
                 root: Join) -> None:
        self.memo = memo
        self.root_op = root
        self.space = space
        self.leaves, self.parts = cluster
        self.refs = [memo.group_ref(g) for g in self.leaves]
        count = len(self.leaves)
        self.full = (1 << count) - 1
        owner = {c.cid: i for i, ref in enumerate(self.refs)
                 for c in ref.output_columns()}
        self.exprs = [space.conjuncts[p] for p in self.parts]
        self.homes: list[int] = []
        for part in self.exprs:
            home = 0
            for cid in part.free_columns().ids():
                if cid in owner:
                    home |= 1 << owner[cid]
            # A conjunct reading fewer than two leaves (constants, outer
            # references, one leaf's columns) joins nothing: no pair
            # would place it, so it is evaluated once, on the cluster's
            # top join.
            self.homes.append(home if home & (home - 1) else self.full)
        self.neighbours = [0] * count
        for home in self.homes:
            self._connect(home)
        if memo.indexes is not None:
            for i in range(count):
                self._index_edges(i, owner, memo.indexes)
        self.subset_groups = {1 << i: g for i, g in enumerate(self.leaves)}
        self.subset_groups[self.full] = memo.group_of(root)
        self.entered: set[int] = set()
        self.analyzer = PlanAnalyzer.for_rules()

    def _connect(self, nodes: int) -> None:
        for i in _bits(nodes):
            self.neighbours[i] |= nodes & ~(1 << i)

    def _index_edges(self, leaf: int, owner: dict[int, int],
                     indexes: Callable[[str], list[tuple[str, ...]]]
                     ) -> None:
        get = _stored_table(self.memo, self.leaves[leaf])
        if get is None:
            return
        partners: dict[int, int] = {}  # leaf column id -> other leaves
        for part in self.exprs:
            if not (isinstance(part, Comparison) and part.op == "="
                    and isinstance(part.left, ColumnRef)
                    and isinstance(part.right, ColumnRef)):
                continue
            for mine, other in ((part.left.column, part.right.column),
                                (part.right.column, part.left.column)):
                if owner.get(mine.cid) == leaf and \
                        owner.get(other.cid, leaf) != leaf:
                    partners[mine.cid] = partners.get(mine.cid, 0) | \
                        1 << owner[other.cid]
        by_name = {c.name: c.cid for c in get.columns}
        for index in indexes(get.table_name):
            found = [partners.get(by_name.get(name, -1)) for name in index]
            if len(found) < 2 or None in found:
                continue
            # Every index column has a partner: join the partners of any
            # two columns to each other, so the seek's probe row exists.
            for i, first in enumerate(found):
                for second in found[i + 1:]:
                    for a in _bits(first or 0):
                        for b in _bits((second or 0) & ~(1 << a)):
                            self._connect(1 << a | 1 << b)

    # -- subsets ---------------------------------------------------------------

    def _parts_of(self, nodes: int) -> tuple[int, ...]:
        return tuple(p for p, home in zip(self.parts, self.homes)
                     if home & nodes == home)

    def _cluster_of(self, nodes: int) -> Cluster:
        return (tuple(self.leaves[i] for i in _bits(nodes)),
                self._parts_of(nodes))

    def _group_of(self, nodes: int) -> Optional[int]:
        found = self.subset_groups.get(nodes)
        if found is None:
            found = self.space.groups.get(cluster_key(self._cluster_of(nodes)))
            if found is not None:
                self.subset_groups[nodes] = found
        return found

    def run(self) -> None:
        # One cluster is one rule application, so the governor's tick
        # would check the deadline too seldom; check it per pair.
        governor = self.memo.governor
        for left, right in join_pairs(self.neighbours):
            if self.memo.exhausted():
                return
            if governor is not None:
                governor.check_deadline()
            self._enter(left, right)

    def _enter(self, left: int, right: int) -> None:
        nodes = left | right
        on_join = [expr for expr, home in zip(self.exprs, self.homes)
                   if home & nodes == home and home & left != home
                   and home & right != home]
        predicate = conjunction(on_join) if on_join else None
        left_group = self._group_of(left)
        right_group = self._group_of(right)
        assert left_group is not None and right_group is not None
        if nodes not in self.entered:
            # This enumeration enters every pair of the subset, so the
            # subset is never enumerated as a cluster of its own.
            self.entered.add(nodes)
            self.space.done.add(cluster_key(self._cluster_of(nodes)))
        memo = self.memo
        target = self._group_of(nodes)
        for a, b in ((left_group, right_group), (right_group, left_group)):
            join = Join(JoinKind.INNER, memo.group_ref(a), memo.group_ref(b),
                        predicate)
            if self.analyzer is not None:
                # Every order of the cluster must equal the join it was
                # read from; every order of a subset, the subset's leaves
                # under its conjuncts.
                self._check(self.root_op if nodes == self.full
                            else self._canonical_tree(nodes), join)
            if target is None:
                # The subset's estimate is the product of its leaves and
                # conjunct selectivities, whichever pair comes first.
                estimate = memo.estimate(self._canonical_tree(nodes))
                target = memo.insert_estimated(join, estimate)
                self.subset_groups[nodes] = target
                self.space.register(target, self._cluster_of(nodes))
            else:
                memo.add_expr_to_group(join, target)

    # -- strict-mode checks ------------------------------------------------------

    def _check(self, before: RelationalOp, after: RelationalOp) -> None:
        assert self.analyzer is not None
        self.analyzer.check_rule_application(
            RULE_NAME, self._expand(before), self._expand(after))

    def _canonical_tree(self, nodes: int) -> RelationalOp:
        """The subset's leaves cross-joined in leaf order under all its
        conjuncts: the relation every pair entering the subset's group
        must equal, and an estimate that no join order skews."""
        refs = [self.refs[i] for i in _bits(nodes)]
        tree: RelationalOp = refs[0]
        for ref in refs[1:-1]:
            tree = Join(JoinKind.INNER, tree, ref, None)
        parts = [self.space.conjuncts[p] for p in self._parts_of(nodes)]
        return Join(JoinKind.INNER, tree, refs[-1],
                    conjunction(parts) if parts else None)

    def _expand(self, rel: RelationalOp) -> RelationalOp:
        """``rel`` with every group that is part of a cluster replaced by
        its first expression, down to the leaves."""
        if isinstance(rel, GroupRefLeaf):
            first = self.memo.group(rel.group_id).exprs[0].op
            if rel.group_id in self.space.clusters or _inner_join(first):
                return self._expand(first)
            return rel
        if not rel.children:
            return rel
        return rel.with_children([self._expand(c) for c in rel.children])


def _stored_table(memo: Memo, group_id: int) -> Optional[Get]:
    """The stored table a leaf group scans, directly or under a filter —
    the inputs an index-lookup join can seek."""
    first = memo.group(group_id).exprs[0].op
    if isinstance(first, Select) and isinstance(first.child, GroupRefLeaf):
        first = memo.group(first.child.group_id).exprs[0].op
    return first if isinstance(first, Get) else None
