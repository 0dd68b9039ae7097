"""Derived logical properties of operator trees.

Rewrites in the paper are guarded by logical properties rather than syntax:

* **keys** — identities (7)–(9) require ``R.key``; GroupBy pull-up requires
  the joined relation to have a key (Section 3.1, condition 2);
* **functional dependencies** — filters move around GroupBy only when their
  columns are functionally determined by the grouping columns;
* **null-rejection** — outerjoin simplification (Section 1.2 / [7]) fires
  when a predicate above rejects NULL on columns from the outerjoin's inner
  side, including rejection derived *through* aggregates;
* **max-one-row** — Max1row elision (Section 2.4) and scalar-subquery
  cardinality reasoning.

All functions are pure; they walk the immutable tree on demand.
"""

from __future__ import annotations

from .columns import ColumnSet
from .funcdeps import FDSet
from .relational import (Apply, ConstantScan, Difference, Get, GroupBy,
                         Join, JoinKind, LocalGroupBy, Max1row, Project,
                         RelationalOp, ScalarGroupBy, SegmentApply,
                         SegmentRef, Select, Sort, Top, UnionAll)
from .scalar import (And, Arithmetic, ColumnRef, Comparison, InList, IsNull,
                     Like, Literal, Negate, Not, Or, ScalarExpr, conjuncts)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def derive_keys(rel: RelationalOp) -> list[frozenset[int]]:
    """Candidate keys (as column-id sets) of the operator's output.

    The result is sound but not complete: every returned set *is* a key;
    further keys may exist.  Minimality is not guaranteed either.
    """
    keys = _derive_keys_raw(rel)
    # De-duplicate and drop supersets of other keys.
    unique = sorted(set(keys), key=len)
    minimal: list[frozenset[int]] = []
    for key in unique:
        if not any(existing <= key for existing in minimal):
            minimal.append(key)
    return minimal


def _derive_keys_raw(rel: RelationalOp) -> list[frozenset[int]]:
    memo_keys = getattr(rel, "memo_keys", None)
    if memo_keys is not None:
        return list(memo_keys)

    if isinstance(rel, Get):
        return [frozenset(c.cid for c in key) for key in rel.key_columns]

    if isinstance(rel, ConstantScan):
        return [frozenset()] if len(rel.rows) <= 1 else []

    if isinstance(rel, (Select, Sort)):
        return derive_keys(rel.children[0])

    if isinstance(rel, Top):
        child_keys = derive_keys(rel.child)
        if rel.count <= 1:
            return [frozenset()]
        return child_keys

    if isinstance(rel, Max1row):
        return [frozenset()]

    if isinstance(rel, Project):
        out_ids = {c.cid for c in rel.output_columns()}
        return [k for k in derive_keys(rel.child) if k <= out_ids]

    if isinstance(rel, ScalarGroupBy):
        return [frozenset()]

    if isinstance(rel, (GroupBy, LocalGroupBy)):
        group_key = frozenset(c.cid for c in rel.group_columns)
        keys = [group_key]
        for child_key in derive_keys(rel.child):
            if child_key <= group_key:
                keys.append(child_key)
        return keys

    if isinstance(rel, Join):
        left_keys = derive_keys(rel.left)
        if rel.kind.left_only_output:
            return left_keys
        right_keys = derive_keys(rel.right)
        keys = [lk | rk for lk in left_keys for rk in right_keys]
        # A side each of whose rows matches at most one row of the other
        # (the predicate equates a key of the other side to its columns:
        # a foreign-key join) keeps its own keys.  Under LEFT OUTER only
        # the preserved side does; padded rows repeat NULLs on the other.
        if rel.predicate is not None:
            if _equates_a_key(rel.predicate, rel.left, right_keys):
                keys.extend(left_keys)
            if rel.kind is JoinKind.INNER and \
                    _equates_a_key(rel.predicate, rel.right, left_keys):
                keys.extend(right_keys)
        return keys

    if isinstance(rel, Apply):
        left_keys = derive_keys(rel.left)
        if rel.kind.left_only_output:
            return left_keys
        right_keys = derive_keys(rel.right)
        return [lk | rk for lk in left_keys for rk in right_keys]

    if isinstance(rel, SegmentApply):
        seg = frozenset(c.cid for c in rel.segment_columns)
        return [seg | rk for rk in derive_keys(rel.right)]

    if isinstance(rel, Difference):
        # Difference output is a subset of the left input (renamed).
        rename = {src.cid: out.cid
                  for src, out in zip(rel.left_map, rel.columns)}
        keys = []
        for key in derive_keys(rel.left):
            if all(cid in rename for cid in key):
                keys.append(frozenset(rename[cid] for cid in key))
        return keys

    if isinstance(rel, (UnionAll, SegmentRef)):
        return []

    return []


def _equates_a_key(predicate: ScalarExpr, side: RelationalOp,
                   other_keys: list[frozenset[int]]) -> bool:
    """Whether ``predicate`` equates every column of one of the other
    join input's keys to a column of ``side``."""
    if not other_keys:
        return False
    mine = frozenset(c.cid for c in side.output_columns())
    pinned: set[int] = set()
    for part in conjuncts(predicate):
        if isinstance(part, Comparison) and part.op == "=" and \
                isinstance(part.left, ColumnRef) and \
                isinstance(part.right, ColumnRef):
            a, b = part.left.column.cid, part.right.column.cid
            if a in mine and b not in mine:
                pinned.add(b)
            elif b in mine and a not in mine:
                pinned.add(a)
    return any(key <= pinned for key in other_keys)


def has_key(rel: RelationalOp) -> bool:
    return bool(derive_keys(rel))


def key_within(rel: RelationalOp, columns: ColumnSet) -> frozenset[int] | None:
    """A key of ``rel`` fully contained in ``columns``, if any."""
    ids = columns.ids()
    for key in derive_keys(rel):
        if key <= ids:
            return key
    return None


# ---------------------------------------------------------------------------
# Functional dependencies
# ---------------------------------------------------------------------------

def derive_fds(rel: RelationalOp,
               keys: list[frozenset[int]] | None = None) -> FDSet:
    """A sound (not complete) FD set holding on the operator's output.

    ``keys`` is ``derive_keys(rel)`` when the caller already has it."""
    memo_fds = getattr(rel, "memo_fds", None)
    if memo_fds is not None:
        return memo_fds

    out_ids = frozenset(c.cid for c in rel.output_columns())

    def add_keys(fds: FDSet) -> FDSet:
        for key in derive_keys(rel) if keys is None else keys:
            fds.add(key, out_ids)
        return fds

    if isinstance(rel, (Get, ConstantScan, SegmentRef)):
        return add_keys(FDSet())

    if isinstance(rel, Select):
        fds = derive_fds(rel.child).copy()
        _add_predicate_fds(fds, rel.predicate)
        return fds

    if isinstance(rel, (Sort, Top, Max1row)):
        return derive_fds(rel.children[0])

    if isinstance(rel, Project):
        fds = derive_fds(rel.child).copy()
        for col, expr in rel.items:
            used = [c.cid for c in expr.free_columns()]
            fds.add(used, (col.cid,))
        return fds.project(out_ids)

    if isinstance(rel, (GroupBy, LocalGroupBy)):
        fds = derive_fds(rel.child).project(out_ids)
        fds.add([c.cid for c in rel.group_columns], out_ids)
        return fds

    if isinstance(rel, ScalarGroupBy):
        fds = FDSet()
        fds.add((), out_ids)
        return fds

    if isinstance(rel, Join):
        fds = derive_fds(rel.left).copy()
        if rel.kind is JoinKind.INNER:
            fds.add_all(derive_fds(rel.right))
            if rel.predicate is not None:
                _add_predicate_fds(fds, rel.predicate)
        elif not rel.kind.left_only_output:
            # LEFT OUTER: right-side FDs are weakened by NULL padding; only
            # keys-derived dependencies on the combined key stay sound.
            pass
        return add_keys(fds)

    if isinstance(rel, Apply):
        return add_keys(derive_fds(rel.left).copy())

    if isinstance(rel, SegmentApply):
        return add_keys(derive_fds(rel.right).copy())

    return add_keys(FDSet())


def _add_predicate_fds(fds: FDSet, predicate: ScalarExpr) -> None:
    """Extract FDs implied by a predicate that filters to TRUE rows."""
    for part in conjuncts(predicate):
        if not (isinstance(part, Comparison) and part.op == "="):
            continue
        left, right = part.left, part.right
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            fds.add_equivalence(left.column.cid, right.column.cid)
        elif isinstance(left, ColumnRef) and isinstance(right, Literal):
            fds.add_constant(left.column.cid)
        elif isinstance(right, ColumnRef) and isinstance(left, Literal):
            fds.add_constant(right.column.cid)


def functionally_determines(rel: RelationalOp, determinant: ColumnSet,
                            dependent: ColumnSet) -> bool:
    """Whether ``determinant → dependent`` holds on ``rel``'s output."""
    return derive_fds(rel).determines(determinant.ids(), dependent.ids())


# ---------------------------------------------------------------------------
# Null-rejection
# ---------------------------------------------------------------------------

def strict_columns(expr: ScalarExpr) -> frozenset[int]:
    """Columns whose NULL value forces the expression's value to NULL.

    Sound under-approximation: every returned column has the property.
    """
    if isinstance(expr, ColumnRef):
        return frozenset((expr.column.cid,))
    if isinstance(expr, (Comparison, Arithmetic)):
        return strict_columns(expr.left) | strict_columns(expr.right)
    if isinstance(expr, (Negate, Like, InList)):
        return strict_columns(expr.children[0])
    from .scalar import Extract
    if isinstance(expr, Extract):
        return strict_columns(expr.arg)
    return frozenset()


def null_rejected_columns(predicate: ScalarExpr) -> frozenset[int]:
    """Columns on which the predicate *rejects NULL*.

    A predicate rejects NULL on column ``c`` when it cannot evaluate to TRUE
    on any row where ``c`` is NULL — the trigger for outerjoin→join
    simplification [Galindo-Legaria & Rosenthal 1997].
    """
    if isinstance(predicate, And):
        rejected: frozenset[int] = frozenset()
        for arg in predicate.args:
            rejected |= null_rejected_columns(arg)
        return rejected
    if isinstance(predicate, Or):
        parts = [null_rejected_columns(a) for a in predicate.args]
        result = parts[0]
        for p in parts[1:]:
            result &= p
        return result
    if isinstance(predicate, Not):
        # NOT(e) is TRUE only when e is FALSE; if a NULL column forces e to
        # NULL, NOT(e) is UNKNOWN — rejected.
        return strict_columns(predicate.arg)
    if isinstance(predicate, IsNull):
        if predicate.negated:
            return strict_columns(predicate.arg)
        return frozenset()
    return strict_columns(predicate)


# ---------------------------------------------------------------------------
# Cardinality facts
# ---------------------------------------------------------------------------

def max_one_row(rel: RelationalOp) -> bool:
    """Whether the operator provably emits at most one row per invocation.

    Used to elide Max1row (paper Section 2.4: "the compiler avoids the use
    of Max1row, as long as ... a declared key").  Correlation parameters
    count as bound values: a Select equating every column of a key to a
    constant or an outer parameter passes at most one row.
    """
    if isinstance(rel, (ScalarGroupBy, Max1row)):
        return True
    if isinstance(rel, ConstantScan):
        return len(rel.rows) <= 1
    if isinstance(rel, Top):
        return rel.count <= 1 or max_one_row(rel.child)
    if isinstance(rel, (Sort, Project)):
        return max_one_row(rel.children[0])
    if isinstance(rel, Select):
        if max_one_row(rel.child):
            return True
        bound = _equality_bound_columns(rel)
        keys = derive_keys(rel.child)
        return any(key <= bound for key in keys)
    if isinstance(rel, Join) and rel.kind.left_only_output:
        return max_one_row(rel.left)
    if isinstance(rel, Apply):
        if rel.kind.left_only_output:
            return max_one_row(rel.left)
        return max_one_row(rel.left) and max_one_row(rel.right)
    if isinstance(rel, Join):
        return max_one_row(rel.left) and max_one_row(rel.right)
    if isinstance(rel, GroupBy):
        # One row iff at most one group; only provable via child cardinality.
        return max_one_row(rel.child)
    return False


def _equality_bound_columns(select: Select) -> frozenset[int]:
    """Child columns equated to constants or outer parameters by the filter."""
    child_ids = {c.cid for c in select.child.output_columns()}
    bound: set[int] = set()
    for part in conjuncts(select.predicate):
        if not (isinstance(part, Comparison) and part.op == "="):
            continue
        for this, other in ((part.left, part.right), (part.right, part.left)):
            if not isinstance(this, ColumnRef):
                continue
            if this.column.cid not in child_ids:
                continue
            if isinstance(other, Literal):
                bound.add(this.column.cid)
            elif (isinstance(other, ColumnRef)
                  and other.column.cid not in child_ids):
                bound.add(this.column.cid)  # equated to an outer parameter
    return frozenset(bound)


def never_empty(rel: RelationalOp) -> bool:
    """Whether the operator provably emits at least one row."""
    if isinstance(rel, ScalarGroupBy):
        return True
    if isinstance(rel, ConstantScan):
        return len(rel.rows) >= 1
    if isinstance(rel, (Sort, Max1row, Project)):
        return never_empty(rel.children[0])
    if isinstance(rel, Join) and rel.kind is JoinKind.LEFT_OUTER:
        return never_empty(rel.left)
    if isinstance(rel, Apply) and rel.kind is JoinKind.LEFT_OUTER:
        return never_empty(rel.left)
    return False
