"""Physical operator trees.

The cost-based optimizer's output: each node records an *implementation
choice* for a logical operator.  Rows at execution are Python tuples whose
layout is given by each node's ``columns`` list.

Operators mirror a classic executor menu: table scan, index seek (the
paper's "index-lookup-join" when placed under a nested-loops Apply),
filter, compute-scalar, hash join for all join variants, nested-loops
join/apply, hash aggregation (scalar/vector/local), sort, top, union-all,
difference, max1row, and segmented execution for ``SegmentApply``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..algebra.columns import Column
from ..algebra.relational import JoinKind
from ..algebra.scalar import AggregateCall, ScalarExpr


class PhysicalOp:
    """Base class of physical operators."""

    __slots__ = ("columns", "estimated_rows")

    def __init__(self, columns: Sequence[Column]) -> None:
        self.columns = list(columns)
        #: Cost-model output-row estimate, stamped by the optimizer's
        #: implementation pass when this node is the root of a chosen
        #: memo group (``None`` for nodes no estimate was produced for,
        #: e.g. enforcer sorts inserted below an aggregate).  Runtime
        #: feedback compares it against actual counts (repro.feedback).
        self.estimated_rows: Optional[float] = None

    @property
    def children(self) -> tuple["PhysicalOp", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return explain_physical(self)


def explain_physical(plan: PhysicalOp) -> str:
    lines: list[str] = []

    def render(node: PhysicalOp, depth: int) -> None:
        lines.append("  " * depth + node.label())
        for child in node.children:
            render(child, depth + 1)

    render(plan, 0)
    return "\n".join(lines)


def _width(columns: Sequence[Column], table_columns: Sequence[Column]) -> str:
    """``"; k of n columns"`` when a scan or seek reads a subset of its
    table's ``n`` stored columns, else nothing."""
    if len(columns) == len(table_columns):
        return ""
    return f"; {len(columns)} of {len(table_columns)} columns"


class PTableScan(PhysicalOp):
    """Scan of every row of a stored table, delivering ``columns``.

    ``table_columns`` are all the stored columns the table's ``Get``
    produced, in declaration order; ``columns`` is the subset, in the
    same order, that something above reads (all of them until
    :func:`~repro.physical.required.prune_columns` has run).  Executors
    resolve each column to its stored position by name.
    """

    __slots__ = ("table_name", "table_columns")

    def __init__(self, table_name: str, columns: Sequence[Column],
                 table_columns: Optional[Sequence[Column]] = None) -> None:
        super().__init__(columns)
        self.table_name = table_name
        self.table_columns = list(table_columns if table_columns is not None
                                  else columns)

    def label(self) -> str:
        return (f"TableScan({self.table_name}"
                f"{_width(self.columns, self.table_columns)})")


class PIndexSeek(PhysicalOp):
    """Equality lookup into a table index.

    ``key_columns`` name the indexed stored columns (among
    ``table_columns``, the table's stored columns as in
    :class:`PTableScan`) and ``key_exprs`` compute the probe values —
    typically references to outer parameters, making this the inner side
    of an index-lookup join.  ``residual`` filters the fetched rows.
    The fetched rows carry ``columns``, the stored columns something
    above or the residual reads; a key column need not be one of them.
    """

    __slots__ = ("table_name", "key_columns", "key_exprs", "residual",
                 "table_columns")

    def __init__(self, table_name: str, columns: Sequence[Column],
                 key_columns: Sequence[Column],
                 key_exprs: Sequence[ScalarExpr],
                 residual: Optional[ScalarExpr] = None,
                 table_columns: Optional[Sequence[Column]] = None) -> None:
        super().__init__(columns)
        self.table_name = table_name
        self.key_columns = list(key_columns)
        self.key_exprs = list(key_exprs)
        self.residual = residual
        self.table_columns = list(table_columns if table_columns is not None
                                  else columns)

    def label(self) -> str:
        keys = ", ".join(
            f"{c!r}={e.sql()}" for c, e in zip(self.key_columns,
                                               self.key_exprs))
        residual = f", residual {self.residual.sql()}" if self.residual else ""
        return (f"IndexSeek({self.table_name}"
                f"{_width(self.columns, self.table_columns)}; "
                f"{keys}{residual})")


class PConstantScan(PhysicalOp):
    __slots__ = ("rows",)

    def __init__(self, columns: Sequence[Column],
                 rows: Sequence[tuple]) -> None:
        super().__init__(columns)
        self.rows = [tuple(r) for r in rows]

    def label(self) -> str:
        return f"ConstantScan({len(self.rows)} rows)"


class PSegmentRef(PhysicalOp):
    """Reads the current segment bound by an enclosing PSegmentApply."""

    def label(self) -> str:
        return "SegmentRef"


class PFilter(PhysicalOp):
    __slots__ = ("child", "predicate")

    def __init__(self, child: PhysicalOp, predicate: ScalarExpr) -> None:
        super().__init__(child.columns)
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter({self.predicate.sql()})"


class PProject(PhysicalOp):
    __slots__ = ("child", "items")

    def __init__(self, child: PhysicalOp,
                 items: Sequence[tuple[Column, ScalarExpr]]) -> None:
        super().__init__([c for c, _ in items])
        self.child = child
        self.items = [(c, e) for c, e in items]

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"ComputeScalar({len(self.items)} columns)"


def join_columns(kind: JoinKind, left: PhysicalOp,
                 right: PhysicalOp) -> list[Column]:
    """A two-input join's layout: the left columns, then (unless it
    emits left rows only) the right ones, nullable under LEFT OUTER."""
    columns = list(left.columns)
    if not kind.left_only_output:
        right_cols = right.columns
        if kind is JoinKind.LEFT_OUTER:
            right_cols = [c.with_nullability(True) for c in right_cols]
        columns += right_cols
    return columns


class PHashJoin(PhysicalOp):
    """Hash join on equality keys, all left-join variants.

    Builds on the right input, probes with the left.  ``residual`` holds
    non-equality conjuncts evaluated on each candidate pair.
    """

    __slots__ = ("kind", "left", "right", "left_keys", "right_keys",
                 "residual")

    def __init__(self, kind: JoinKind, left: PhysicalOp, right: PhysicalOp,
                 left_keys: Sequence[ScalarExpr],
                 right_keys: Sequence[ScalarExpr],
                 residual: Optional[ScalarExpr] = None) -> None:
        super().__init__(join_columns(kind, left, right))
        self.kind = kind
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(f"{l.sql()}={r.sql()}"
                         for l, r in zip(self.left_keys, self.right_keys))
        residual = f", residual {self.residual.sql()}" if self.residual else ""
        return f"HashJoin[{self.kind.value}]({keys}{residual})"


class PNestedLoopsJoin(PhysicalOp):
    """Nested loops over an *uncorrelated* right side (materialized once)."""

    __slots__ = ("kind", "left", "right", "predicate")

    def __init__(self, kind: JoinKind, left: PhysicalOp, right: PhysicalOp,
                 predicate: Optional[ScalarExpr] = None) -> None:
        super().__init__(join_columns(kind, left, right))
        self.kind = kind
        self.left = left
        self.right = right
        self.predicate = predicate

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        pred = self.predicate.sql() if self.predicate else "true"
        return f"NestedLoops[{self.kind.value}]({pred})"


class PNLApply(PhysicalOp):
    """Correlated nested loops: the right side re-executes per left row
    with the left row's columns bound as parameters — the physical form of
    the ``Apply`` operator (and of re-introduced correlated execution such
    as index-lookup joins).

    ``guard`` (LEFT_OUTER only) skips the inner side entirely for rows
    where it is not TRUE, NULL-padding instead (conditional scalar
    execution, paper Section 2.4).
    """

    __slots__ = ("kind", "left", "right", "predicate", "guard")

    def __init__(self, kind: JoinKind, left: PhysicalOp, right: PhysicalOp,
                 predicate: Optional[ScalarExpr] = None,
                 guard: Optional[ScalarExpr] = None) -> None:
        super().__init__(join_columns(kind, left, right))
        self.kind = kind
        self.left = left
        self.right = right
        self.predicate = predicate
        self.guard = guard

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        pred = f"({self.predicate.sql()})" if self.predicate else ""
        guard = f" when {self.guard.sql()}" if self.guard else ""
        return f"NLApply[{self.kind.value}]{pred}{guard}"


class PHashAggregate(PhysicalOp):
    """Hash-based vector aggregation (also used for LocalGroupBy)."""

    __slots__ = ("child", "group_columns", "aggregates", "is_local")

    def __init__(self, child: PhysicalOp, group_columns: Sequence[Column],
                 aggregates: Sequence[tuple[Column, AggregateCall]],
                 is_local: bool = False) -> None:
        super().__init__(list(group_columns) + [c for c, _ in aggregates])
        self.child = child
        self.group_columns = list(group_columns)
        self.aggregates = [(c, a) for c, a in aggregates]
        self.is_local = is_local

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        prefix = "LocalHashAggregate" if self.is_local else "HashAggregate"
        groups = ", ".join(repr(c) for c in self.group_columns)
        aggs = ", ".join(f"{c!r}:={a.sql()}" for c, a in self.aggregates)
        return f"{prefix}([{groups}], {aggs})"


class PStreamAggregate(PhysicalOp):
    """Group-wise aggregation over input sorted on the grouping columns."""

    __slots__ = ("child", "group_columns", "aggregates")

    def __init__(self, child: PhysicalOp, group_columns: Sequence[Column],
                 aggregates: Sequence[tuple[Column, AggregateCall]]) -> None:
        super().__init__(list(group_columns) + [c for c, _ in aggregates])
        self.child = child
        self.group_columns = list(group_columns)
        self.aggregates = [(c, a) for c, a in aggregates]

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        groups = ", ".join(repr(c) for c in self.group_columns)
        return f"StreamAggregate([{groups}])"


class PScalarAggregate(PhysicalOp):
    """Scalar aggregation: exactly one output row."""

    __slots__ = ("child", "aggregates")

    def __init__(self, child: PhysicalOp,
                 aggregates: Sequence[tuple[Column, AggregateCall]]) -> None:
        super().__init__([c for c, _ in aggregates])
        self.child = child
        self.aggregates = [(c, a) for c, a in aggregates]

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        aggs = ", ".join(f"{c!r}:={a.sql()}" for c, a in self.aggregates)
        return f"ScalarAggregate({aggs})"


class PSort(PhysicalOp):
    __slots__ = ("child", "keys")

    def __init__(self, child: PhysicalOp,
                 keys: Sequence[tuple[ScalarExpr, bool]]) -> None:
        super().__init__(child.columns)
        self.child = child
        self.keys = [(e, bool(asc)) for e, asc in keys]

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(f"{e.sql()} {'asc' if asc else 'desc'}"
                         for e, asc in self.keys)
        return f"Sort({keys})"


class PTop(PhysicalOp):
    __slots__ = ("child", "count", "offset")

    def __init__(self, child: PhysicalOp, count: int,
                 offset: int = 0) -> None:
        super().__init__(child.columns)
        self.child = child
        self.count = count
        self.offset = offset

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        suffix = f", offset {self.offset}" if self.offset else ""
        return f"Top({self.count}{suffix})"


class PTopN(PhysicalOp):
    """Order-aware limit: keeps only the best ``count + offset`` rows in a
    bounded heap instead of sorting the whole input — the classic Top-N
    optimization for ``ORDER BY ... LIMIT``."""

    __slots__ = ("child", "keys", "count", "offset")

    def __init__(self, child: PhysicalOp,
                 keys: Sequence[tuple[ScalarExpr, bool]],
                 count: int, offset: int = 0) -> None:
        super().__init__(child.columns)
        self.child = child
        self.keys = [(e, bool(asc)) for e, asc in keys]
        self.count = count
        self.offset = offset

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(f"{e.sql()} {'asc' if asc else 'desc'}"
                         for e, asc in self.keys)
        suffix = f", offset {self.offset}" if self.offset else ""
        return f"TopN({self.count}{suffix}; {keys})"


class PMax1row(PhysicalOp):
    __slots__ = ("child",)

    def __init__(self, child: PhysicalOp) -> None:
        super().__init__(child.columns)
        self.child = child

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Max1row"


class PUnionAll(PhysicalOp):
    __slots__ = ("inputs", "input_maps")

    def __init__(self, inputs: Sequence[PhysicalOp],
                 columns: Sequence[Column],
                 input_maps: Sequence[Sequence[Column]]) -> None:
        super().__init__(columns)
        self.inputs = list(inputs)
        self.input_maps = [list(m) for m in input_maps]

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return tuple(self.inputs)

    def label(self) -> str:
        return f"Concat({len(self.inputs)} inputs)"


class PDifference(PhysicalOp):
    __slots__ = ("left", "right", "left_map", "right_map")

    def __init__(self, left: PhysicalOp, right: PhysicalOp,
                 columns: Sequence[Column],
                 left_map: Sequence[Column],
                 right_map: Sequence[Column]) -> None:
        super().__init__(columns)
        self.left = left
        self.right = right
        self.left_map = list(left_map)
        self.right_map = list(right_map)

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "HashDifference"


class PSegmentApply(PhysicalOp):
    """Segmented execution: hash-partition the left input on the segment
    columns, then execute the right plan once per segment with its
    PSegmentRef leaves bound to the segment's rows."""

    __slots__ = ("left", "right", "segment_columns", "inner_columns")

    def __init__(self, left: PhysicalOp, right: PhysicalOp,
                 segment_columns: Sequence[Column],
                 inner_columns: Sequence[Column]) -> None:
        super().__init__(list(segment_columns) + list(right.columns))
        self.left = left
        self.right = right
        self.segment_columns = list(segment_columns)
        self.inner_columns = list(inner_columns)

    @property
    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        segs = ", ".join(repr(c) for c in self.segment_columns)
        return f"SegmentApply[{segs}]"


def apply_bindings_key(plan: "PNLApply") -> tuple[str, int]:
    """The execution-profile key under which an Apply records how many
    times its inner side ran.  Off-row, like ``chunks_skipped``: a tuple,
    so it can never collide with the ``id(node)`` row-count keys."""
    return ("apply_bindings", id(plan))


def node_expressions(plan: PhysicalOp) -> list[ScalarExpr]:
    """Every scalar expression ``plan`` itself evaluates."""
    found: list[Optional[ScalarExpr]] = []
    if isinstance(plan, PIndexSeek):
        found = [*plan.key_exprs, plan.residual]
    elif isinstance(plan, PFilter):
        found = [plan.predicate]
    elif isinstance(plan, PProject):
        found = [expr for _, expr in plan.items]
    elif isinstance(plan, PHashJoin):
        found = [*plan.left_keys, *plan.right_keys, plan.residual]
    elif isinstance(plan, PNestedLoopsJoin):
        found = [plan.predicate]
    elif isinstance(plan, PNLApply):
        found = [plan.predicate, plan.guard]
    elif isinstance(plan, (PHashAggregate, PStreamAggregate,
                           PScalarAggregate)):
        found = [call.argument for _, call in plan.aggregates]
    elif isinstance(plan, (PSort, PTopN)):
        found = [expr for expr, _ in plan.keys]
    return [expr for expr in found if expr is not None]


def outer_references(plan: PhysicalOp) -> frozenset[int]:
    """Ids of the columns ``plan`` reads but no operator inside it
    produces: the correlation parameters an enclosing ``PNLApply`` must
    bind before the subtree runs."""
    used: set[int] = set()
    for expr in node_expressions(plan):
        used.update(expr.free_columns().ids())
    produced = {c.cid for c in plan.columns}
    for child in plan.children:
        used.update(outer_references(child))
        produced.update(c.cid for c in child.columns)
    return frozenset(used - produced)
