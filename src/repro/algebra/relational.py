"""Logical relational operators.

All operators are *bag-oriented* (paper Section 1.3): union is UNION ALL and
duplicates are removed only by explicit GroupBy.  The operator set is the
paper's:

* standard operators — :class:`Get`, :class:`Select`, :class:`Project`,
  :class:`Join` (inner/cross/left-outer/semi/anti), :class:`GroupBy` (vector
  aggregate ``G_{A,F}``), :class:`ScalarGroupBy` (``G¹_F``),
  :class:`UnionAll`, :class:`Difference`, :class:`ConstantScan`,
  :class:`Sort`, :class:`Top`;
* the paper's higher-order constructs — :class:`Apply` (``R A⊗ E``,
  parameterized per-row execution), :class:`SegmentApply` (``R SA_A E``,
  table-valued parameter) with its :class:`SegmentRef` leaf;
* :class:`LocalGroupBy` (Section 3.3) and :class:`Max1row` (Section 2.4).

Operators are immutable; rewrites build new trees.  Each node knows its
ordered ``output_columns()`` and can report ``outer_references()`` — free
columns resolved from outside the subtree, i.e. correlation parameters.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, Mapping, Sequence

from .columns import Column, ColumnSet
from .scalar import AggregateCall, ColumnRef, ScalarExpr


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT_OUTER = "left outer"
    LEFT_SEMI = "left semi"
    LEFT_ANTI = "left anti"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def left_only_output(self) -> bool:
        """Whether the output schema is the left schema only."""
        return self in (JoinKind.LEFT_SEMI, JoinKind.LEFT_ANTI)


class RelationalOp:
    """Base class for logical relational operators."""

    __slots__ = ("_outer_refs_cache",)

    def __init__(self) -> None:
        self._outer_refs_cache: ColumnSet | None = None

    # -- structure ----------------------------------------------------------

    @property
    def children(self) -> tuple["RelationalOp", ...]:
        return ()

    def with_children(self, children: Sequence["RelationalOp"]) -> "RelationalOp":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def local_expressions(self) -> tuple[ScalarExpr, ...]:
        """Scalar expressions attached directly to this operator."""
        return ()

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "RelationalOp":
        """Rebuild this node with ``fn`` applied to each local expression."""
        return self

    def local_column_slots(self) -> tuple[Column, ...]:
        """Columns referenced (not produced) through non-expression slots,
        e.g. GroupBy grouping columns or Sort keys that are bare columns."""
        return ()

    # -- schema ---------------------------------------------------------------

    def output_columns(self) -> list[Column]:
        raise NotImplementedError

    def produced_columns(self) -> list[Column]:
        """Columns introduced by this very node (not inherited)."""
        return []

    # -- correlation analysis ---------------------------------------------------

    def outer_references(self) -> ColumnSet:
        """Free columns of the subtree: referenced but not produced within."""
        if self._outer_refs_cache is None:
            refs: dict[int, Column] = {}
            for expr in self.local_expressions():
                for c in expr.free_columns():
                    refs.setdefault(c.cid, c)
            for c in self.local_column_slots():
                refs.setdefault(c.cid, c)
            for child in self.children:
                for c in child.outer_references():
                    refs.setdefault(c.cid, c)
            for child in self.children:
                for c in child.output_columns():
                    refs.pop(c.cid, None)
            self._outer_refs_cache = ColumnSet(refs.values())
        return self._outer_refs_cache

    def is_correlated_with(self, columns: Iterable[Column]) -> bool:
        return not self.outer_references().isdisjoint(ColumnSet(columns))

    def contains_subquery(self) -> bool:
        """Whether any scalar expression still holds a relational child."""
        if any(e.contains_subquery() for e in self.local_expressions()):
            return True
        return any(c.contains_subquery() for c in self.children)

    # -- display ---------------------------------------------------------------

    def label(self) -> str:
        """One-line description used by the plan printer."""
        return type(self).__name__

    def __repr__(self) -> str:
        from .printer import explain  # local import to avoid a cycle
        return explain(self)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------

class Get(RelationalOp):
    """Scan of a stored table.

    Every ``Get`` owns *fresh* columns; two scans of the same table have
    disjoint column identities (self-join safety).  ``key_columns`` carries
    the declared keys so property derivation and Max1row elision can reason
    about uniqueness without consulting the catalog.
    """

    __slots__ = ("table_name", "columns", "key_columns", "table")

    def __init__(self, table_name: str, columns: Sequence[Column],
                 key_columns: Sequence[Sequence[Column]] = (),
                 table: Any = None) -> None:
        super().__init__()
        self.table_name = table_name
        self.columns = list(columns)
        self.key_columns = [tuple(k) for k in key_columns]
        self.table = table

    def output_columns(self) -> list[Column]:
        return list(self.columns)

    def produced_columns(self) -> list[Column]:
        return list(self.columns)

    def label(self) -> str:
        return f"Get({self.table_name})"


class ConstantScan(RelationalOp):
    """A constant relation: explicit rows over explicit columns.

    ``ConstantScan([], [()])`` is the single-row, zero-column table used to
    evaluate uncorrelated scalar expressions.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[Column],
                 rows: Sequence[tuple] = ((),)) -> None:
        super().__init__()
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("constant row width mismatch")

    def output_columns(self) -> list[Column]:
        return list(self.columns)

    def produced_columns(self) -> list[Column]:
        return list(self.columns)

    def label(self) -> str:
        try:
            digest = hash(tuple(self.rows))
        except TypeError:  # pragma: no cover - unhashable constants
            digest = id(self)
        return f"ConstantScan({len(self.rows)} rows, #{digest & 0xffffff:x})"


class SegmentRef(RelationalOp):
    """The table-valued parameter inside a :class:`SegmentApply` inner tree.

    Its columns mirror (as fresh identities) the output of the SegmentApply's
    relational input; the enclosing SegmentApply records the correspondence.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[Column]) -> None:
        super().__init__()
        self.columns = list(columns)

    def output_columns(self) -> list[Column]:
        return list(self.columns)

    def produced_columns(self) -> list[Column]:
        return list(self.columns)

    def label(self) -> str:
        return "SegmentRef(S)"


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

class Select(RelationalOp):
    """Relational selection (filter).  Keeps rows whose predicate is TRUE."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: RelationalOp, predicate: ScalarExpr) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[RelationalOp]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def local_expressions(self) -> tuple[ScalarExpr, ...]:
        return (self.predicate,)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "Select":
        return Select(self.child, fn(self.predicate))

    def output_columns(self) -> list[Column]:
        return self.child.output_columns()

    def label(self) -> str:
        return f"Select({self.predicate.sql()})"


class Project(RelationalOp):
    """Projection with computed columns.

    ``items`` is an ordered list of ``(output_column, expression)``.  A
    pass-through item uses the child's own column object as output with a
    reference to itself as expression, preserving column identity across the
    projection.
    """

    __slots__ = ("child", "items")

    def __init__(self, child: RelationalOp,
                 items: Sequence[tuple[Column, ScalarExpr]]) -> None:
        super().__init__()
        self.child = child
        self.items = list(items)

    @classmethod
    def passthrough(cls, child: RelationalOp,
                    columns: Sequence[Column]) -> "Project":
        return cls(child, [(c, ColumnRef(c)) for c in columns])

    @classmethod
    def extend(cls, child: RelationalOp,
               computed: Sequence[tuple[Column, ScalarExpr]]) -> "Project":
        """Child columns plus additional computed ones."""
        items = [(c, ColumnRef(c)) for c in child.output_columns()]
        items.extend(computed)
        return cls(child, items)

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[RelationalOp]) -> "Project":
        (child,) = children
        return Project(child, self.items)

    def local_expressions(self) -> tuple[ScalarExpr, ...]:
        return tuple(e for _, e in self.items)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "Project":
        return Project(self.child, [(c, fn(e)) for c, e in self.items])

    def output_columns(self) -> list[Column]:
        return [c for c, _ in self.items]

    def produced_columns(self) -> list[Column]:
        return [c for c, e in self.items
                if not (isinstance(e, ColumnRef) and e.column == c)]

    def is_pure_passthrough(self) -> bool:
        return all(isinstance(e, ColumnRef) and e.column == c
                   for c, e in self.items)

    def label(self) -> str:
        # Memo keys are built from labels, once per expression a rule
        # produces: compare pass-through ids without Column.__eq__.
        parts = [repr(c) if isinstance(e, ColumnRef) and e.column.cid == c.cid
                 else f"{c!r}:={e.sql()}" for c, e in self.items]
        return f"Project({', '.join(parts)})"


class _GroupByBase(RelationalOp):
    """Shared structure of GroupBy / ScalarGroupBy / LocalGroupBy."""

    __slots__ = ("child", "group_columns", "aggregates")

    def __init__(self, child: RelationalOp,
                 group_columns: Sequence[Column],
                 aggregates: Sequence[tuple[Column, AggregateCall]]) -> None:
        super().__init__()
        self.child = child
        self.group_columns = list(group_columns)
        self.aggregates = [(c, a) for c, a in aggregates]

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.child,)

    def local_expressions(self) -> tuple[ScalarExpr, ...]:
        return tuple(a for _, a in self.aggregates)

    def local_column_slots(self) -> tuple[Column, ...]:
        return tuple(self.group_columns)

    def output_columns(self) -> list[Column]:
        return list(self.group_columns) + [c for c, _ in self.aggregates]

    def produced_columns(self) -> list[Column]:
        return [c for c, _ in self.aggregates]

    def _agg_label(self) -> str:
        parts = [f"{c!r}:={a.sql()}" for c, a in self.aggregates]
        return ", ".join(parts)


class GroupBy(_GroupByBase):
    """Vector aggregate ``G_{A,F}``: one output row per group; empty input
    yields empty output."""

    __slots__ = ()

    def with_children(self, children: Sequence[RelationalOp]) -> "GroupBy":
        (child,) = children
        return GroupBy(child, self.group_columns, self.aggregates)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "GroupBy":
        aggs = [(c, _as_aggregate(fn(a))) for c, a in self.aggregates]
        return GroupBy(self.child, self.group_columns, aggs)

    def label(self) -> str:
        groups = ", ".join(repr(c) for c in self.group_columns)
        return f"GroupBy([{groups}], {self._agg_label()})"


class ScalarGroupBy(_GroupByBase):
    """Scalar aggregate ``G¹_F``: always exactly one output row."""

    __slots__ = ()

    def __init__(self, child: RelationalOp,
                 aggregates: Sequence[tuple[Column, AggregateCall]]) -> None:
        super().__init__(child, [], aggregates)

    def with_children(self, children: Sequence[RelationalOp]) -> "ScalarGroupBy":
        (child,) = children
        return ScalarGroupBy(child, self.aggregates)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "ScalarGroupBy":
        aggs = [(c, _as_aggregate(fn(a))) for c, a in self.aggregates]
        return ScalarGroupBy(self.child, aggs)

    def label(self) -> str:
        return f"ScalarGroupBy({self._agg_label()})"


class LocalGroupBy(_GroupByBase):
    """Partial (local) aggregation — paper Section 3.3.

    Execution is identical to GroupBy; the distinct operator exists because
    *different rewrites are valid for it* (grouping columns may be freely
    extended; it may move below joins on either side).
    """

    __slots__ = ()

    def with_children(self, children: Sequence[RelationalOp]) -> "LocalGroupBy":
        (child,) = children
        return LocalGroupBy(child, self.group_columns, self.aggregates)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "LocalGroupBy":
        aggs = [(c, _as_aggregate(fn(a))) for c, a in self.aggregates]
        return LocalGroupBy(self.child, self.group_columns, aggs)

    def label(self) -> str:
        groups = ", ".join(repr(c) for c in self.group_columns)
        return f"LocalGroupBy([{groups}], {self._agg_label()})"


def _as_aggregate(expr: ScalarExpr) -> AggregateCall:
    if not isinstance(expr, AggregateCall):
        raise TypeError("aggregate slot must remain an AggregateCall")
    return expr


class Max1row(RelationalOp):
    """Pass rows through; raise a run-time error on a second row.

    Implements SQL scalar-subquery semantics for paper Section 2.4's
    *exception subqueries* (Class 3).
    """

    __slots__ = ("child",)

    def __init__(self, child: RelationalOp) -> None:
        super().__init__()
        self.child = child

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[RelationalOp]) -> "Max1row":
        (child,) = children
        return Max1row(child)

    def output_columns(self) -> list[Column]:
        return self.child.output_columns()

    def label(self) -> str:
        return "Max1row"


class Sort(RelationalOp):
    """Order the input.  ``keys`` are (expression, ascending) pairs; NULLs
    sort first, matching common engine defaults for ascending order."""

    __slots__ = ("child", "keys")

    def __init__(self, child: RelationalOp,
                 keys: Sequence[tuple[ScalarExpr, bool]]) -> None:
        super().__init__()
        self.child = child
        self.keys = [(e, bool(asc)) for e, asc in keys]

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[RelationalOp]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    def local_expressions(self) -> tuple[ScalarExpr, ...]:
        return tuple(e for e, _ in self.keys)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "Sort":
        return Sort(self.child, [(fn(e), asc) for e, asc in self.keys])

    def output_columns(self) -> list[Column]:
        return self.child.output_columns()

    def label(self) -> str:
        parts = ", ".join(f"{e.sql()} {'asc' if asc else 'desc'}"
                          for e, asc in self.keys)
        return f"Sort({parts})"


class Top(RelationalOp):
    """Limit the input to ``count`` rows, after skipping ``offset``."""

    __slots__ = ("child", "count", "offset")

    def __init__(self, child: RelationalOp, count: int,
                 offset: int = 0) -> None:
        super().__init__()
        if count < 0:
            raise ValueError("LIMIT must be non-negative")
        if offset < 0:
            raise ValueError("OFFSET must be non-negative")
        self.child = child
        self.count = count
        self.offset = offset

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[RelationalOp]) -> "Top":
        (child,) = children
        return Top(child, self.count, self.offset)

    def output_columns(self) -> list[Column]:
        return self.child.output_columns()

    def label(self) -> str:
        suffix = f", offset {self.offset}" if self.offset else ""
        return f"Top({self.count}{suffix})"


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------

class Join(RelationalOp):
    """Join variants over *uncorrelated* inputs.

    ``predicate`` of ``None`` means TRUE (cross product for INNER).  For
    LEFT_OUTER the right-hand columns become nullable in the output; for
    semi/anti joins the output schema is the left schema.
    """

    __slots__ = ("kind", "left", "right", "predicate")

    def __init__(self, kind: JoinKind, left: RelationalOp, right: RelationalOp,
                 predicate: ScalarExpr | None = None) -> None:
        super().__init__()
        self.kind = kind
        self.left = left
        self.right = right
        self.predicate = predicate

    @classmethod
    def cross(cls, left: RelationalOp, right: RelationalOp) -> "Join":
        return cls(JoinKind.INNER, left, right, None)

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[RelationalOp]) -> "Join":
        left, right = children
        return Join(self.kind, left, right, self.predicate)

    def local_expressions(self) -> tuple[ScalarExpr, ...]:
        return () if self.predicate is None else (self.predicate,)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "Join":
        pred = None if self.predicate is None else fn(self.predicate)
        return Join(self.kind, self.left, self.right, pred)

    def output_columns(self) -> list[Column]:
        left_cols = self.left.output_columns()
        if self.kind.left_only_output:
            return left_cols
        right_cols = self.right.output_columns()
        if self.kind is JoinKind.LEFT_OUTER:
            right_cols = [c.with_nullability(True) for c in right_cols]
        return left_cols + right_cols

    def label(self) -> str:
        pred = self.predicate.sql() if self.predicate is not None else "true"
        return f"Join[{self.kind.value}]({pred})"


class Apply(RelationalOp):
    """The paper's ``R A⊗ E`` — parameterized per-row execution.

    For each row ``r`` of ``left``, evaluate ``right`` with ``r``'s columns
    available as parameters, and combine ``{r} ⊗ right(r)`` where ``⊗`` is
    given by ``kind`` (INNER is the primitive cross-product form ``A×``).
    ``predicate`` supports the ``A⊗p`` variants produced midway through
    Apply removal.

    ``guard`` implements the paper's Section 2.4 *conditional scalar
    execution*: when present (LEFT_OUTER only), the right side is executed
    only for rows where the guard is TRUE — other rows are NULL-padded
    without touching the subexpression, so a subquery inside a non-taken
    CASE branch can never raise its run-time error.
    """

    __slots__ = ("kind", "left", "right", "predicate", "guard")

    def __init__(self, kind: JoinKind, left: RelationalOp, right: RelationalOp,
                 predicate: ScalarExpr | None = None,
                 guard: ScalarExpr | None = None) -> None:
        super().__init__()
        if guard is not None and kind is not JoinKind.LEFT_OUTER:
            raise ValueError("guarded Apply requires LEFT_OUTER semantics")
        self.kind = kind
        self.left = left
        self.right = right
        self.predicate = predicate
        self.guard = guard

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[RelationalOp]) -> "Apply":
        left, right = children
        return Apply(self.kind, left, right, self.predicate, self.guard)

    def local_expressions(self) -> tuple[ScalarExpr, ...]:
        exprs = []
        if self.predicate is not None:
            exprs.append(self.predicate)
        if self.guard is not None:
            exprs.append(self.guard)
        return tuple(exprs)

    def map_expressions(self, fn: Callable[[ScalarExpr], ScalarExpr]) -> "Apply":
        pred = None if self.predicate is None else fn(self.predicate)
        guard = None if self.guard is None else fn(self.guard)
        return Apply(self.kind, self.left, self.right, pred, guard)

    def correlation_columns(self) -> ColumnSet:
        """The left columns the right side actually parameterizes on."""
        return self.right.outer_references().intersection(
            ColumnSet(self.left.output_columns()))

    def is_correlated(self) -> bool:
        return bool(self.correlation_columns())

    def output_columns(self) -> list[Column]:
        left_cols = self.left.output_columns()
        if self.kind.left_only_output:
            return left_cols
        right_cols = self.right.output_columns()
        if self.kind is JoinKind.LEFT_OUTER:
            right_cols = [c.with_nullability(True) for c in right_cols]
        return left_cols + right_cols

    def label(self) -> str:
        binds = ", ".join(repr(c) for c in sorted(
            self.correlation_columns(), key=lambda c: c.cid))
        pred = f", on {self.predicate.sql()}" if self.predicate is not None else ""
        guard = f", when {self.guard.sql()}" if self.guard is not None else ""
        return f"Apply[{self.kind.value}](bind: {binds}{pred}{guard})"


class SegmentApply(RelationalOp):
    """The paper's ``R SA_A E`` — per-segment execution (Section 3.4).

    ``left`` is segmented on ``segment_columns``; for each segment ``S`` the
    ``right`` tree is evaluated with its :class:`SegmentRef` leaf bound to
    ``S``.  Output rows are the segment-column values prepended to
    ``right``'s output.  ``inner_columns[i]`` is the SegmentRef column that
    mirrors ``left.output_columns()[i]`` (the columns are stored by value so
    the node survives subtree cloning).
    """

    __slots__ = ("left", "right", "segment_columns", "inner_columns")

    def __init__(self, left: RelationalOp, right: RelationalOp,
                 segment_columns: Sequence[Column],
                 inner_columns: Sequence[Column]) -> None:
        super().__init__()
        if len(inner_columns) != len(left.output_columns()):
            raise ValueError("segment reference width must match left input")
        self.left = left
        self.right = right
        self.segment_columns = list(segment_columns)
        self.inner_columns = list(inner_columns)

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[RelationalOp]) -> "SegmentApply":
        left, right = children
        return SegmentApply(left, right, self.segment_columns,
                            self.inner_columns)

    def local_column_slots(self) -> tuple[Column, ...]:
        return tuple(self.segment_columns)

    def output_columns(self) -> list[Column]:
        return list(self.segment_columns) + self.right.output_columns()

    def segment_column_for(self, left_column: Column) -> Column:
        """The SegmentRef column mirroring a left output column."""
        for i, col in enumerate(self.left.output_columns()):
            if col == left_column:
                return self.inner_columns[i]
        raise KeyError(f"{left_column!r} is not produced by the left input")

    def label(self) -> str:
        segs = ", ".join(repr(c) for c in self.segment_columns)
        return f"SegmentApply[{segs}]"


class UnionAll(RelationalOp):
    """Bag union of any number of inputs.

    Produces fresh output columns; ``input_maps[i][j]`` is the column of
    input ``i`` feeding output position ``j``.
    """

    __slots__ = ("inputs", "columns", "input_maps")

    def __init__(self, inputs: Sequence[RelationalOp],
                 columns: Sequence[Column],
                 input_maps: Sequence[Sequence[Column]]) -> None:
        super().__init__()
        if len(inputs) < 2:
            raise ValueError("UnionAll requires at least two inputs")
        if len(input_maps) != len(inputs):
            raise ValueError("one input map per input required")
        for imap in input_maps:
            if len(imap) != len(columns):
                raise ValueError("input map width must match output width")
        self.inputs = list(inputs)
        self.columns = list(columns)
        self.input_maps = [list(m) for m in input_maps]

    @classmethod
    def from_inputs(cls, inputs: Sequence[RelationalOp]) -> "UnionAll":
        """Union inputs positionally, deriving fresh output columns."""
        first_cols = inputs[0].output_columns()
        out_cols = []
        for position, col in enumerate(first_cols):
            nullable = any(inp.output_columns()[position].nullable
                           for inp in inputs)
            out_cols.append(Column(col.name, col.dtype, nullable))
        maps = [list(inp.output_columns()) for inp in inputs]
        return cls(inputs, out_cols, maps)

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return tuple(self.inputs)

    def with_children(self, children: Sequence[RelationalOp]) -> "UnionAll":
        return UnionAll(list(children), self.columns, self.input_maps)

    def local_column_slots(self) -> tuple[Column, ...]:
        flat: list[Column] = []
        for imap in self.input_maps:
            flat.extend(imap)
        return tuple(flat)

    def output_columns(self) -> list[Column]:
        return list(self.columns)

    def produced_columns(self) -> list[Column]:
        return list(self.columns)

    def label(self) -> str:
        maps = ";".join(",".join(str(c.cid) for c in imap)
                        for imap in self.input_maps)
        return f"UnionAll({len(self.inputs)} inputs; {maps})"


class Difference(RelationalOp):
    """Bag difference (EXCEPT ALL), positional like :class:`UnionAll`."""

    __slots__ = ("left", "right", "columns", "left_map", "right_map")

    def __init__(self, left: RelationalOp, right: RelationalOp,
                 columns: Sequence[Column],
                 left_map: Sequence[Column],
                 right_map: Sequence[Column]) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.columns = list(columns)
        self.left_map = list(left_map)
        self.right_map = list(right_map)

    @classmethod
    def from_inputs(cls, left: RelationalOp, right: RelationalOp) -> "Difference":
        out_cols = [c.fresh_copy() for c in left.output_columns()]
        return cls(left, right, out_cols,
                   left.output_columns(), right.output_columns())

    @property
    def children(self) -> tuple[RelationalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[RelationalOp]) -> "Difference":
        left, right = children
        return Difference(left, right, self.columns, self.left_map, self.right_map)

    def local_column_slots(self) -> tuple[Column, ...]:
        return tuple(self.left_map) + tuple(self.right_map)

    def output_columns(self) -> list[Column]:
        return list(self.columns)

    def produced_columns(self) -> list[Column]:
        return list(self.columns)

    def label(self) -> str:
        left = ",".join(str(c.cid) for c in self.left_map)
        right = ",".join(str(c.cid) for c in self.right_map)
        return f"Difference({left} | {right})"


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------

def transform_bottom_up(rel: RelationalOp,
                        fn: Callable[[RelationalOp], RelationalOp]) -> RelationalOp:
    """Rebuild the tree bottom-up, applying ``fn`` at every node."""
    new_children = [transform_bottom_up(c, fn) for c in rel.children]
    if any(n is not o for n, o in zip(new_children, rel.children)):
        rel = rel.with_children(new_children)
    return fn(rel)


def substitute_outer_columns(rel: RelationalOp,
                             mapping: Mapping[int, ScalarExpr]) -> RelationalOp:
    """Substitute *outer* (free) column references throughout a subtree.

    Used when a rewrite renames or replaces correlation parameters.  Columns
    produced inside the subtree are never in ``mapping`` because ids are
    globally unique.
    """
    if not mapping:
        return rel

    def rewrite(node: RelationalOp) -> RelationalOp:
        for col in node.local_column_slots():
            if col.cid in mapping:
                replacement = mapping[col.cid]
                if not isinstance(replacement, ColumnRef):
                    raise ValueError(
                        f"column slot {col!r} cannot take expression "
                        f"{replacement.sql()}")
        slot_map = {cid: e.column for cid, e in mapping.items()
                    if isinstance(e, ColumnRef)}
        node = _remap_column_slots(node, slot_map)
        return node.map_expressions(lambda e: e.substitute_columns(mapping))

    return transform_bottom_up(rel, rewrite)


def _remap_column_slots(node: RelationalOp,
                        mapping: Mapping[int, Column]) -> RelationalOp:
    """Rewrite bare-column slots (group/segment/union maps) of one node."""
    if not mapping:
        return node

    def m(col: Column) -> Column:
        return mapping.get(col.cid, col)

    if isinstance(node, GroupBy):
        return GroupBy(node.child, [m(c) for c in node.group_columns],
                       node.aggregates)
    if isinstance(node, LocalGroupBy):
        return LocalGroupBy(node.child, [m(c) for c in node.group_columns],
                            node.aggregates)
    if isinstance(node, SegmentApply):
        return SegmentApply(node.left, node.right,
                            [m(c) for c in node.segment_columns],
                            [m(c) for c in node.inner_columns])
    if isinstance(node, UnionAll):
        return UnionAll(node.inputs, node.columns,
                        [[m(c) for c in imap] for imap in node.input_maps])
    if isinstance(node, Difference):
        return Difference(node.left, node.right, node.columns,
                          [m(c) for c in node.left_map],
                          [m(c) for c in node.right_map])
    return node


def clone_with_fresh_columns(
        rel: RelationalOp,
        outer_mapping: Mapping[int, Column] | None = None,
) -> tuple[RelationalOp, dict[int, Column]]:
    """Deep-copy a subtree, freshening every column it produces.

    Returns the copy plus the mapping from original column ids to the fresh
    columns, so callers can translate expressions that referenced the
    original subtree.  Outer references are left untouched unless remapped
    via ``outer_mapping`` (both cases keep the copy well-formed).

    This is the "introduce a common subexpression" primitive behind
    identities (5)–(7) and SegmentApply introduction.
    """
    mapping: dict[int, Column] = dict(outer_mapping or {})

    def clone(node: RelationalOp) -> RelationalOp:
        children = [clone(c) for c in node.children]
        for col in node.produced_columns():
            if col.cid not in mapping:
                mapping[col.cid] = col.fresh_copy()

        if isinstance(node, Get):
            new_cols = [mapping[c.cid] for c in node.columns]
            new_keys = [tuple(mapping[c.cid] for c in k)
                        for k in node.key_columns]
            return Get(node.table_name, new_cols, new_keys, node.table)
        if isinstance(node, ConstantScan):
            return ConstantScan([mapping[c.cid] for c in node.columns],
                                node.rows)
        if isinstance(node, SegmentRef):
            return SegmentRef([mapping[c.cid] for c in node.columns])

        rebuilt = node.with_children(children)
        rebuilt = _remap_column_slots(rebuilt, mapping)
        rebuilt = rebuilt.map_expressions(
            lambda e: e.remap_columns(mapping))
        rebuilt = _remap_produced_columns(rebuilt, mapping)
        return rebuilt

    return clone(rel), mapping


def _remap_produced_columns(node: RelationalOp,
                            mapping: Mapping[int, Column]) -> RelationalOp:
    """Rewrite the *output* column slots of one node (for cloning)."""

    def m(col: Column) -> Column:
        return mapping.get(col.cid, col)

    if isinstance(node, Project):
        return Project(node.child, [(m(c), e) for c, e in node.items])
    if isinstance(node, GroupBy):
        return GroupBy(node.child, node.group_columns,
                       [(m(c), a) for c, a in node.aggregates])
    if isinstance(node, ScalarGroupBy):
        return ScalarGroupBy(node.child,
                             [(m(c), a) for c, a in node.aggregates])
    if isinstance(node, LocalGroupBy):
        return LocalGroupBy(node.child, node.group_columns,
                            [(m(c), a) for c, a in node.aggregates])
    if isinstance(node, UnionAll):
        return UnionAll(node.inputs, [m(c) for c in node.columns],
                        node.input_maps)
    if isinstance(node, Difference):
        return Difference(node.left, node.right,
                          [m(c) for c in node.columns],
                          node.left_map, node.right_map)
    return node


def collect_nodes(rel: RelationalOp,
                  predicate: Callable[[RelationalOp], bool] | None = None
                  ) -> list[RelationalOp]:
    """All nodes of the tree (pre-order), optionally filtered.

    Descends into relational subtrees embedded in scalar expressions (the
    pre-normalization subquery form) as well as ordinary children.
    """
    result: list[RelationalOp] = []

    def visit_expr(expr: ScalarExpr) -> None:
        for sub in expr.relational_children:
            visit(sub)
        for child in expr.children:
            visit_expr(child)

    def visit(node: RelationalOp) -> None:
        if predicate is None or predicate(node):
            result.append(node)
        for expr in node.local_expressions():
            visit_expr(expr)
        for child in node.children:
            visit(child)

    visit(rel)
    return result
