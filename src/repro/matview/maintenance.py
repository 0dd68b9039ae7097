"""Incremental maintenance: per-commit deltas in local-aggregate form.

When a transaction commits inserts into a view's base table, the view is
not recomputed; the inserted rows are folded in.  This is the paper's
§3.3 split applied to maintenance:

* ``local_aggregate`` computes the *local* form of just the delta — one
  partial row per affected group (``count(*)``, per-column
  ``sum``/``count``/``min``/``max`` with NULLs skipped) — over the delta
  rows the view's WHERE keeps;
* ``merge`` combines those partials into the current backing rows — the
  *global* step — which is correct precisely because every aggregate the
  view stores is decomposable (``sum``/``count`` add, ``min``/``max``
  take extrema, and ``avg`` is never stored, only re-derived).

The WHERE is not interpreted here: :func:`where_filter` binds the
view's :meth:`~MatViewDef.storage_sql` and compiles its predicate with
the vectorized executor's compiler, so build, REFRESH, recovery and
maintenance all filter with the same engine code.

Both steps run inside ``Storage.install_many`` under the view's writer
lock, so the new view version installs in the *same* snapshot swap as
the base-table version: readers never observe a base/view mismatch.

Caveat (documented in DESIGN.md): float ``SUM`` is merged as
``old_sum + delta_sum``, which can differ in the last ulp from a
left-to-right recomputation because float addition is not associative.
Integer and decimal sums are exact.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..algebra.relational import Get, Select
from ..binder import Binder
from ..catalog import Catalog, TableDef
from ..executor.expressions import build_layout
from ..executor.vector_expressions import CompiledVector, compile_vector
from ..executor.vectorized import Batch
from ..sql import parse
from .definition import MatViewDef

RowMap = dict[str, Any]


def where_filter(catalog: Catalog,
                 viewdef: MatViewDef) -> Optional[CompiledVector]:
    """The view's WHERE compiled against the base table's row layout;
    ``None`` for a view without one.

    The bound defining query is ``Project(GroupBy(Select(Get(base))))``
    with the ``Get`` columns in table order, so a batch built from base
    rows lines up with the predicate's column references.
    """
    if not viewdef.conjuncts:
        return None
    rel = Binder(catalog).bind(parse(viewdef.storage_sql())).rel
    while not isinstance(rel, Select):
        (rel,) = rel.children
    assert isinstance(rel.child, Get)
    return compile_vector(rel.predicate, build_layout(rel.child.columns))


def local_aggregate(viewdef: MatViewDef, base: TableDef,
                    rows: Sequence[tuple],
                    where: Optional[CompiledVector]) -> dict[tuple, RowMap]:
    """Per-group partial aggregates of the delta rows.

    Returns ``group key -> partials`` in first-seen group order (dicts
    preserve insertion order).  With a ``where`` filter (see
    :func:`where_filter`) only the rows it holds TRUE are folded — 3VL,
    exactly the rows the defining query keeps.
    """
    if where is not None and rows:
        mask = where(Batch([list(c) for c in zip(*rows)], len(rows)), {})
        rows = [values for values, keep in zip(rows, mask) if keep is True]
    names = base.column_names
    deltas: dict[tuple, RowMap] = {}
    for values in rows:
        row = dict(zip(names, values))
        key = tuple(row[col] for col in viewdef.group_cols)
        partial = deltas.get(key)
        if partial is None:
            partial = {"cnt_star": 0}
            for spec in viewdef.tracked:
                if spec.needs_sum:
                    partial[f"sum_{spec.column}"] = None
                if spec.needs_cnt:
                    partial[f"cnt_{spec.column}"] = 0
                if spec.needs_min:
                    partial[f"min_{spec.column}"] = None
                if spec.needs_max:
                    partial[f"max_{spec.column}"] = None
            deltas[key] = partial
        partial["cnt_star"] += 1
        for spec in viewdef.tracked:
            value = row[spec.column]
            if value is None:
                continue
            if spec.needs_sum:
                partial[f"sum_{spec.column}"] = _add(
                    partial[f"sum_{spec.column}"], value)
            if spec.needs_cnt:
                partial[f"cnt_{spec.column}"] += 1
            if spec.needs_min:
                partial[f"min_{spec.column}"] = _extremum(
                    partial[f"min_{spec.column}"], value, min)
            if spec.needs_max:
                partial[f"max_{spec.column}"] = _extremum(
                    partial[f"max_{spec.column}"], value, max)
    return deltas


def merge(viewdef: MatViewDef, backing: TableDef,
          current_rows: Sequence[tuple],
          deltas: dict[tuple, RowMap]) -> list[tuple]:
    """Fold per-group deltas into the current backing rows.

    Existing groups keep their row position; new groups append in
    first-seen delta order.  The result is the complete new backing
    contents (inserts only — the engine has no DELETE/UPDATE, so counts
    never reach zero and groups never disappear).
    """
    names = backing.column_names
    key_width = len(viewdef.group_cols)
    pending = dict(deltas)
    merged: list[tuple] = []
    for values in current_rows:
        key = values[:key_width]
        partial = pending.pop(key, None)
        if partial is None:
            merged.append(values)
            continue
        row = dict(zip(names, values))
        row["cnt_star"] += partial["cnt_star"]
        for spec in viewdef.tracked:
            if spec.needs_sum:
                name = f"sum_{spec.column}"
                row[name] = _add(row[name], partial[name])
            if spec.needs_cnt:
                name = f"cnt_{spec.column}"
                row[name] += partial[name]
            if spec.needs_min:
                name = f"min_{spec.column}"
                row[name] = _extremum(row[name], partial[name], min)
            if spec.needs_max:
                name = f"max_{spec.column}"
                row[name] = _extremum(row[name], partial[name], max)
        merged.append(tuple(row[name] for name in names))
    for key, partial in pending.items():
        row = dict(zip(viewdef.group_cols, key))
        row.update(partial)
        merged.append(tuple(row[name] for name in names))
    return merged


def _add(current: Any, value: Any) -> Any:
    """NULL-skipping sum step: SUM ignores NULL inputs entirely."""
    if value is None:
        return current
    if current is None:
        return value
    return current + value


def _extremum(current: Any, value: Any, pick) -> Any:
    if value is None:
        return current
    if current is None:
        return value
    return pick(current, value)
