"""EXPLAIN-style rendering of operator trees.

``explain`` prints the tree with two-space indentation, descending into
relational subtrees embedded in scalar expressions (the pre-normalization
Figure 3 form) as well as ordinary children.

``plan_signature`` renders the same tree with column ids normalized to their
order of first appearance, so two plans that are identical up to column
identity compare equal — the basis of the syntax-independence tests
(paper Section 1.2).
"""

from __future__ import annotations

import hashlib
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .relational import RelationalOp


def explain(rel: "RelationalOp") -> str:
    """Human-readable multi-line rendering of an operator tree."""
    lines: list[str] = []
    _render(rel, 0, lines)
    return "\n".join(lines)


def _render(rel: "RelationalOp", depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    lines.append(f"{indent}{rel.label()}")
    for expr in rel.local_expressions():
        for sub in _relational_children(expr):
            lines.append(f"{indent}  [subquery]")
            _render(sub, depth + 2, lines)
    for child in rel.children:
        _render(child, depth + 1, lines)


def _relational_children(expr) -> list:
    """All relational subtrees anywhere inside a scalar expression."""
    found = list(expr.relational_children)
    for child in expr.children:
        found.extend(_relational_children(child))
    return found


#: A column id (the ``#17`` of ``name#17``), or a whole single-quoted
#: string literal (``''`` escapes a quote) so that ids are never read
#: inside one: ``'Brand#12'`` is text, not column 12.
_CID_PATTERN = re.compile(r"'(?:[^']|'')*'|#(\d+)")


def plan_signature(rel: "RelationalOp") -> str:
    """Rendering with column ids replaced by first-appearance ordinals.

    Two structurally identical plans over distinct column identities (for
    example, the optimized plans of two equivalent SQL formulations) yield
    the same signature.  Physical plans are accepted as well: they print
    themselves (via ``explain_physical``), and their column ids are
    normalized the same way.  String literals are kept verbatim, so plans
    that differ in one never share a signature.
    """
    if hasattr(rel, "local_expressions"):
        text = explain(rel)
    else:
        text = repr(rel)
    mapping: dict[str, str] = {}

    def normalize(match: re.Match) -> str:
        cid = match.group(1)
        if cid is None:  # a string literal
            return match.group(0)
        if cid not in mapping:
            mapping[cid] = f"c{len(mapping) + 1}"
        return "#" + mapping[cid]

    return _CID_PATTERN.sub(normalize, text)


def plan_fingerprint(rel: "RelationalOp") -> str:
    """A short, stable hash of the printed tree.

    Computed over :func:`plan_signature`, so the fingerprint is
    independent of the process-global column-id counter: the same query
    compiled in two processes (or twice in one) fingerprints identically.
    Used by the analyzer's blame reports and by golden-plan tests.
    """
    signature = plan_signature(rel)
    return hashlib.sha256(signature.encode("utf-8")).hexdigest()[:12]
