"""Execution modes and engines: *which* pipeline runs, and on what runtime.

``ExecutionMode`` bundles the paper-relevant configurations:

* ``FULL`` — every technique (the paper's system);
* ``DECORRELATE_ONLY`` — subquery flattening but no GroupBy reordering,
  local aggregates or segmented execution;
* ``CORRELATED`` — normalization keeps Apply (no flattening); execution is
  nested-loops correlated, though the executor may still pick indexes;
* ``NAIVE`` — direct interpretation of the bound tree with mutual
  scalar/relational recursion (the paper's Section 2.1 strawman).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.normalize import NormalizeConfig
from .core.optimizer import OptimizerConfig


@dataclass(frozen=True)
class ExecutionMode:
    """One engine configuration (normalization + optimizer switches)."""

    name: str
    normalize_config: NormalizeConfig = field(default_factory=NormalizeConfig)
    optimizer_config: OptimizerConfig = field(default_factory=OptimizerConfig)
    use_naive_interpreter: bool = False


FULL = ExecutionMode("full")

DECORRELATE_ONLY = ExecutionMode(
    "decorrelate_only",
    optimizer_config=OptimizerConfig(
        groupby_reorder=False, local_aggregates=False, segment_apply=False,
        semijoin_rewrites=False))

CORRELATED = ExecutionMode(
    "correlated",
    normalize_config=NormalizeConfig(decorrelate=False),
    optimizer_config=OptimizerConfig(
        groupby_reorder=False, local_aggregates=False, segment_apply=False,
        semijoin_rewrites=False, join_reorder=False))

NAIVE = ExecutionMode("naive", use_naive_interpreter=True)

MODES = {mode.name: mode for mode in (FULL, DECORRELATE_ONLY, CORRELATED,
                                      NAIVE)}

#: Execution engines: how a chosen physical plan is evaluated.  The
#: optimizer pipeline is identical for both — only the runtime differs.
#: ``"tuple"`` is the iterator (tuple-at-a-time) executor, ``"vectorized"``
#: the batch-at-a-time columnar executor.  (``mode="naive"`` bypasses
#: physical planning entirely and ignores the engine.)
ENGINES = ("tuple", "vectorized")
