"""Materialized aggregate views: rewrite, maintenance, selection.

This package stores the paper's §3.3 *local-aggregate* form as a real
table and exploits its decomposability three ways:

* **matching + rewrite** (:mod:`.canonical`, :mod:`.matcher`) — queries
  whose canonical fingerprint a view subsumes (same base, contained
  predicate, equal-or-coarser grouping) are transparently recompiled to
  re-aggregate the view's backing rows in global-aggregate form, with
  stored counts making ``AVG``/``COUNT`` compose;
* **incremental maintenance** (:mod:`.maintenance`, :mod:`.manager`) —
  commits into a base table fold their delta into affected views inside
  the same snapshot install, so base and view versions move together;
* **workload-driven selection** (:mod:`.advisor`) — hot aggregate
  fingerprints mined from the plan cache become recommended (or
  auto-created) views.
"""

from .advisor import DEFAULT_MIN_HITS, auto_materialize, recommend
from .canonical import AggSpec, CanonicalAggregate, canonicalize
from .definition import MatViewDef, MatViewError, TrackedColumn
from .maintenance import local_aggregate, merge, where_filter
from .manager import (MATVIEW_LOCK_TIMEOUT, MatViewManager,
                      Recommendation)
from .matcher import match_rewrite

__all__ = ["AggSpec", "CanonicalAggregate", "DEFAULT_MIN_HITS",
           "MATVIEW_LOCK_TIMEOUT", "MatViewDef", "MatViewError",
           "MatViewManager", "Recommendation", "TrackedColumn",
           "auto_materialize", "canonicalize", "local_aggregate",
           "match_rewrite", "merge", "recommend", "where_filter"]
