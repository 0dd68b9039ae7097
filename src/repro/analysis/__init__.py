"""Static plan analysis: invariant verification without execution.

The analyzer checks logical and physical operator trees for
well-formedness (column-reference integrity, schema consistency,
correlation scoping) and re-derives the paper's rule-specific legality
conditions at every rewrite application.  See DESIGN.md, "Invariant
catalog", for the full list of checks and the strictness modes.

Run as a lint tool with ``python -m repro.analysis query.sql``.
"""

from .analyzer import (ENV_VAR, OFF, STRICT, WARN, PlanAnalysisWarning,
                       PlanAnalyzer, analysis_mode)
from .invariants import verify_logical
from .issues import AnalysisIssue, render_issues
from .physical import (verify_batch_layout, verify_physical,
                       verify_required_columns)
from .rulechecks import RULE_CHECKS, verify_oj_simplification

__all__ = [
    "AnalysisIssue",
    "ENV_VAR",
    "OFF",
    "PlanAnalysisWarning",
    "PlanAnalyzer",
    "RULE_CHECKS",
    "STRICT",
    "WARN",
    "analysis_mode",
    "render_issues",
    "verify_batch_layout",
    "verify_logical",
    "verify_oj_simplification",
    "verify_physical",
    "verify_required_columns",
]
