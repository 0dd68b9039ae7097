"""Noise-robust estimators shared by the harness, the A/A tool and the
smoke test.

Every latency metric is a function of *per-class medians*: a class median
ignores the stalls a shared 2-core sandbox adds to a minority of samples,
and a quantile taken over class medians cannot jump because a pooled
percentile happened to sit on the boundary between a cheap and a dear
class.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def weighted_quantile(medians: Mapping[str, float],
                      shares: Mapping[str, float], q: float) -> float:
    """The ``q``-quantile of class medians weighted by class share.

    Classes are sorted by median; the answer is the median of the class
    whose cumulative share contains ``q``, or — exactly on the boundary
    between two classes — the mean of the two neighbours.
    """
    total = float(sum(shares[name] for name in medians))
    ordered = sorted(medians, key=medians.__getitem__)
    cumulative = 0.0
    for index, name in enumerate(ordered):
        cumulative += shares[name] / total
        if math.isclose(cumulative, q, abs_tol=1e-9):
            if index + 1 < len(ordered):
                return (medians[name] + medians[ordered[index + 1]]) / 2
            return medians[name]
        if cumulative > q:
            return medians[name]
    return medians[ordered[-1]]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
