"""Order statistics shared by the workloads."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def median_of_dicts(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over rows that share their keys."""
    return {key: median([row[key] for row in rows]) for key in rows[0]}
