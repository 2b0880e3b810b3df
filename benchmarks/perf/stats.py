"""Estimators: how k noisy host-clock samples and n exact simulated
samples become one reported number each."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

__all__ = ["sum_of_mins", "spread", "percentile", "P99_MIN_SAMPLES"]

#: a p99 needs ten samples beyond it to mean anything
P99_MIN_SAMPLES = 1000


def sum_of_mins(per_cell: Sequence[Sequence[float]]) -> float:
    """``Σ_cells min_k``: the host-clock estimator.

    Interference from the shared box only ever adds time, so each
    cell's minimum over the k rounds is its least-disturbed sample;
    summing per-cell minima (not taking the minimum of per-round sums)
    lets different cells have their quiet round at different times.
    """
    return sum(min(samples) for samples in per_cell)


def spread(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count — printed, never gated."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "k": len(samples)}


def percentile(sorted_samples: List[float], p: float) -> Optional[float]:
    """Nearest-rank percentile of exact samples (already sorted).

    ``None`` for p99 and above when fewer than
    :data:`P99_MIN_SAMPLES` samples exist, and for an empty list.
    """
    n = len(sorted_samples)
    if n == 0 or (p >= 99.0 and n < P99_MIN_SAMPLES):
        return None
    return sorted_samples[max(0, math.ceil(p / 100.0 * n) - 1)]
