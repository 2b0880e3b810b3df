"""Zipf document popularity (the paper's web-trace model).

Document ``i`` (1-based rank) is requested with probability proportional
to ``1 / i**alpha``.  Higher ``alpha`` = more temporal locality (the
paper sweeps alpha over {0.9, 0.75, 0.5, 0.25} in Fig. 8b).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

__all__ = ["zipf_pmf", "ZipfGenerator"]


def zipf_pmf(n_docs: int, alpha: float) -> np.ndarray:
    """Probability mass over ranks 1..n (returned as array index 0..n-1)."""
    if n_docs <= 0:
        raise ConfigError("need at least one document")
    if not 0 <= alpha < math.inf:  # NaN fails every comparison
        raise ConfigError(f"alpha must be finite and non-negative, "
                          f"got {alpha}")
    weights = 1.0 / np.arange(1, n_docs + 1, dtype=np.float64) ** alpha
    return weights / weights.sum()


class ZipfGenerator:
    """Seeded stream of document ids in ``[0, n_docs)`` (0 = hottest)."""

    def __init__(self, n_docs: int, alpha: float,
                 rng: np.random.Generator):
        self.n_docs = n_docs
        self.alpha = alpha
        self._rng = rng
        self._cdf = np.cumsum(zipf_pmf(n_docs, alpha))
        self._cdf[-1] = 1.0  # guard against fp round-off

    def next(self) -> int:
        """One document id."""
        return int(np.searchsorted(self._cdf, self._rng.random(),
                                   side="right"))

    def batch(self, n: int) -> np.ndarray:
        """``n`` document ids at once (vectorized)."""
        return np.searchsorted(self._cdf, self._rng.random(n),
                               side="right").astype(np.int64)
