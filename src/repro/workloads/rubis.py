"""RUBiS-like auction-site workload (paper Fig. 8b, ref [1]).

The Rice University Bidding System models an eBay-style site.  We keep
its defining property for the monitoring experiments: *divergent*
per-request resource usage — browse requests are cheap, searches and
bids are CPU-heavy — so node load swings quickly and coarse-grained
monitoring misjudges it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["RubisTxn", "RubisMix"]


@dataclass(frozen=True)
class RubisTxn:
    """One transaction type of the auction site."""

    name: str
    weight: float      # share of the mix
    cpu_us: float      # server CPU demand
    resp_bytes: int    # response size


#: the default transaction mix (browsing-heavy, like RUBiS' default)
DEFAULT_MIX: List[RubisTxn] = [
    RubisTxn("home", 0.16, 30.0, 4_096),
    RubisTxn("browse-categories", 0.22, 60.0, 12_288),
    RubisTxn("view-item", 0.28, 90.0, 8_192),
    RubisTxn("search-items", 0.12, 700.0, 16_384),
    RubisTxn("put-bid", 0.10, 260.0, 2_048),
    RubisTxn("buy-now", 0.05, 220.0, 2_048),
    RubisTxn("sell-item", 0.04, 450.0, 4_096),
    RubisTxn("about-me", 0.03, 350.0, 10_240),
]


class RubisMix:
    """Seeded sampler over the transaction mix."""

    def __init__(self, rng: np.random.Generator):
        self.mix = DEFAULT_MIX
        weights = np.array([t.weight for t in self.mix], dtype=np.float64)
        self._p = weights / weights.sum()
        self._rng = rng

    def next(self) -> RubisTxn:
        idx = int(self._rng.choice(len(self.mix), p=self._p))
        return self.mix[idx]

    def mean_cpu_us(self) -> float:
        return float(sum(t.cpu_us * p for t, p in zip(self.mix, self._p)))
