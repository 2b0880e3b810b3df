"""Cooperative caching schemes for multi-tier data-centers (paper §5.1).

Five schemes over a common interface (ref [13]):

* :class:`ApacheCache` (AC) — per-proxy LRU, no cooperation (baseline).
* :class:`BasicCooperativeCache` (BCC) — proxies aggregate their caches:
  a miss consults the RDMA-readable directory and pulls the document
  from a peer's memory with a one-sided read; copies may be duplicated.
* :class:`CacheWithoutRedundancy` (CCWR) — exactly one copy cluster-wide
  at the document's home proxy; bigger effective cache, every non-home
  access is remote.
* :class:`MultiTierAggregateCache` (MTACC) — CCWR over an extended node
  set that aggregates memory from additional (app-tier) nodes.
* :class:`HybridCache` (HYBCC) — small documents use the duplicating
  fast path, large documents the single-copy aggregate path.

The schemes move real 8-byte document tokens over the simulated fabric
(timed at full document size) so correctness is checkable end to end.
"""

from repro.cache.base import CoopCacheBase
from repro.cache.directory import CacheDirectory
from repro.cache.schemes import (
    ApacheCache,
    BasicCooperativeCache,
    CacheWithoutRedundancy,
    HybridCache,
    MultiTierAggregateCache,
    SCHEMES,
)
from repro.cache.store import LRUStore

__all__ = [
    "ApacheCache",
    "BasicCooperativeCache",
    "CacheDirectory",
    "CacheWithoutRedundancy",
    "CoopCacheBase",
    "HybridCache",
    "LRUStore",
    "MultiTierAggregateCache",
    "SCHEMES",
]
