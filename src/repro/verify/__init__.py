"""Offline trace-replay correctness oracles (``repro check``).

Differential checking for the protocol layers: a run's full event trace
(``repro-trace-v1``, exported by the obs layer) is replayed against
sequential reference models — the *oracles* — which flag the first
divergence from each protocol's contract:

* :class:`LockOracle` — mutual exclusion, FIFO/fairness, and epoch
  fencing for the three DLM designs (N-CoSED, DQNL, SRSL);
* :class:`DDSSOracle` — per-coherence-model read/write contracts
  (atomic snapshots, serialized puts, version monotonicity, DELTA and
  TEMPORAL staleness bounds, lost updates);
* :class:`CacheOracle` — cooperative-cache hits serve the committed
  content from a store that really held it, with exact accounting;
* :class:`TxnOracle` — committed multi-key transactions form a
  serializable history (acyclic dependency graph, no lost updates,
  dirty reads, or torn installs).

On a violation, :func:`shrink` reduces the trace to a small reproducer
(truncate → scope filter → verified prefix bisection).  :func:`judge`
replays one trace through :data:`ALL_ORACLES` and decides its verdict;
the packaged scenarios and the judged run that feeds it live one layer
up in :mod:`repro.scenarios`, and :func:`metamorphic_sweep` drives that
table across kernels, seeds, and node counts through :mod:`repro.lab`,
diffing the deterministic exports.
"""

from .trace import TRACE_FORMAT, Oracle, TraceView, replay, replay_fresh
from .locks import LockOracle
from .ddss import DDSSOracle
from .cache import CacheOracle
from .ha import HAOracle
from .txn import TxnOracle
from .shrink import shrink
from .suites import (ALL_ORACLES, add_reproducer, canonical_trace_sha,
                     check_trace, judge)
from .metamorphic import metamorphic_sweep

__all__ = [
    "TRACE_FORMAT",
    "TraceView",
    "Oracle",
    "replay",
    "replay_fresh",
    "LockOracle",
    "DDSSOracle",
    "CacheOracle",
    "HAOracle",
    "TxnOracle",
    "shrink",
    "ALL_ORACLES",
    "add_reproducer",
    "canonical_trace_sha",
    "check_trace",
    "judge",
    "metamorphic_sweep",
]
