"""Trace-replay correctness oracles (``repro check``).

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
  dirty reads, or torn installs);
* :class:`HAOracle` — declared failover (non-)expectations hold;
* :class:`FlowOracle`, :class:`RpcOracle`,
  :class:`SingleOwnerOracle` — flow-control credit and ring
  conservation, at-most-once RPC execution, one owner per DDSS unit
  lock.

On a violation, :func:`shrink` reduces the trace to a small reproducer
(truncate → scope filter → verified prefix bisection).  :func:`judge`
replays one trace through :data:`ALL_ORACLES` and decides its verdict;
the packaged scenarios and the judged run that feeds it live one layer
up in :mod:`repro.scenarios`, and :func:`metamorphic_sweep` drives that
table across seeds and node counts through :mod:`repro.lab`.
"""

from .trace import TRACE_FORMAT, Oracle, TraceView, replay, replay_fresh
from .locks import LockOracle
from .ddss import DDSSOracle, SingleOwnerOracle
from .cache import CacheOracle
from .ha import HAOracle
from .txn import TxnOracle
from .transport import FlowOracle, RpcOracle
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
    "FlowOracle",
    "RpcOracle",
    "SingleOwnerOracle",
    "shrink",
    "ALL_ORACLES",
    "add_reproducer",
    "canonical_trace_sha",
    "check_trace",
    "judge",
    "metamorphic_sweep",
]
