"""Distributed lock managers (paper §4.2, ref [14]).

The paper's three schemes over the same interface:

* :class:`SRSLManager` — traditional **S**\\ end/**R**\\ eceive-based
  **S**\\ erver **L**\\ ocking: a lock-server process on each lock's home
  node services two-sided requests, so every operation pays message +
  server-CPU costs (and inflates under load).
* :class:`DQNLManager` — **D**\\ istributed **Q**\\ ueue **N**\\ on-shared
  **L**\\ ocking (Devulapalli & Wyckoff, ref [10]): one-sided CAS builds a
  distributed MCS-style queue, but *every* lock is exclusive — shared
  requests serialize.
* :class:`NCoSEDManager` — the paper's **N**\\ etwork-based
  **Co**\\ mbined **S**\\ hared/**E**\\ xclusive **D**\\ istributed locking:
  the 64-bit lock word packs (exclusive-tail, shared-count); exclusive
  requests use CAS, shared requests use fetch-and-add, so concurrent
  shared locks are granted without serialization.

Two arena designs from the follow-on literature (see PAPERS.md) round
out the lock tournament.  They and N-CoSED are three sets of hooks over
one substrate, :mod:`repro.dlm.ft`, which owns the lock-word layout,
the epochs, the reaper and the bounded-retry acquire; pass ``lease_us``
to any of the three managers to turn recovery on (without it the same
code runs with the epoch pinned at 0):

* :class:`MCSManager` — RDMA-MCS: per-client queue node in registered
  memory, tail swap via CAS, next-pointer write for hand-off, with
  crash-of-queue-member recovery via epoch fencing.
* :class:`ALockManager` — asymmetric cohort lock: cheap local-cohort
  pass-off up to a budget, Peterson-style tournament word on cohort
  handover so neither cohort starves.

All managers expose ``client(node)`` returning a
:class:`~repro.dlm.base.LockClient` with ``acquire(lock_id, mode)`` /
``release(lock_id)`` returning simulation events.
"""

from repro.dlm.alock import ALockManager
from repro.dlm.base import LockClient, LockManagerBase, LockMode
from repro.dlm.bench import cascade_latency, uncontended_latency
from repro.dlm.dqnl import DQNLManager
from repro.dlm.mcs import MCSManager
from repro.dlm.ncosed import NCoSEDManager
from repro.dlm.srsl import SRSLManager

__all__ = [
    "ALockManager",
    "DQNLManager",
    "LockClient",
    "LockManagerBase",
    "LockMode",
    "MCSManager",
    "NCoSEDManager",
    "SRSLManager",
    "cascade_latency",
    "uncontended_latency",
]
