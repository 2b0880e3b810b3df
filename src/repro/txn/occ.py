"""Optimistic concurrency control over one-sided verbs.

The classic one-sided OCC shape (FaRM/DrTM lineage, applied to the
paper's DDSS unit layout): read everything without coordination, then
make the version words themselves the commit protocol.

Per attempt, each step posting its verbs for every key at once and
waiting one round trip for all of them:

1. **Read** — snapshot every key in the read set (one RDMA read each,
   version + payload in a single atomic transfer).
2. **Validate/claim** — CAS each *write-set* version word from the
   snapshot version to ``version | INSTALL_BIT``; then, once every
   claim has landed, re-read each *read-only* key's version word and
   require it unchanged.  Any mismatch aborts: the claims that landed
   are CAS-restored and the attempt retries after a jittered backoff.
3. **Install** — one RDMA write per write-set key publishing
   ``(version + 1, new data)`` atomically, which also clears the busy
   bit.  A publish that lands is the commit point.

No locks, no server CPU on the data path — aborts are the cost of
contention, which the ``txn`` lab sweep measures against 2PL.
"""

from __future__ import annotations

from repro.txn.base import Txn, TxnClient

__all__ = ["OCCTxnClient"]


class OCCTxnClient(TxnClient):
    """Optimistic variant: snapshot, CAS-validate, install."""

    VARIANT = "occ"

    def _attempt(self, txn: Txn, tid: int, attempt: int, keys):
        snaps = yield from self._read_phase(tid, attempt, keys)
        writes = self._compute(txn, snaps)
        wkeys = yield from self._claim_and_validate(
            tid, attempt, snaps, writes)
        yield from self._publish(tid, attempt, snaps, writes, wkeys)
        return writes
