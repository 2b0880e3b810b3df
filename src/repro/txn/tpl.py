"""Two-phase locking over N-CoSED distributed locks.

The pessimistic variant: before touching any data, acquire a per-key
exclusive lock from an :class:`repro.dlm.NCoSEDManager` for every key
in the read set, in canonical (sorted) key order — total ordering makes
deadlock impossible.  Data access then reuses the same snapshot /
claim / publish path as OCC: with every key exclusively locked the CAS
claims cannot conflict with other 2PL transactions, but they still
catch an OCC transaction racing the same keys, an FT lease that was
revoked mid-transaction, or a unit rebalanced under our feet — the
version word remains the final authority (defense in depth).

Growing phase = lock acquisition, one lock at a time; shrinking phase =
every held lock released at once, whether the attempt committed or
aborted (strict 2PL).  Under a fault-tolerant lock manager
``acquire`` can raise :class:`repro.errors.LockError` after its retry
budget — that aborts the attempt cleanly and the bounded txn retry loop
takes over.
"""

from __future__ import annotations

from typing import Dict

from repro.dlm.base import LockClient, LockMode
from repro.errors import FaultError, LockError, RdmaError, TxnError
from repro.sim import settle
from repro.txn.base import Txn, TxnClient, _raise_unless

__all__ = ["TwoPLTxnClient"]


class TwoPLTxnClient(TxnClient):
    """Pessimistic variant: lock all keys, then snapshot and install.

    ``lock_of`` maps unit keys to lock ids in the manager's lock table;
    every key a transaction touches must be mapped.
    """

    VARIANT = "2pl"

    def __init__(self, store, locks: LockClient, lock_of: Dict[int, int],
                 max_attempts: int = 8):
        super().__init__(store, max_attempts=max_attempts)
        self.locks = locks
        self.lock_of = dict(lock_of)

    def _attempt(self, txn: Txn, tid: int, attempt: int, keys):
        try:
            lock_ids = [self.lock_of[k] for k in keys]
        except KeyError as exc:
            raise TxnError(f"{txn.label}: key {exc} has no mapped lock")
        held = []
        failure = None
        try:
            # one at a time, in canonical order: queue locks taken
            # together would hold-and-wait into a deadlock
            for lid in lock_ids:
                yield self.locks.acquire(lid, LockMode.EXCLUSIVE)
                held.append(lid)
            snaps = yield from self._read_phase(tid, attempt, keys)
            writes = self._compute(txn, snaps)
            wkeys = yield from self._claim_and_validate(
                tid, attempt, snaps, writes)
            yield from self._publish(tid, attempt, snaps, writes, wkeys)
        except Exception as exc:
            # not ``finally``: an attempt cut off at the horizon is
            # closed by the interpreter, and a closing generator must
            # not yield
            failure = exc
        # a lost lease or dead home: the reaper reclaims it
        _raise_unless((yield from settle(
            [self.locks.release(lid) for lid in held])),
            (LockError, FaultError, RdmaError))
        if failure is not None:
            raise failure
        return writes
