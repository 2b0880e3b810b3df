"""DQNL — Distributed Queue based Non-shared Locking (ref [10]).

One-sided locking with a single 64-bit word per lock on the home node
holding the *tail token* of a distributed MCS-style queue (0 = free).

* acquire: CAS the word from its current value to our token.  If the old
  value was 0 we hold the lock; otherwise we notify the previous tail
  that we are its successor and wait for its hand-off message.
* release: if a successor has announced itself, hand the lock straight
  to it (peer-to-peer, the home node is not involved); otherwise CAS the
  word from our token back to 0 (and if that fails, a successor is in
  flight — wait for its announcement and hand off).

Limitation reproduced faithfully from the original scheme: there is no
shared mode — ``LockMode.SHARED`` requests are serialized exactly like
exclusive ones, which is why shared-cascade latency is linear in the
number of waiters (paper Fig. 5a).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import LockError
from repro.net.node import Node

from repro.dlm.base import LockClient, LockManagerBase, LockMode

__all__ = ["DQNLManager", "DQNLClient"]


class DQNLManager(LockManagerBase):
    SCHEME = "dqnl"
    WORDS = "dqnl-words"

    def client(self, node: Node) -> "DQNLClient":
        return DQNLClient(self, node)


class DQNLClient(LockClient):
    def __init__(self, manager: DQNLManager, node: Node):
        super().__init__(manager, node)
        #: locks we currently hold
        self._held: Dict[int, LockMode] = {}

    def _acquire(self, lock_id: int, mode: LockMode):
        if lock_id in self._held:
            raise LockError(f"client {self.token} already holds {lock_id}")
        home, addr, rkey = self.manager._word_at[lock_id]
        nic = self.node.nic
        expected = 0
        while True:
            old = yield nic.cas(home, addr, rkey, expected, self.token)
            if old == expected:
                break
            # CAS failed: retry against the value we just observed (this
            # also covers the word having gone back to 0 underneath us)
            expected = old
        if self.env.obs is not None:
            self._obs_enqueue(lock_id, mode, prev=expected)
        if expected != 0:
            # enqueued behind the previous tail: announce, await hand-off
            self._peer_send(expected, {"t": "succ", "lock": lock_id,
                                       "frm": self.token})
            yield from self._wait(lock_id, "grant")
        self._held[lock_id] = mode
        self.manager._ledger_grant(lock_id, self.token, mode, None, None)
        return None

    def _release(self, lock_id: int):
        if lock_id not in self._held:
            raise LockError(f"client {self.token} does not hold {lock_id}")
        del self._held[lock_id]
        self.manager._ledger_release(lock_id, self.token)
        succ = self._take_successor(lock_id)
        if succ is not None:
            self._peer_send(succ, {"t": "grant", "lock": lock_id})
            return
            yield  # pragma: no cover
        home, addr, rkey = self.manager._word_at[lock_id]
        old = yield self.node.nic.cas(home, addr, rkey, self.token, 0)
        if old != self.token:
            # a successor swapped itself in concurrently; its announcement
            # is in flight — wait for it, then hand off
            body = yield from self._wait(lock_id, "succ")
            self._peer_send(body["frm"], {"t": "grant", "lock": lock_id})
        return None

    def _take_successor(self, lock_id: int) -> Optional[int]:
        """Non-blocking check whether a successor already announced."""
        q = self._queues.get((lock_id, "succ"))
        if q is None or not q._items:
            return None
        return q.try_get()[1]["frm"]
