"""RDMA-MCS queue lock (arena design #4).

The classic MCS lock mapped onto one-sided verbs, after *Using RDMA for
Lock Management*: the home holds one 64-bit tail word per lock
(substrate layout: epoch | tail token | unused), and every client
keeps a per-lock *queue node* in its own registered memory — a next
slot its successor writes into, and a grant slot its predecessor writes
into.

Acquire is a single CAS swapping the tail to the requester's token: it
guesses a free tail under the manager's current epoch, and a CAS that
loses returns the word to swap against next — the tail is never read.  A
nonzero old tail is the predecessor: the requester RDMA-writes its own
token into the predecessor's next slot and then spins on its local
grant slot (modelled as a zero-network-cost signal at the writer's
completion instant).  Release writes the grant word into the
successor's queue node; with no known successor it CASes the tail from
its own token back to zero, and only if that fails (a successor swapped
the tail but its next-write is still in flight) does it wait for the
next-pointer to surface.

Queue-member crashes are handled by the shared epoch-fencing base
(:mod:`repro.dlm.ft`): the reaper wipes the tail word under a bumped
epoch whenever a queue member dies (dead holder, dead active waiter, or
an orphaned tail), every queued message and grant slot carries the
epoch of its tenure, and survivors whose epoch has moved re-run the
whole CAS-enqueue under the new epoch.

SHARED mode is serialized through the same queue (like DQNL): MCS has
no reader counting, so readers simply take turns.  Use N-CoSED when
shared-cascade throughput matters.
"""

from __future__ import annotations

from repro.net.node import Node

from repro.dlm.base import CLIENT_POLL_US, LockMode
from repro.dlm.ft import EpochFencedClient, EpochFencedManager, _Stale, unpack

__all__ = ["MCSManager", "MCSClient"]

#: queue-node layout: 16 bytes per lock — next slot, grant slot
_QN_STRIDE = 16
_QN_EMPTY = bytes(_QN_STRIDE)


class MCSManager(EpochFencedManager):
    """Home state: one tail word per lock, sharded over the members."""

    SCHEME = "mcs"
    WORDS = "mcs-tails"

    def client(self, node: Node) -> "MCSClient":
        return MCSClient(self, node)


class MCSClient(EpochFencedClient):
    """Client with a per-lock queue node in registered memory."""

    def __init__(self, manager: MCSManager, node: Node):
        super().__init__(manager, node)
        self._qnode = node.memory.register(
            _QN_STRIDE * manager.n_locks,
            name=f"mcs-qnode@{node.name}.{self.token}")

    # -- acquire ----------------------------------------------------------
    def _attempt_acquire(self, lock_id: int, mode: LockMode):
        mgr = self.manager
        home, addr, rkey = mgr._word_at[lock_id]
        nic = self.node.nic
        qn = _QN_STRIDE * lock_id  # our next slot; the grant slot follows
        # fresh attempt: scrub the queue node (local, zero time)
        self._qnode.write(qn, _QN_EMPTY)
        # guess a free tail; a lost CAS returns the next guess
        ep, tail = mgr._epochs.get(lock_id, 0), 0
        word = ep << 48
        while True:
            old = yield nic.cas(home, addr, rkey, word,
                                (ep << 48) | (self.token << 24))
            if old == word:
                break
            word = old
            ep, tail, _ = unpack(old)
            if tail == self.token:
                # residue of an aborted attempt; the reaper clears it
                raise _Stale(f"own stale tail on lock {lock_id}")
        if self.env.obs is not None:
            self._obs_enqueue(lock_id, mode, prev=tail, ep=ep)
        if tail == 0:
            if mgr._epochs.get(lock_id, 0) != ep:
                raise _Stale("reclaimed at MCS grant instant")
            return ep, {}
        # link behind the predecessor: write our token into its next
        # slot, then spin on our own grant slot
        pred = mgr.clients.get(tail)
        if pred is None:
            raise _Stale(f"predecessor token {tail} unknown")
        yield nic.rdma_write(pred.node.id, pred._qnode.addr + qn,
                             pred._qnode.rkey,
                             self.token.to_bytes(8, "big"))
        self._signal(pred, lock_id, "mnext",
                     {"frm": self.token, "ep": ep})
        yield from self._wait_msg(lock_id, "mgrant", ep)
        # spin-exit: notice the grant word in our own cache line
        yield self.node.cpu.run(CLIENT_POLL_US, name="mcs-spin")
        if mgr._epochs.get(lock_id, 0) != ep:
            raise _Stale("reclaimed at MCS hand-off instant")
        return ep, {}

    # -- release ----------------------------------------------------------
    def _attempt_release(self, lock_id: int, ep: int):
        mgr = self.manager
        home, addr, rkey = mgr._word_at[lock_id]
        nic = self.node.nic
        succs = self._drain_msgs(lock_id, "mnext", ep)
        succ = succs[0]["frm"] if succs else None
        if succ is None:
            # no known successor: try to close the queue
            word = (ep << 48) | (self.token << 24)
            old = yield nic.cas(home, addr, rkey, word, ep << 48)
            if old == word:
                return  # queue closed
            if old >> 48 != ep:
                return  # reclaimed under us: nothing to hand off
            # a successor swapped the tail; its next-write is in flight
            # (a reclaim while waiting raises _Stale: successors restart)
            body = yield from self._wait_msg(lock_id, "mnext", ep)
            succ = body["frm"]
        peer = mgr.clients.get(succ)
        if peer is None:
            raise _Stale(f"successor token {succ} unknown")
        # hand off: grant word into the successor's queue node
        grant = (ep << 48) | (self.token << 24) | 1
        yield nic.rdma_write(peer.node.id,
                             peer._qnode.addr + _QN_STRIDE * lock_id + 8,
                             peer._qnode.rkey, grant.to_bytes(8, "big"))
        self._signal(peer, lock_id, "mgrant",
                     {"frm": self.token, "ep": ep})
