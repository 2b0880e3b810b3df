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

from typing import Dict

from repro.net.node import Node

from repro.dlm.base import CLIENT_POLL_US, LockMode
from repro.dlm.ft import (EpochFencedClient, EpochFencedManager, _Stale,
                          pack, unpack)

__all__ = ["MCSManager", "MCSClient"]


class MCSManager(EpochFencedManager):
    """Home state: one tail word per lock, sharded over the members."""

    SCHEME = "mcs"

    def _setup_homes(self) -> None:
        self._words: Dict[int, object] = {}
        for node in self.members:
            self._words[node.id] = node.memory.register(
                8 * self.n_locks, name=f"mcs-tails@{node.name}")

    def word(self, lock_id: int):
        home = self.home_node(lock_id)
        region = self._words[home.id]
        return home.id, region.addr + 8 * lock_id, region.rkey

    def raw_word(self, lock_id: int) -> int:
        """Direct (zero-time) view of the tail word, for tests."""
        home = self.home_node(lock_id)
        return self._words[home.id].read_u64(8 * lock_id)

    def client(self, node: Node) -> "MCSClient":
        return MCSClient(self, node)

    # -- epoch-fencing hooks ----------------------------------------------
    def _ft_tails(self, lock_id: int):
        return (unpack(self.raw_word(lock_id))[1],)

    def _ft_wipe(self, lock_id: int, new_ep: int) -> None:
        home = self.home_node(lock_id)
        self._words[home.id].write_u64(8 * lock_id,
                                       pack(new_ep, 0, 0))


class MCSClient(EpochFencedClient):
    """Client with a per-lock queue node in registered memory."""

    #: queue-node layout: 16 bytes per lock — next slot, grant slot
    _QN_STRIDE = 16

    def __init__(self, manager: MCSManager, node: Node):
        super().__init__(manager, node)
        self._qnode = node.memory.register(
            self._QN_STRIDE * manager.n_locks,
            name=f"mcs-qnode@{node.name}.{self.token}")

    def _qn_next(self, lock_id: int) -> int:
        return self._QN_STRIDE * lock_id

    def _qn_grant(self, lock_id: int) -> int:
        return self._QN_STRIDE * lock_id + 8

    # -- acquire ----------------------------------------------------------
    def _attempt_acquire(self, lock_id: int, mode: LockMode):
        mgr = self.manager
        home, addr, rkey = mgr.word(lock_id)
        nic = self.node.nic
        # fresh attempt: scrub the queue node (local, zero time)
        self._qnode.write_u64(self._qn_next(lock_id), 0)
        self._qnode.write_u64(self._qn_grant(lock_id), 0)
        # guess a free tail; a lost CAS returns the next guess
        ep, tail = mgr.lock_epoch(lock_id), 0
        word = pack(ep, 0, 0)
        while True:
            old = yield nic.cas(home, addr, rkey, word,
                                pack(ep, self.token, 0))
            if old == word:
                break
            word = old
            ep, tail, _ = unpack(old)
            if tail == self.token:
                # residue of an aborted attempt; the reaper clears it
                raise _Stale(f"own stale tail on lock {lock_id}")
        self._obs_enqueue(lock_id, mode, prev=tail, ep=ep)
        if tail == 0:
            if mgr.lock_epoch(lock_id) != ep:
                raise _Stale("reclaimed at MCS grant instant")
            return ep, {}
        # link behind the predecessor: write our token into its next
        # slot, then spin on our own grant slot
        pred = mgr.clients.get(tail)
        if pred is None:
            raise _Stale(f"predecessor token {tail} unknown")
        yield nic.rdma_write(pred.node.id,
                             pred._qnode.addr + pred._qn_next(lock_id),
                             pred._qnode.rkey,
                             self.token.to_bytes(8, "big"))
        self._signal(pred, lock_id, "mnext",
                     {"frm": self.token, "ep": ep})
        yield from self._wait_msg(lock_id, "mgrant", ep)
        # spin-exit: notice the grant word in our own cache line
        yield self.node.cpu.run(CLIENT_POLL_US, name="mcs-spin")
        if mgr.lock_epoch(lock_id) != ep:
            raise _Stale("reclaimed at MCS hand-off instant")
        return ep, {}

    # -- release ----------------------------------------------------------
    def _attempt_release(self, lock_id: int, ep: int):
        mgr = self.manager
        home, addr, rkey = mgr.word(lock_id)
        nic = self.node.nic
        succs = self._drain_msgs(lock_id, "mnext", ep)
        succ = succs[0]["frm"] if succs else None
        if succ is None:
            # no known successor: try to close the queue
            word = pack(ep, self.token, 0)
            old = yield nic.cas(home, addr, rkey, word,
                                pack(ep, 0, 0))
            if old == word:
                return  # queue closed
            if unpack(old)[0] != ep:
                return  # reclaimed under us: nothing to hand off
            # a successor swapped the tail; its next-write is in flight
            # (a reclaim while waiting raises _Stale: successors restart)
            body = yield from self._wait_msg(lock_id, "mnext", ep)
            succ = body["frm"]
        peer = mgr.clients.get(succ)
        if peer is None:
            raise _Stale(f"successor token {succ} unknown")
        # hand off: grant word into the successor's queue node
        yield nic.rdma_write(peer.node.id,
                             peer._qnode.addr + peer._qn_grant(lock_id),
                             peer._qnode.rkey,
                             pack(ep, self.token, 1).to_bytes(8, "big"))
        self._signal(peer, lock_id, "mgrant",
                     {"frm": self.token, "ep": ep})
