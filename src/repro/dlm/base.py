"""Shared machinery for the three distributed lock managers.

Locks are identified by small integers and *homed* on member nodes
(``home = lock_id % n_members``).  Each client gets a globally unique
nonzero token; peer-to-peer protocol messages are routed to the token's
owner through a per-manager NIC tag.

``acquire``/``release`` return simulation events.  Safety bookkeeping
is maintained *outside* the protocol paths so tests can assert mutual
exclusion without trusting the implementation under test:
``holders[lock]`` is a ``{token: mode}`` dict of the grants currently
held, in grant order (keyed by the int token, so a grant or release
hashes no :class:`LockMode`).

A design with home-resident words sets ``WORDS`` (the name stem of the
region each member registers) and ``WORD_STRIDE`` (bytes per lock);
``_word_at[lock]`` is then the ``(home node id, address, rkey)`` of the
lock's first word, made at first use and dropped when the lock moves.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import LockError
from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.sim import Event, Process, Store

__all__ = ["LockMode", "LockManagerBase", "LockClient"]

#: CPU cost for a client to notice and process a protocol message (µs):
#: polling the completion queue and running a tiny handler.
CLIENT_POLL_US = 0.5

#: a 24-bit lock-word field (tail token, count); tokens are capped to it
_F24 = 0xFFFFFF


class LockMode(Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class _WordTable(dict):
    """lock -> ``(home node id, address, rkey)`` of its first word; an
    entry is made at its first lookup, so a hit is a plain subscript."""

    __slots__ = ("manager",)

    def __init__(self, manager: "LockManagerBase"):
        super().__init__()
        self.manager = manager

    def __missing__(self, lock_id: int) -> Tuple[int, int, int]:
        mgr = self.manager
        home = mgr.home_node(lock_id).id
        region = mgr._words[home]
        entry = self[lock_id] = (
            home, region.addr + mgr.WORD_STRIDE * lock_id, region.rkey)
        return entry


class LockManagerBase:
    """Common state: membership, homes, token registry, safety ledger."""

    SCHEME = "base"
    #: name stem of each member's region of lock words (None: no words)
    WORDS: Optional[str] = None
    #: bytes of home-resident words per lock
    WORD_STRIDE = 8

    def __init__(self, cluster: Cluster, n_locks: int = 64,
                 member_nodes: Optional[Sequence[Node]] = None):
        if n_locks <= 0:
            raise LockError("need at least one lock")
        self.cluster = cluster
        self.env = cluster.env
        self.members = list(member_nodes or cluster.nodes)
        if not self.members:
            raise LockError("lock manager needs member nodes")
        self.n_locks = n_locks
        self._tokens = itertools.count(1)
        #: token -> client
        self.clients: Dict[int, "LockClient"] = {}
        #: safety ledger: lock -> {token: mode} currently granted
        self.holders: Dict[int, Dict[int, LockMode]] = {}
        #: stable name for trace events; drawn from a dedicated id stream
        #: unconditionally so runs with and without obs stay identical
        self.obs_name = f"{self.SCHEME}-{self.env.next_id('obs-dlm')}"
        self._word_at = _WordTable(self)
        self._setup_homes()

    def _setup_homes(self) -> None:
        """Scheme-specific per-home state.  With ``WORDS`` set, every
        member registers the words of every lock, so a failover rehome
        needs no new allocation."""
        if self.WORDS is not None:
            #: member node id -> its region of lock words
            self._words = {node.id: node.memory.register(
                self.WORD_STRIDE * self.n_locks,
                name=f"{self.WORDS}@{node.name}") for node in self.members}

    def home_node(self, lock_id: int) -> Node:
        self._check_lock(lock_id)
        return self.members[lock_id % len(self.members)]

    def raw_word(self, lock_id: int) -> int:
        """Direct (zero-time) view of the lock's first word (the
        reaper's and the tests')."""
        home, addr, _rkey = self._word_at[lock_id]
        region = self._words[home]
        return region.read_u64(addr - region.addr)

    def client(self, node: Node) -> "LockClient":
        raise NotImplementedError

    def _register(self, client: "LockClient") -> int:
        token = next(self._tokens)
        if token > _F24:
            # the lock words name a client in 24 bits
            raise LockError(f"token {token} exceeds the 24-bit word field")
        self.clients[token] = client
        return token

    def _check_lock(self, lock_id: int) -> None:
        if not 0 <= lock_id < self.n_locks:
            raise LockError(f"lock id {lock_id} out of range")

    # -- safety ledger ----------------------------------------------------
    def _ledger_grant(self, lock_id: int, token: int, mode: LockMode,
                      ep: Optional[int], extra: Optional[dict]) -> None:
        """Record a grant; ``extra`` (e.g. the ALock cohort and hand-off
        chain position) rides along on the ``lock.grant`` event."""
        held = self.holders.setdefault(lock_id, {})
        if held:
            if mode is LockMode.EXCLUSIVE:
                raise LockError(
                    f"SAFETY: exclusive grant of lock {lock_id} to {token} "
                    f"while held by {held}")
            if LockMode.EXCLUSIVE in held.values():
                raise LockError(
                    f"SAFETY: shared grant of lock {lock_id} to {token} "
                    f"while exclusively held")
        held[token] = mode
        if self.env.obs is not None:
            fields = {"mode": mode.name}
            if ep is not None:
                fields["ep"] = ep
            if extra:
                fields.update(extra)
            self._obs_ledger("lock.grant", lock_id, token, fields)

    def _ledger_release(self, lock_id: int, token: int) -> None:
        held = self.holders.get(lock_id)
        if held is None or held.pop(token, None) is None:
            raise LockError(
                f"release of lock {lock_id} by non-holder {token}")
        if self.env.obs is not None:
            self._obs_ledger("lock.release", lock_id, token, {})

    def _obs_ledger(self, etype: str, lock_id: int, token: int,
                    fields: dict) -> None:
        obs = self.env.obs
        obs.trace.emit(etype, node=self.home_node(lock_id).id,
                       mgr=self.obs_name, lock=lock_id, token=token,
                       **fields)
        obs.metrics.counter(f"dlm.{etype.split('.')[1]}s").inc()


class LockClient:
    """One application's handle; lives on a node, owns a token."""

    def __init__(self, manager: LockManagerBase, node: Node):
        self.manager = manager
        self.node = node
        self.env = node.env
        self.token = manager._register(self)
        self._tag = (manager.SCHEME, self.token)
        #: per-(lock, kind) queues of protocol messages for this client
        self._queues: Dict[Tuple[int, str], Store] = {}
        self.acquires = 0
        self.releases = 0
        self._acq_name = f"{manager.SCHEME}-acq@{node.name}"
        self._rel_name = f"{manager.SCHEME}-rel@{node.name}"
        self.env.process(self._dispatch(), name=f"{manager.SCHEME}-"
                         f"dispatch@{node.name}.{self.token}")

    # -- public API -------------------------------------------------------
    def acquire(self, lock_id: int, mode: LockMode = LockMode.EXCLUSIVE
                ) -> Event:
        """Acquire; the event fires when the lock is granted."""
        if not 0 <= lock_id < self.manager.n_locks:
            raise LockError(f"lock id {lock_id} out of range")
        self.acquires += 1
        ev = Process(self.env, self._acquire(lock_id, mode), self._acq_name)
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("lock.request", node=self.node.id,
                           mgr=self.manager.obs_name, lock=lock_id,
                           token=self.token, mode=mode.name)
            obs.latency(ev, f"dlm.{self.manager.SCHEME}.acquire_us",
                        self.node.id)
        return ev

    def release(self, lock_id: int) -> Event:
        """Release; the event fires when the hand-off has been initiated."""
        if not 0 <= lock_id < self.manager.n_locks:
            raise LockError(f"lock id {lock_id} out of range")
        self.releases += 1
        return Process(self.env, self._release(lock_id), self._rel_name)

    # -- scheme hooks ------------------------------------------------------
    def _acquire(self, lock_id: int, mode: LockMode):
        raise NotImplementedError
        yield  # pragma: no cover

    def _release(self, lock_id: int):
        raise NotImplementedError
        yield  # pragma: no cover

    # -- protocol messaging ----------------------------------------------
    def _peer_send(self, token: int, body: dict) -> None:
        """Send a protocol message to another client by token."""
        peer = self.manager.clients.get(token)
        if peer is None:
            raise LockError(f"unknown peer token {token}")
        self.node.nic.post(peer.node.id, payload=body, size=32,
                           tag=peer._tag)

    def _queue(self, lock_id: int, kind: str) -> Store:
        q = self._queues.get((lock_id, kind))
        if q is None:
            q = Store(self.env)
            self._queues[(lock_id, kind)] = q
        return q

    def _dispatch(self):
        while True:
            msg = yield self.node.nic.recv(tag=self._tag)
            # completion-queue poll + handler cost
            yield self.node.cpu.run(CLIENT_POLL_US, name="dlm-poll")
            body = msg.payload
            if not self._accept_msg(body):
                continue
            self._queue(body["lock"], body["t"]).try_put(body)

    def _accept_msg(self, body: dict) -> bool:
        """Filter hook (e.g. duplicate suppression); True = enqueue."""
        return True

    def _wait(self, lock_id: int, kind: str):
        """Generator: wait for the next protocol message of ``kind``."""
        body = yield self._queue(lock_id, kind).get()
        return body

    def _obs_enqueue(self, lock_id: int, mode: LockMode,
                     prev: int = 0, ep: int = 0, **extra) -> None:
        """Trace the instant this requester landed in the wait queue
        (callers test ``env.obs`` first).

        ``prev`` is the predecessor read atomically out of the lock
        word (the old tail), so the emitted chain reflects the true
        landing order at the home even when completions arrive at the
        requesters out of order.  ``extra`` fields (e.g. the ALock
        cohort) ride along on the event.
        """
        self.env.obs.trace.emit("lock.enqueue", node=self.node.id,
                                mgr=self.manager.obs_name, lock=lock_id,
                                token=self.token, mode=mode.name,
                                prev=prev, ep=ep, **extra)
