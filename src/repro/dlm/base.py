"""Shared machinery for the three distributed lock managers.

Locks are identified by small integers and *homed* on member nodes
(``home = lock_id % n_members``).  Each client gets a globally unique
nonzero token; peer-to-peer protocol messages are routed to the token's
owner through a per-manager NIC tag.

``acquire``/``release`` return simulation events.  Safety bookkeeping
(`holders`) is maintained *outside* the protocol paths so tests can
assert mutual exclusion without trusting the implementation under test.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.errors import LockError
from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.sim import Event, Store

__all__ = ["LockMode", "LockManagerBase", "LockClient"]

#: CPU cost for a client to notice and process a protocol message (µs):
#: polling the completion queue and running a tiny handler.
CLIENT_POLL_US = 0.5


class LockMode(Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class LockManagerBase:
    """Common state: membership, homes, token registry, safety ledger."""

    SCHEME = "base"

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
        #: safety ledger: lock -> set of (token, mode) currently granted
        self.holders: Dict[int, Set[Tuple[int, LockMode]]] = {}
        #: stable name for trace events; drawn from a dedicated id stream
        #: unconditionally so runs with and without obs stay identical
        self.obs_name = f"{self.SCHEME}-{self.env.next_id('obs-dlm')}"
        self._setup_homes()

    def _setup_homes(self) -> None:
        """Scheme-specific per-home state (lock tables / memory words)."""

    def home_node(self, lock_id: int) -> Node:
        self._check_lock(lock_id)
        return self.members[lock_id % len(self.members)]

    def client(self, node: Node) -> "LockClient":
        raise NotImplementedError

    def _register(self, client: "LockClient") -> int:
        token = next(self._tokens)
        self.clients[token] = client
        return token

    def _check_lock(self, lock_id: int) -> None:
        if not 0 <= lock_id < self.n_locks:
            raise LockError(f"lock id {lock_id} out of range")

    # -- safety ledger ----------------------------------------------------
    def _ledger_grant(self, lock_id: int, token: int, mode: LockMode,
                      ep: Optional[int] = None, **extra_fields) -> None:
        """Record a grant; ``extra_fields`` (e.g. the ALock cohort and
        hand-off chain position) ride along on the ``lock.grant`` event."""
        held = self.holders.setdefault(lock_id, set())
        if mode is LockMode.EXCLUSIVE and held:
            raise LockError(
                f"SAFETY: exclusive grant of lock {lock_id} to {token} "
                f"while held by {held}")
        if mode is LockMode.SHARED and any(
                m is LockMode.EXCLUSIVE for _, m in held):
            raise LockError(
                f"SAFETY: shared grant of lock {lock_id} to {token} "
                f"while exclusively held")
        held.add((token, mode))
        extra = {"mode": mode.name}
        if ep is not None:
            extra["ep"] = ep
        extra.update(extra_fields)
        self._obs_ledger("lock.grant", lock_id, token, **extra)

    def _ledger_release(self, lock_id: int, token: int) -> LockMode:
        held = self.holders.get(lock_id, ())
        for entry in held:
            if entry[0] == token:
                held.remove(entry)
                self._obs_ledger("lock.release", lock_id, token)
                return entry[1]
        raise LockError(
            f"release of lock {lock_id} by non-holder {token}")

    def _ledger_expunge(self, lock_id: int, token: int) -> Optional[LockMode]:
        """Forcibly end a grant (lease revocation); None if not held."""
        held = self.holders.get(lock_id, ())
        for entry in held:
            if entry[0] == token:
                held.remove(entry)
                self._obs_ledger("lock.revoke", lock_id, token)
                return entry[1]
        return None

    def _obs_ledger(self, etype: str, lock_id: int, token: int,
                    **extra) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.home_node(lock_id).id,
                           mgr=self.obs_name, lock=lock_id, token=token,
                           **extra)
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
        self.env.process(self._dispatch(), name=f"{manager.SCHEME}-"
                         f"dispatch@{node.name}.{self.token}")

    # -- public API -------------------------------------------------------
    def acquire(self, lock_id: int, mode: LockMode = LockMode.EXCLUSIVE
                ) -> Event:
        """Acquire; the event fires when the lock is granted."""
        self.manager._check_lock(lock_id)
        self.acquires += 1
        ev = self.env.process(
            self._acquire(lock_id, mode),
            name=f"{self.manager.SCHEME}-acq@{self.node.name}")
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
        self.manager._check_lock(lock_id)
        self.releases += 1
        return self.env.process(
            self._release(lock_id),
            name=f"{self.manager.SCHEME}-rel@{self.node.name}")

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
        """Trace the instant this requester landed in the wait queue.

        ``prev`` is the predecessor read atomically out of the lock
        word (the old tail), so the emitted chain reflects the true
        landing order at the home even when completions arrive at the
        requesters out of order.  ``extra`` fields (e.g. the ALock
        cohort) ride along on the event.
        """
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("lock.enqueue", node=self.node.id,
                           mgr=self.manager.obs_name, lock=lock_id,
                           token=self.token, mode=mode.name,
                           prev=prev, ep=ep, **extra)

    # -- ledger shims ----------------------------------------------------
    def _granted(self, lock_id: int, mode: LockMode,
                 ep: Optional[int] = None, **extra) -> None:
        self.manager._ledger_grant(lock_id, self.token, mode, ep=ep,
                                   **extra)

    def _released(self, lock_id: int) -> LockMode:
        return self.manager._ledger_release(lock_id, self.token)
