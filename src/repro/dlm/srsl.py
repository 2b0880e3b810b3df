"""SRSL — Send/Receive-based Server Locking (the two-sided baseline).

Each lock's home node runs a lock-server process.  Clients send
``acquire``/``release`` requests as ordinary messages; the server
maintains a FIFO queue per lock, granting shared requests in batches and
exclusive requests alone.  Every request and every grant crosses the
network as a two-sided message *and* consumes server CPU on the shared
processor — under load the server slows down, which is exactly the
drawback the one-sided schemes remove.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.net.node import Node

from repro.dlm.base import LockClient, LockManagerBase, LockMode

__all__ = ["SRSLManager", "SRSLClient"]

#: server CPU cost per processed request / per issued grant (µs)
SERVER_REQ_US = 1.5
SERVER_GRANT_US = 0.7


@dataclass
class _LockState:
    mode: Optional[LockMode] = None
    holders: int = 0
    queue: Deque[Tuple[int, LockMode]] = field(default_factory=deque)


class SRSLManager(LockManagerBase):
    SCHEME = "srsl"

    def _setup_homes(self) -> None:
        self._tables: Dict[int, Dict[int, _LockState]] = {}
        for node in self.members:
            self._tables[node.id] = {}
            self.env.process(self._server(node),
                             name=f"srsl-server@{node.name}")

    def client(self, node: Node) -> "SRSLClient":
        return SRSLClient(self, node)

    # -- server ------------------------------------------------------------
    def _server(self, node: Node):
        table = self._tables[node.id]
        while True:
            msg = yield node.nic.recv(tag=("srsl-server", node.id))
            yield node.cpu.run(SERVER_REQ_US, name="srsl-server")
            body = msg.payload
            state = table.get(body["lock"])
            if state is None:
                state = table[body["lock"]] = _LockState()
            if body["op"] == "acquire":
                req = (body["token"], body["mode"])
                state.queue.append(req)
                obs = self.env.obs
                if obs is not None:
                    # server decision order IS the queue order for SRSL
                    obs.trace.emit("lock.enqueue", node=node.id,
                                   mgr=self.obs_name, lock=body["lock"],
                                   token=req[0], mode=req[1].name,
                                   prev=0, ep=0)
                yield from self._drain(node, body["lock"], state)
            elif body["op"] == "release":
                state.holders -= 1
                if state.holders == 0:
                    state.mode = None
                yield from self._drain(node, body["lock"], state)

    def _grantable(self, state: _LockState) -> bool:
        if not state.queue:
            return False
        _token, mode = state.queue[0]
        if state.holders == 0:
            return True
        return (state.mode is LockMode.SHARED and mode is LockMode.SHARED)

    def _drain(self, node: Node, lock_id: int, state: _LockState):
        """Grant every request at the head that is compatible."""
        while self._grantable(state):
            token, mode = state.queue.popleft()
            state.mode = mode
            state.holders += 1
            yield node.cpu.run(SERVER_GRANT_US, name="srsl-grant")
            client = self.clients[token]
            node.nic.post(client.node.id,
                          payload={"t": "grant", "lock": lock_id,
                                   "mode": mode},
                          size=32, tag=client._tag)


class SRSLClient(LockClient):
    def _acquire(self, lock_id: int, mode: LockMode):
        home = self.manager.home_node(lock_id)
        self.node.nic.post(home.id, payload={
            "op": "acquire", "lock": lock_id, "mode": mode,
            "token": self.token,
        }, size=32, tag=("srsl-server", home.id))
        yield from self._wait(lock_id, "grant")
        self.manager._ledger_grant(lock_id, self.token, mode, None, None)
        return None

    def _release(self, lock_id: int):
        self.manager._ledger_release(lock_id, self.token)
        home = self.manager.home_node(lock_id)
        self.node.nic.post(home.id, payload={
            "op": "release", "lock": lock_id, "token": self.token,
        }, size=32, tag=("srsl-server", home.id))
        # fire-and-forget: the server performs the hand-off
        yield self.env.timeout(0.0)
        return None
