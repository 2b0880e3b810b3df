"""Transport oracles: flow-control conservation and at-most-once RPC.

* :class:`FlowOracle` — for ``transport.flowcontrol``, per sender:
  credits outstanding stay within ``[0, capacity]`` (a take beyond
  capacity sent a message without a credit; a return below zero minted
  credits out of thin air) and reserved ring bytes within ``[0, pool]``.
* :class:`RpcOracle` — on the one request path (``transport.rpc``) a
  call may be *attempted* many times (retries on drops) and *answered*
  many times (replays from the server's reply window), but the handler
  runs at most once per request id.  ``rpc.execute`` with ``rid=None``
  is exempt.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .trace import Oracle, TraceEvent

__all__ = ["FlowOracle", "RpcOracle"]


class FlowOracle(Oracle):
    NAME = "flow"
    PREFIXES = ("flow.",)

    def __init__(self):
        super().__init__()
        self._credits: Dict[int, int] = {}   # sender -> outstanding
        self._ring: Dict[int, int] = {}      # sender -> reserved bytes

    def feed(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        s = f.get("sender")
        if ev.etype == "flow.credit.take":
            n = self._credits[s] = self._credits.get(s, 0) + 1
            if n > f["capacity"]:
                self.flag(idx, ev, f"{n} credits outstanding exceeds "
                                   f"capacity {f['capacity']}", sender=s)
        elif ev.etype == "flow.credit.return":
            n = self._credits[s] = self._credits.get(s, 0) - f["n"]
            if n < 0:
                self.flag(idx, ev, f"credit return of {f['n']} drives "
                                   f"outstanding to {n} (< 0)", sender=s)
        elif ev.etype == "flow.ring.reserve":
            used = self._ring[s] = self._ring.get(s, 0) + f["nbytes"]
            if used > f["pool"]:
                self.flag(idx, ev, f"{used} ring bytes reserved exceeds "
                                   f"pool {f['pool']}", sender=s)
        elif ev.etype == "flow.ring.free":
            used = self._ring[s] = self._ring.get(s, 0) - f["nbytes"]
            if used < 0:
                self.flag(idx, ev, f"ring free of {f['nbytes']} drives "
                                   f"reserved to {used} (< 0)", sender=s)


class RpcOracle(Oracle):
    NAME = "rpc"
    PREFIXES = ("rpc.execute",)

    def __init__(self):
        super().__init__()
        self._executed: Set[Tuple] = set()   # (server, rid)

    def feed(self, idx: int, ev: TraceEvent) -> None:
        rid = ev.fields.get("rid")
        if rid is None:
            return
        key = (ev.fields.get("server", ev.node), rid)
        if key in self._executed:
            self.flag(idx, ev, f"request {rid} executed more than once "
                               f"on server {key[0]}",
                      server=key[0], rid=rid)
        self._executed.add(key)
