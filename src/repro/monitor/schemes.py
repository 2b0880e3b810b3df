"""The five monitoring schemes of the Fig. 8 experiments.

Common interface: a monitor lives on a front-end node and observes a set
of back-end nodes that each export :class:`KernelStats`.

* ``query(back_id)`` -> event whose value is the *reported* stats dict
  (full cost of one on-demand observation under that scheme).
* ``view(back_id)`` -> the scheme's current belief, instantly (async
  schemes answer from their cache; sync schemes return the last query
  result).  This is what a load balancer consults per dispatch.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import MonitorError
from repro.net.node import Node
from repro.sim import Event
from repro.transport import rpc

from repro.monitor.kernel import KernelStats, STATS_BYTES

__all__ = [
    "MonitorBase",
    "SocketSyncMonitor",
    "SocketAsyncMonitor",
    "RdmaSyncMonitor",
    "RdmaAsyncMonitor",
    "ERdmaSyncMonitor",
    "MONITOR_SCHEMES",
]

#: daemon CPU work to collect stats via /proc-style interfaces (µs)
DAEMON_COLLECT_US = 30.0
#: default push period for the socket-async daemon (µs) — pushing more
#: often would burn measurable back-end CPU, the classic trade-off
ASYNC_PERIOD_US = 5_000.0
#: default poll period for RDMA-async (µs) — polling is nearly free for
#: the back-end, so it can afford millisecond granularity
RDMA_POLL_PERIOD_US = 1_000.0


class MonitorBase:
    NAME = "base"
    #: True if the scheme needs a user-level daemon on the back-end
    NEEDS_DAEMON = False
    #: True if the scheme refreshes its beliefs every ``period_us`` (a
    #: daemon push or an RDMA poll); only such a scheme takes it
    PERIODIC = False

    def __init__(self, front: Node, stats: Dict[int, KernelStats]):
        if not stats:
            raise MonitorError("monitor needs at least one back-end")
        self.front = front
        self.env = front.env
        self.stats = dict(stats)
        #: latest belief per back-end node
        self.beliefs: Dict[int, dict] = {
            bid: {"n_threads": 0, "load": 0.0, "n_connections": 0,
                  "updates": 0, "mem_used_mb": 0}
            for bid in stats
        }
        self.queries = 0

    @property
    def back_ids(self) -> Sequence[int]:
        return tuple(self.stats)

    def view(self, back_id: int) -> dict:
        return self.beliefs[back_id]

    def load_index(self, back_id: int) -> float:
        """Scalar used for load-balancing decisions."""
        return float(self.beliefs[back_id]["n_threads"])

    def query(self, back_id: int) -> Event:
        self.queries += 1
        return self.env.process(self._query(back_id),
                                name=f"{self.NAME}-query@{self.front.name}")

    def _query(self, back_id: int):
        raise NotImplementedError
        yield  # pragma: no cover


class _SocketSchemeBase(MonitorBase):
    """Daemon-on-the-back-end machinery shared by the socket schemes.

    The daemon is an ordinary user process: collecting statistics costs
    CPU *on the monitored node*, so on a saturated back-end the daemon
    runs late — reported values describe an earlier reality.
    """

    NEEDS_DAEMON = True

    def _daemon_collect(self, back_id: int):
        """Generator: the daemon gathers stats on the back-end CPU."""
        ks = self.stats[back_id]
        yield ks.node.cpu.run(DAEMON_COLLECT_US, name="mon-daemon")
        return ks.snapshot()


class SocketSyncMonitor(_SocketSchemeBase):
    """Request/response per query to the back-end's daemon, which serves
    this monitor's tag one request at a time."""

    NAME = "socket-sync"

    def __init__(self, front: Node, stats: Dict[int, KernelStats]):
        super().__init__(front, stats)
        self._tag = ("mon", self.env.next_id("monitor"))
        for bid, ks in self.stats.items():
            self.env.process(rpc.serve(ks.node, self._tag, {
                "stats": self._report}), name=f"mon-daemon@{bid}")

    def _report(self, node: Node, _request: dict):
        # daemon wake-up/recv, collection and send, on the loaded CPU
        yield rpc.sock(node, rpc.WIRE_BYTES)
        report = yield from self._daemon_collect(node.id)
        yield rpc.sock(node, STATS_BYTES)
        return report, STATS_BYTES

    def _query(self, back_id: int):
        report = yield rpc.call(self.front.nic, back_id, self._tag,
                                {"op": "stats"})
        self.beliefs[back_id] = report
        return report


class SocketAsyncMonitor(_SocketSchemeBase):
    """Back-end daemons push a report every ``period_us``."""

    NAME = "socket-async"
    PERIODIC = True

    def __init__(self, front: Node, stats: Dict[int, KernelStats],
                 period_us: float = ASYNC_PERIOD_US):
        super().__init__(front, stats)
        self.period_us = period_us
        self.pushes = 0
        for bid in self.stats:
            self.env.process(self._pusher(bid),
                             name=f"mon-push@{bid}")

    def _pusher(self, back_id: int):
        ks = self.stats[back_id]
        fabric = self.front.fabric
        while True:
            yield self.env.timeout(self.period_us)
            report = yield from self._daemon_collect(back_id)
            yield rpc.sock(ks.node, STATS_BYTES)
            yield fabric.transfer(back_id, self.front.id, STATS_BYTES)
            self.beliefs[back_id] = report
            self.pushes += 1

    def _query(self, back_id: int):
        # a "query" is free: answer from the push cache
        yield self.env.timeout(0.0)
        return self.beliefs[back_id]


class RdmaSyncMonitor(MonitorBase):
    """One-sided read of the kernel structure per query."""

    NAME = "rdma-sync"

    def _query(self, back_id: int):
        ks = self.stats[back_id]
        blob = yield self.front.nic.rdma_read(
            back_id, ks.region.addr, ks.region.rkey, STATS_BYTES)
        report = KernelStats.decode(blob)
        self.beliefs[back_id] = report
        return report


class RdmaAsyncMonitor(RdmaSyncMonitor):
    """Front-end polls every back-end with RDMA reads every period."""

    NAME = "rdma-async"
    PERIODIC = True

    def __init__(self, front: Node, stats: Dict[int, KernelStats],
                 period_us: float = RDMA_POLL_PERIOD_US):
        super().__init__(front, stats)
        self.period_us = period_us
        self.env.process(self._poller(), name="mon-rdma-poll")

    def _poller(self):
        while True:
            yield self.env.timeout(self.period_us)
            for bid in self.stats:
                ks = self.stats[bid]
                blob = yield self.front.nic.rdma_read(
                    bid, ks.region.addr, ks.region.rkey, STATS_BYTES)
                self.beliefs[bid] = KernelStats.decode(blob)

    def _query(self, back_id: int):
        # answer from the poll cache, like the paper's async variant
        yield self.env.timeout(0.0)
        return self.beliefs[back_id]


class ERdmaSyncMonitor(RdmaSyncMonitor):
    """e-RDMA-Sync: whole statistics vector + composite load index.

    The single read already carries every exported counter; the enhanced
    scheme exploits that by combining thread count, run-queue load and
    connection count into one dispatch index, which discriminates better
    between a node with many cheap connections and one crunching a heavy
    query.
    """

    NAME = "e-rdma-sync"

    def load_index(self, back_id: int) -> float:
        b = self.beliefs[back_id]
        return (0.6 * b["n_threads"] + 0.3 * b["load"] * 10.0
                + 0.1 * b["n_connections"])


MONITOR_SCHEMES = {
    cls.NAME: cls
    for cls in (SocketSyncMonitor, SocketAsyncMonitor,
                RdmaSyncMonitor, RdmaAsyncMonitor, ERdmaSyncMonitor)
}
