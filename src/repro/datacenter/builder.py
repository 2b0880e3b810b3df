"""One-call assembly of a complete simulated data-center.

::

    dc = DataCenter(n_proxies=2, scheme="HYBCC", n_docs=1500,
                    doc_bytes=8192)
    tps = dc.run_tps(warmup_us=2e5, measure_us=1e6)
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.net.cluster import Cluster

from repro.cache.schemes import SCHEMES
from repro.datacenter.backend import BackendTier
from repro.datacenter.loadgen import ClosedLoopClients
from repro.datacenter.metrics import DataCenterMetrics
from repro.datacenter.server import ProxyServer
from repro.workloads.filesets import FileSet
from repro.workloads.zipf import ZipfGenerator

__all__ = ["DataCenter"]

#: app/backend nodes behind the proxy tier
N_APP = 2
#: Zipf skew of the document popularity
ALPHA = 0.8


class DataCenter:
    """Client node + proxy tier + app/backend tier, fully wired.

    ``n_app`` is accepted at :data:`N_APP` only.
    """

    def __init__(self, n_proxies: int = 2, n_app: int = N_APP,
                 scheme: str = "AC",
                 n_docs: int = 1500, doc_bytes: int = 8192,
                 cache_bytes: int = 4 * 1024 * 1024,
                 n_sessions: int = 48,
                 seed: int = 0):
        if n_app != N_APP:
            raise ConfigError(f"n_app is fixed at {N_APP}, got {n_app!r}")
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; "
                              f"pick from {sorted(SCHEMES)}")
        names = (["client"]
                 + [f"proxy{i}" for i in range(n_proxies)]
                 + [f"app{i}" for i in range(n_app)])
        self.cluster = Cluster(names=names, seed=seed)
        self.env = self.cluster.env
        self.client_node = self.cluster.nodes[0]
        self.proxy_nodes = self.cluster.nodes[1:1 + n_proxies]
        self.app_nodes = self.cluster.nodes[1 + n_proxies:]
        self.fileset = FileSet(n_docs, doc_bytes, seed=seed)
        self.scheme = SCHEMES[scheme](
            self.proxy_nodes, self.fileset, cache_bytes,
            extra_nodes=self.app_nodes)
        self.backend = BackendTier(self.app_nodes, self.fileset)
        self.metrics = DataCenterMetrics(self.env)
        self.servers = [
            ProxyServer(node, self.scheme, self.backend, self.metrics)
            for node in self.proxy_nodes
        ]
        zipf = ZipfGenerator(self.fileset.n_docs, ALPHA,
                             self.cluster.rng.get("zipf"))
        self.clients = ClosedLoopClients(self.client_node, self.servers,
                                         zipf, n_sessions=n_sessions)

    def run_tps(self, warmup_us: float = 200_000.0,
                measure_us: float = 1_000_000.0) -> float:
        """Warm the caches, measure steady-state TPS."""
        self.clients.start()
        self.env.run(until=self.env.now + warmup_us)
        self.metrics.start_window()
        self.env.run(until=self.env.now + measure_us)
        return self.metrics.tps()
