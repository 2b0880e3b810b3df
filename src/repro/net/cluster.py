"""Cluster builder: environment + fabric + homogeneous nodes in one call."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.sim import Environment, RngStreams

from repro.net.fabric import Fabric
from repro.net.node import Node
from repro.net.params import NetworkParams

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster: one Environment, one Fabric, N nodes.

    Parameters
    ----------
    n_nodes:
        Number of homogeneous nodes to create (ignored if ``names``).
    names:
        Explicit node names; one node per name.
    params:
        Interconnect model; defaults to :meth:`NetworkParams.infiniband`.
    seed:
        Root seed for all named RNG streams (:class:`RngStreams`).
    """

    def __init__(self, n_nodes: int = 0,
                 names: Optional[Sequence[str]] = None,
                 params: Optional[NetworkParams] = None,
                 seed: int = 0):
        if names is None:
            if n_nodes <= 0:
                raise ConfigError("need n_nodes > 0 or explicit names")
            names = [f"node{i}" for i in range(n_nodes)]
        elif not names:
            raise ConfigError("need n_nodes > 0 or explicit names")
        elif n_nodes and n_nodes != len(names):
            raise ConfigError("n_nodes inconsistent with names")
        self.params = params or NetworkParams.infiniband()
        self.env = Environment()
        self.rng = RngStreams(seed)
        # components that only see the Environment (e.g. RPC backoff
        # jitter) draw from the same seeded streams via this handle
        self.env.rng = self.rng
        self.fabric = self._make_fabric()
        self.nodes: List[Node] = [
            Node(self.env, i, self.fabric, name=name)
            for i, name in enumerate(names)
        ]

    def _make_fabric(self) -> Fabric:
        """Fabric construction hook; :class:`repro.topo.TopoCluster`
        overrides this to install a rack/spine fabric instead."""
        return Fabric(self.env, self.params)

    def install_faults(self, plan=None):
        """Install a :class:`repro.faults.FaultInjector` running ``plan``.

        Returns the injector.  At most one injector per cluster.
        """
        from repro.faults import FaultInjector
        return FaultInjector(self, plan)

    def observe(self, **kwargs):
        """Install :class:`repro.obs.Observability`; pull fabric and NIC
        counters.

        Returns the (installed) observability handle; keyword arguments
        are forwarded (``ring``).  Install before starting
        the workload — the oracles judge the trace from its first
        event.  A repeat call returns the installed handle, or raises
        :class:`ConfigError` if its arguments contradict it.
        """
        from repro.obs import Observability
        obs = self.env.obs
        if obs is None:
            obs = Observability(self.env, **kwargs).install()
            self.fabric.pull_metrics(obs.metrics)
            for node in self.nodes:
                node.nic.pull_metrics(obs.metrics)
        elif dict(obs.options, **kwargs) != obs.options:
            raise ConfigError(f"obs already installed with {obs.options}")
        return obs
