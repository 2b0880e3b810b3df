"""TopoCluster: racks × hosts/rack behind spine uplinks, in one call."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.net.cluster import Cluster

from repro.topo.fabric import TopoFabric

__all__ = ["TopoCluster"]


class TopoCluster(Cluster):
    """A :class:`Cluster` whose fabric has rack/spine structure.

    Node ids are assigned rack-major: rack ``r`` holds nodes
    ``[r * hosts_per_rack, (r + 1) * hosts_per_rack)``.  Everything
    else — environment, RNG streams, node construction order — matches
    the flat cluster exactly, so a single rack at ``oversub=1.0``
    produces byte-identical traces.

    Parameters
    ----------
    racks / hosts_per_rack:
        The grid; ``len(cluster.nodes) == racks * hosts_per_rack``.
    spines:
        ToR uplinks per rack (cross-rack transfers spread over them by
        destination rack).
    oversub:
        Oversubscription ratio: a rack's aggregate uplink bandwidth is
        ``hosts_per_rack * host_bandwidth / oversub``.

    The interconnect is :meth:`NetworkParams.infiniband` and every
    cross-rack transfer pays two more switch hops at its wire latency.
    """

    def __init__(self, racks: int = 1, hosts_per_rack: int = 4, *,
                 spines: int = 1, oversub: float = 1.0, seed: int = 0):
        self.racks = racks
        self.hosts_per_rack = hosts_per_rack
        self.spines = spines
        self.oversub = float(oversub)
        if racks < 1 or hosts_per_rack < 1:
            raise ConfigError("need at least one rack and one host")
        super().__init__(n_nodes=racks * hosts_per_rack, seed=seed)

    def _make_fabric(self) -> TopoFabric:
        return TopoFabric(self.env, self.params, racks=self.racks,
                          hosts_per_rack=self.hosts_per_rack,
                          spines=self.spines, oversub=self.oversub)
