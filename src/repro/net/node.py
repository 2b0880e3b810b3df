"""A cluster node: CPU + registered memory + NIC."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim import CPU, Environment

from repro.net.memory import MemoryManager
from repro.net.nic import NIC

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric

__all__ = ["Node"]


class Node:
    """One machine in the simulated data-center."""

    def __init__(self, env: Environment, node_id: int, fabric: "Fabric",
                 name: str = ""):
        if node_id < 0:
            raise ConfigError("node id must be non-negative")
        self.env = env
        self.id = node_id
        self.name = name or f"node{node_id}"
        self.cpu = CPU(env, name=f"{self.name}.cpu")
        self.memory = MemoryManager(node_id)
        fabric.attach(self)
        self.fabric = fabric
        self.nic = NIC(env, self, fabric)
        #: free-form slot for services to hang per-node state on
        self.services: dict = {}
