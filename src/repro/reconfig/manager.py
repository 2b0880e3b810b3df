"""Reconfiguration manager and service abstraction."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.net.node import Node

from repro.monitor.schemes import MonitorBase

__all__ = ["Service", "ReconfigManager"]

#: CPU work per request on a serving node (µs) unless the request says
DEFAULT_REQ_US = 300.0


class Service:
    """One hosted website/service: thread-per-request over its nodes.

    Requests dispatch round-robin to the service's current nodes and run
    as CPU jobs immediately (Apache's thread-per-connection model), so a
    burst shows up as a thread spike *on the back-end nodes* — visible
    to the reconfiguration manager only through the monitoring layer.
    Requests already running on a migrated-away node finish where they
    are (connection draining).
    """

    def __init__(self, name: str, nodes: Sequence[Node],
                 priority: int = 1, min_nodes: int = 1):
        if not nodes:
            raise ConfigError(f"service {name!r} needs at least one node")
        if min_nodes < 1 or min_nodes > len(nodes):
            raise ConfigError("bad min_nodes")
        self.name = name
        self.priority = priority
        self.min_nodes = min_nodes
        self.env = nodes[0].env
        self.nodes: List[Node] = list(nodes)
        self.submitted = 0
        self.completed = 0
        self.dropped = 0  # requests arriving while the service has no node
        self.latency_sum = 0.0
        self._rr = itertools.count()

    def add_node(self, node: Node) -> None:
        self.nodes.append(node)

    def remove_node(self, node: Node) -> None:
        self.nodes.remove(node)

    # -- load interface ---------------------------------------------------
    def submit(self, work_us: float = DEFAULT_REQ_US) -> None:
        if not self.nodes:
            # every node evicted (e.g. crashed): shed the request rather
            # than crash the dispatcher
            self.dropped += 1
            return
        node = self.nodes[next(self._rr) % len(self.nodes)]
        self.submitted += 1
        self.env.process(self._serve(node, work_us),
                         name=f"svc-{self.name}@{node.name}")

    def _serve(self, node: Node, work_us: float):
        arrived_at = self.env.now
        yield node.cpu.run(work_us, name=f"svc-{self.name}")
        self.completed += 1
        self.latency_sum += self.env.now - arrived_at

    @property
    def backlog(self) -> int:
        """Requests in flight (running threads across the service)."""
        return self.submitted - self.completed

    def mean_latency(self) -> float:
        return self.latency_sum / self.completed if self.completed else 0.0


class ReconfigManager:
    """Watches services, migrates nodes, serialized via a CAS lock.

    With a ``detector`` (:class:`repro.monitor.HeartbeatDetector`) the
    manager is **failure-aware**: the instant the detector declares a
    node dead it is evicted from every service hosting it (a crashed
    node serves nothing, so eviction ignores ``min_nodes``), and a
    service pushed below its ``min_nodes`` is backfilled from the
    lowest-priority donor that can spare a live node.  When the node
    comes back the detector reports it alive and the manager restores
    it to the services it was evicted from.
    """

    def __init__(self, coordinator: Node, services: Sequence[Service],
                 monitor: Optional[MonitorBase] = None,
                 detector=None,
                 ddss=None,
                 check_every_us: float = 2_000.0,
                 sensitivity: float = 2.0,
                 cooldown_us: float = 20_000.0):
        if sensitivity <= 1.0:
            raise ConfigError("sensitivity must exceed 1.0")
        self.node = coordinator
        self.env = coordinator.env
        self.services = list(services)
        self.monitor = monitor
        self.detector = detector
        #: optional :class:`repro.ddss.DDSS`: evicting a dead node also
        #: rebalances the units it homes (tombstoning old locations so
        #: stale clients re-resolve instead of writing to a dead home)
        self.ddss = ddss
        self.check_every_us = check_every_us
        self.sensitivity = sensitivity
        self.cooldown_us = cooldown_us
        #: CAS lock word serializing concurrent reconfiguration managers
        self._lock_region = coordinator.memory.register(8, name="reconf-lock")
        #: node id -> last migration time (history-aware reconfiguration)
        self._last_moved: Dict[int, float] = {}
        self.migrations: List[tuple] = []
        #: (time, node_id, service, "evict"|"restore"|"backfill")
        self.evictions: List[tuple] = []
        #: node id -> services it was evicted from (for restore)
        self._evicted: Dict[int, List[Service]] = {}
        #: (time, node_id) — membership changes refused without quorum
        self.fenced: List[tuple] = []
        self._running = False
        if detector is not None:
            detector.subscribe(self._on_transition)

    # -- failure awareness -------------------------------------------------
    def _quorate(self) -> bool:
        """Reconfiguration is only valid while the detector side holds a
        majority (``QuorumGate.has_quorum``); detectors without quorum
        arithmetic (plain heartbeat) never fence."""
        return getattr(self.detector, "has_quorum", True)

    def _on_transition(self, node_id: int, transition: str) -> None:
        if transition == "dead":
            self._evict(node_id)
        else:
            self._restore(node_id)

    def _evict(self, node_id: int) -> None:
        if not self._quorate():
            # a minority view must not rewrite membership: defense in
            # depth behind QuorumGate's own hold-and-fence
            self.fenced.append((self.env.now, node_id))
            self._obs_transition("reconfig.fenced", node_id, "*")
            return
        for svc in self.services:
            victim = next((n for n in svc.nodes if n.id == node_id), None)
            if victim is None:
                continue
            svc.remove_node(victim)
            self._evicted.setdefault(node_id, []).append(svc)
            self.evictions.append((self.env.now, node_id, svc.name,
                                   "evict"))
            self._obs_transition("reconfig.evict", node_id, svc.name)
            self._backfill(svc)
        if self.ddss is not None:
            from repro.errors import DDSSError
            dead = [m.id for m in self.ddss.members
                    if m.id != node_id and self._node_dead(m.id)]
            try:
                self.ddss.migrate_off(node_id, avoid=dead)
            except DDSSError:
                pass  # no live member left; data stays until restore

    def _backfill(self, svc: Service) -> None:
        """Refill a service below min_nodes from the cheapest donor."""
        while len(svc.nodes) < svc.min_nodes:
            donors = [s for s in self.services
                      if s is not svc and len(s.nodes) > s.min_nodes]
            candidates = [(s, n) for s in donors for n in s.nodes
                          if not self._node_dead(n.id)]
            if not candidates:
                return  # nothing can be spared; run degraded
            donor, node = min(
                candidates,
                key=lambda pair: (pair[0].priority, len(pair[0].nodes)))
            donor.remove_node(node)
            svc.add_node(node)
            self._last_moved[node.id] = self.env.now
            self.evictions.append((self.env.now, node.id, svc.name,
                                   "backfill"))
            self._obs_transition("reconfig.backfill", node.id, svc.name)

    def _restore(self, node_id: int) -> None:
        for svc in self._evicted.pop(node_id, []):
            node = self.node.fabric.node(node_id)
            if node in svc.nodes:  # pragma: no cover - defensive
                continue
            svc.add_node(node)
            self.evictions.append((self.env.now, node_id, svc.name,
                                   "restore"))
            self._obs_transition("reconfig.restore", node_id, svc.name)
        if self.ddss is not None and hasattr(self.ddss, "ring_restore"):
            # sharded directory: re-admit the member to the hash ring
            self.ddss.ring_restore(node_id)

    def _obs_transition(self, etype: str, node_id: int,
                        service: str) -> None:
        obs = self.env.obs
        if obs is not None:
            ep = getattr(self.detector, "config_epoch", 0)
            obs.trace.emit(etype, node=self.node.id, mnode=node_id,
                           service=service, ep=ep)
            obs.metrics.counter(f"{etype}s").inc()

    def _node_dead(self, node_id: int) -> bool:
        return self.detector is not None and self.detector.is_dead(node_id)

    def start(self) -> None:
        if self._running:
            raise ConfigError("manager already started")
        self._running = True
        self.env.process(self._loop(), name="reconfig-manager")

    # -- load estimation ---------------------------------------------------
    def _service_pressure(self, svc: Service) -> float:
        """Mean *monitored* thread count of the service's nodes.

        The manager only knows what the monitoring layer tells it, so
        its responsiveness is bounded by the monitor's granularity and
        accuracy — the coarse-vs-fine comparison of the experiment.
        Without a monitor it falls back to front-end-visible backlog.
        """
        if self.monitor is not None:
            ids = {n.id for n in svc.nodes} & set(self.monitor.back_ids)
            if ids:
                threads = sum(self.monitor.view(bid)["n_threads"]
                              for bid in ids)
                return (threads + 1.0) / len(ids)
        return (svc.backlog + 1.0) / max(1, len(svc.nodes))

    def _loop(self):
        while True:
            yield self.env.timeout(self.check_every_us)
            # refresh node views through the monitoring scheme, so the
            # responsiveness of reconfiguration inherits the monitor's
            # granularity (coarse socket vs fine-grained RDMA)
            if self.monitor is not None:
                for bid in self.monitor.back_ids:
                    yield self.monitor.query(bid)
            yield from self._maybe_migrate()

    def _maybe_migrate(self):
        if not self._quorate():
            return  # no membership rewrites from a minority partition
        hungry = max(self.services, key=self._service_pressure)
        # donors: prefer lowest priority, then lowest pressure (QoS)
        donors = [s for s in self.services
                  if s is not hungry and len(s.nodes) > s.min_nodes]
        if not donors:
            return
        donor = min(donors, key=lambda s: (s.priority,
                                           self._service_pressure(s)))
        if (self._service_pressure(hungry)
                < self.sensitivity * self._service_pressure(donor)):
            return
        # pick a donor node outside its cooldown window
        candidates = [n for n in donor.nodes
                      if self.env.now - self._last_moved.get(n.id, -1e18)
                      >= self.cooldown_us]
        if not candidates:
            return
        node = candidates[0]
        # concurrency control: CAS the shared lock word
        region = self._lock_region
        old = yield self.node.nic.cas(self.node.id, region.addr,
                                      region.rkey, 0, 1)
        if old != 0:
            return  # another manager is reconfiguring; try next round
        try:
            donor.remove_node(node)
            hungry.add_node(node)
            self._last_moved[node.id] = self.env.now
            self.migrations.append((self.env.now, node.id,
                                    donor.name, hungry.name))
            obs = self.env.obs
            if obs is not None:
                obs.trace.emit("reconfig.migrate", node=self.node.id,
                               mnode=node.id, frm=donor.name,
                               to=hungry.name)
                obs.metrics.counter("reconfig.migrations").inc()
        finally:
            yield self.node.nic.cas(self.node.id, region.addr,
                                    region.rkey, 1, 0)
