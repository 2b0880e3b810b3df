"""Two-level rack/spine fabric: host egress links + ToR uplinks.

An intra-rack transfer is exactly a flat-fabric transfer — same code
path, same float association order, same fast-path eligibility — so a
single-rack :class:`TopoFabric` is byte-identical to :class:`Fabric`.

A cross-rack transfer crosses two serialization stages::

    nic_tx + host-egress hold + ToR-uplink hold + (wire + spine) + nic_rx

The per-rack uplink pool carries ``hosts_per_rack / oversub`` times one
host's bandwidth split over ``spines`` links, so an oversubscribed rack
sending cross-rack from many hosts at once queues on the uplink — the
contention the flat fabric cannot express.  A transfer's uplink is
picked deterministically by destination rack (``dst_rack % spines``),
the static ECMP-style spreading real ToRs do per flow.

Cross-rack transfers always run the explicit generator path, never the
analytic shortcut: the single-link reservation proof behind the fast
path (DESIGN.md §9) relies on every transfer's link-hold start lagging
its issue instant by the same constant (``nic_tx``), and the uplink's
hold start lags by ``nic_tx + serialization(nbytes)`` — size-dependent,
so reservation order and FIFO-acquire order can disagree.  Falling back
keeps the fast and slow kernels byte-identical by construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.sim import Environment, Resource

from repro.net.fabric import Fabric
from repro.net.params import NetworkParams

__all__ = ["TopoFabric"]


class TopoFabric(Fabric):
    """A :class:`Fabric` whose nodes live in racks behind ToR uplinks."""

    def __init__(self, env: Environment, params: NetworkParams, *,
                 racks: int, hosts_per_rack: int, spines: int = 1,
                 oversub: float = 1.0,
                 spine_latency_us: Optional[float] = None):
        if racks < 1:
            raise ConfigError("need at least one rack")
        if hosts_per_rack < 1:
            raise ConfigError("need at least one host per rack")
        if spines < 1:
            raise ConfigError("need at least one spine link per rack")
        if oversub < 1.0:
            raise ConfigError("oversubscription ratio must be >= 1.0")
        if spine_latency_us is not None and spine_latency_us < 0.0:
            raise ConfigError("spine latency must be non-negative")
        super().__init__(env, params)
        self.racks = racks
        self.hosts_per_rack = hosts_per_rack
        self.spines = spines
        self.oversub = float(oversub)
        #: extra one-way latency of the ToR->spine->ToR detour; defaults
        #: to two additional switch hops at the base wire latency
        self.spine_latency_us = (spine_latency_us
                                 if spine_latency_us is not None
                                 else 2.0 * params.wire_latency_us)
        #: bandwidth of one ToR uplink (bytes/us): a rack's aggregate
        #: host bandwidth divided by the oversubscription ratio, split
        #: over its spine links
        self.uplink_bpus = (params.bandwidth_bpus * hosts_per_rack
                            / (self.oversub * spines))
        self._xwire_us = params.wire_latency_us + self.spine_latency_us
        self._uplink: Dict[Tuple[int, int], Resource] = {
            (r, s): Resource(env, capacity=1)
            for r in range(racks) for s in range(spines)
        }
        self.xrack_transfers = 0
        self.xrack_bytes = 0
        self._obs_xcache: Optional[tuple] = None

    # -- topology ---------------------------------------------------------
    def rack_of(self, node_id: int) -> int:
        return node_id // self.hosts_per_rack

    def same_rack(self, a: int, b: int) -> bool:
        return a // self.hosts_per_rack == b // self.hosts_per_rack

    def _up_key(self, src_id: int, dst_id: int) -> Tuple[int, int]:
        return (src_id // self.hosts_per_rack,
                (dst_id // self.hosts_per_rack) % self.spines)

    def uplink_queue_len(self, rack: int, spine: int = 0) -> int:
        """Cross-rack transfers waiting on one ToR uplink."""
        return self._uplink[(rack, spine)].queue_len

    # -- data movement ----------------------------------------------------
    def transfer(self, src_id: int, dst_id: int, nbytes: int):
        if src_id // self.hosts_per_rack == dst_id // self.hosts_per_rack:
            return super().transfer(src_id, dst_id, nbytes)
        if src_id not in self._nodes or dst_id not in self._nodes:
            raise ConfigError(f"transfer between unknown nodes "
                              f"{src_id}->{dst_id}")
        if nbytes < 0:
            raise ConfigError("cannot transfer negative bytes")
        if self.injector is not None:
            fail = self.injector.transfer_fault(src_id, dst_id)
            if fail is not None:
                return fail
        self._count_xrack(src_id, dst_id, nbytes)
        self._pre_acquire[src_id] += 1
        done = self.env.process(
            self._xrack_proc(src_id, dst_id, nbytes),
            name=f"xfer-{src_id}->{dst_id}",
        )
        if self.injector is not None:
            return self.injector.fence_completion(src_id, dst_id, done)
        return done

    def fast_send(self, src_id: int, dst_id: int, nbytes: int) -> float:
        if src_id // self.hosts_per_rack == dst_id // self.hosts_per_rack:
            return super().fast_send(src_id, dst_id, nbytes)
        # cross-rack: never analytic (see module docstring); the verb
        # layer falls back to send_process, which spawns the real thing
        return -1.0

    def send_process(self, src_id: int, dst_id: int, nbytes: int,
                     arrive) -> None:
        if src_id // self.hosts_per_rack == dst_id // self.hosts_per_rack:
            return super().send_process(src_id, dst_id, nbytes, arrive)
        self._count_xrack(src_id, dst_id, nbytes)
        self._pre_acquire[src_id] += 1
        ev = self.env.process(self._xrack_proc(src_id, dst_id, nbytes),
                              name=f"xfer-{src_id}->{dst_id}")
        ev.callbacks.append(lambda _e: arrive())

    def _xrack_proc(self, src_id: int, dst_id: int, nbytes: int):
        p = self.params
        factor = (self.injector.link_factor(src_id, dst_id)
                  if self.injector is not None else 1.0)
        yield self.env.timeout(p.nic_tx_us)
        link = self._egress[src_id]
        grant = link.acquire()
        self._pre_acquire[src_id] -= 1
        yield grant
        try:
            yield self.env.timeout(p.serialization_us(nbytes) * factor)
        finally:
            link.release()
        up = self._uplink[self._up_key(src_id, dst_id)]
        yield up.acquire()
        try:
            yield self.env.timeout((nbytes / self.uplink_bpus) * factor)
        finally:
            up.release()
        yield self.env.timeout(self._xwire_us * factor + p.nic_rx_us)

    # -- accounting -------------------------------------------------------
    def _count_xrack(self, src_id: int, dst_id: int, nbytes: int) -> None:
        self.transfers += 1
        self.bytes_moved += nbytes
        self.xrack_transfers += 1
        self.xrack_bytes += nbytes
        obs = self.env.obs
        if obs is not None:
            self._obs_transfer(obs, nbytes)
            self._obs_xrack(obs, src_id, dst_id, nbytes)

    def _obs_xrack(self, obs, src_id: int, dst_id: int,
                   nbytes: int) -> None:
        cache = self._obs_xcache
        if cache is None or cache[0] is not obs:
            m = obs.metrics
            cache = self._obs_xcache = (
                obs, m.counter("topo.xrack.transfers"),
                m.counter("topo.xrack.bytes"), {})
        cache[1].inc()
        cache[2].inc(nbytes)
        srack = src_id // self.hosts_per_rack
        per_rack = cache[3].get(srack)
        if per_rack is None:
            # node= carries the *rack* index for topo.uplink metrics
            per_rack = cache[3][srack] = obs.metrics.counter(
                "topo.uplink.bytes", node=srack)
        per_rack.inc(nbytes)
        obs.trace.emit("topo.xrack", node=src_id, dst=dst_id,
                       srack=srack, drack=dst_id // self.hosts_per_rack,
                       nbytes=nbytes)
