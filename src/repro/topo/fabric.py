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

On the fast kernel both stages are analytic FIFO servers, each booked
when the payload reaches it (DESIGN.md §9).  The host egress link is
booked at injection: every transfer reaches it the same constant
``nic_tx`` later, so injection order is its queue order.  The uplink is
reached ``nic_tx + wait + serialization(nbytes)`` after injection —
size-dependent, so booking it at injection could disagree with the order
the generators' ``up.acquire()`` calls run in — and is therefore booked
by one bare agenda call at the egress release instant, which is the
instant, and among the transfers of one host the order, of those calls.
(Two *hosts* of a rack that release at the same float towards one uplink
are an *uplink tie*: the model does not order them, §9.)
"""

from __future__ import annotations

from functools import partial
from operator import getitem
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.sim import Environment, Resource

from repro.net.fabric import Fabric
from repro.net.params import NetworkParams

__all__ = ["TopoFabric"]


class TopoFabric(Fabric):
    """A :class:`Fabric` whose nodes live in racks behind ToR uplinks."""

    def __init__(self, env: Environment, params: NetworkParams, *,
                 racks: int, hosts_per_rack: int, spines: int = 1,
                 oversub: float = 1.0):
        if racks < 1:
            raise ConfigError("need at least one rack")
        if hosts_per_rack < 1:
            raise ConfigError("need at least one host per rack")
        if spines < 1:
            raise ConfigError("need at least one spine link per rack")
        if oversub < 1.0:
            raise ConfigError("oversubscription ratio must be >= 1.0")
        super().__init__(env, params)
        self.racks = racks
        self.hosts_per_rack = hosts_per_rack
        self.spines = spines
        self.oversub = float(oversub)
        #: extra one-way latency of the ToR->spine->ToR detour: two
        #: additional switch hops at the base wire latency
        self.spine_latency_us = 2.0 * params.wire_latency_us
        #: bandwidth of one ToR uplink (bytes/us): a rack's aggregate
        #: host bandwidth divided by the oversubscription ratio, split
        #: over its spine links
        self.uplink_bpus = (params.bandwidth_bpus * hosts_per_rack
                            / (self.oversub * spines))
        self._xwire_us = params.wire_latency_us + self.spine_latency_us
        #: ToR uplinks of the generator transfers (slow kernel) ...
        self._uplink: Dict[Tuple[int, int], Resource] = {
            (r, s): Resource(env, capacity=1)
            for r in range(racks) for s in range(spines)
        }
        #: ... and on the fast kernel, where each booked chain ends
        self._uplink_end: Dict[Tuple[int, int], float] = dict.fromkeys(
            self._uplink, env.now)
        self.xrack_transfers = 0
        self.xrack_bytes = 0
        #: the same two tallies by source rack (what its uplinks carried)
        self.uplink_transfers = [0] * racks
        self.uplink_bytes = [0] * racks

    # -- topology ---------------------------------------------------------
    def _up_key(self, src_id: int, dst_id: int) -> Tuple[int, int]:
        return (src_id // self.hosts_per_rack,
                (dst_id // self.hosts_per_rack) % self.spines)

    # -- data movement ----------------------------------------------------
    def _route(self, src_id: int, dst_id: int, nbytes: int,
               arrive) -> float:
        h = self.hosts_per_rack
        if src_id // h == dst_id // h:
            return super()._route(src_id, dst_id, nbytes, arrive)
        self._count_xrack(src_id, dst_id, nbytes)
        injector = self.injector
        if injector is None:
            factor, land = 1.0, partial(arrive, None)
        else:
            factor = injector.link_factor(src_id, dst_id)
            land = partial(self._land, src_id, dst_id, injector.crashes,
                           arrive)
        self.env._schedule_call(
            self._book_egress(src_id, nbytes, factor),
            partial(self._reach_uplink, src_id, dst_id, nbytes, factor,
                    land))
        return -1.0

    def _reach_uplink(self, src_id: int, dst_id: int, nbytes: int,
                      factor: float, land) -> None:
        """Egress release instant of a cross-rack payload: book the ToR
        uplink from now or from the end of its chain, whichever is
        later, and schedule ``land`` at the arrival instant."""
        env = self.env
        key = self._up_key(src_id, dst_id)
        start = env.now
        ends = self._uplink_end
        if ends[key] > start:
            start = ends[key]
        ends[key] = released_at = \
            start + (nbytes / self.uplink_bpus) * factor
        env._schedule_call(
            released_at + (self._xwire_us * factor + self.params.nic_rx_us),
            land)

    def _spawn(self, src_id: int, dst_id: int, nbytes: int):
        h = self.hosts_per_rack
        if src_id // h == dst_id // h:
            return super()._spawn(src_id, dst_id, nbytes)
        self._count_xrack(src_id, dst_id, nbytes)
        return self.env.process(self._xrack_proc(src_id, dst_id, nbytes),
                                name=f"xfer-{src_id}->{dst_id}")

    def _xrack_proc(self, src_id: int, dst_id: int, nbytes: int):
        p = self.params
        factor = (self.injector.link_factor(src_id, dst_id)
                  if self.injector is not None else 1.0)
        yield self.env.timeout(p.nic_tx_us)
        link = self._egress[src_id]
        yield link.acquire()
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
    def pull_metrics(self, metrics) -> None:
        super().pull_metrics(metrics)
        metrics.pull("topo.xrack.transfers", lambda: self.xrack_transfers)
        metrics.pull("topo.xrack.bytes", lambda: self.xrack_transfers,
                     lambda: self.xrack_bytes)
        for r in range(self.racks):  # node= is the rack for topo.uplink
            metrics.pull("topo.uplink.bytes",
                         partial(getitem, self.uplink_transfers, r),
                         partial(getitem, self.uplink_bytes, r), node=r)

    def _count_xrack(self, src_id: int, dst_id: int, nbytes: int) -> None:
        self.transfers += 1
        self.bytes_moved += nbytes
        self.xrack_transfers += 1
        self.xrack_bytes += nbytes
        srack = src_id // self.hosts_per_rack
        self.uplink_transfers[srack] += 1
        self.uplink_bytes[srack] += nbytes
