"""Two-level rack/spine fabric: host egress links + ToR uplinks.

An intra-rack transfer is exactly a flat-fabric transfer — same code
path, same float association order — so a single-rack
:class:`TopoFabric` is byte-identical to :class:`Fabric`.

A cross-rack transfer crosses two serialization stages::

    nic_tx + host-egress hold + ToR-uplink hold + (wire + spine) + nic_rx

The per-rack uplink pool carries ``hosts_per_rack / oversub`` times one
host's bandwidth split over ``spines`` links, so an oversubscribed rack
sending cross-rack from many hosts at once queues on the uplink — the
contention the flat fabric cannot express.  A transfer's uplink is
picked deterministically by destination rack (``dst_rack % spines``),
the static ECMP-style spreading real ToRs do per flow.

Both stages are analytic FIFO servers, each booked when the payload
reaches it (DESIGN.md §9).  The host egress link is booked at
injection: every transfer reaches it the same constant ``nic_tx``
later, so injection order is its queue order.  The uplink is
reached ``nic_tx + wait + serialization(nbytes)`` after injection —
size-dependent, so booking it at injection could disagree with the order
the generators' ``up.acquire()`` calls run in — and is therefore booked
by one bare agenda call at the egress release instant, which is the
instant, and among the transfers of one host the order, of those calls.
(Two *hosts* of a rack that release at the same float towards one uplink
are an *uplink tie*: the model does not order them, §9.)  That call
fixes the arrival instant and schedules the leg's continuation there.
"""

from __future__ import annotations

from functools import partial
from operator import getitem
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.sim import Environment

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
        #: ToR uplink ``(rack, spine)`` -> where its booked chain ends
        self._uplink_end: Dict[Tuple[int, int], float] = {
            (r, s): env.now for r in range(racks) for s in range(spines)}
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
        factor = (injector.link_factor(src_id, dst_id)
                  if injector is not None and injector.plan.slow_nodes
                  else 1.0)
        since = -1 if injector is None else injector.crashes
        self.env._schedule_call(
            self._book_egress(src_id, nbytes, factor),
            partial(self._reach_uplink, src_id, dst_id, nbytes, factor,
                    since, arrive))
        return -1.0

    def _reach_uplink(self, src_id: int, dst_id: int, nbytes: int,
                      factor: float, since: int, arrive) -> None:
        """Egress release instant of a cross-rack payload: book the ToR
        uplink from now or from the end of its chain, whichever is
        later, and hand the arrival instant to ``arrive`` — unless a
        planned crash can reach the payload (a crash since its
        injection, or one due by then), which is fenced on arrival.
        ``since`` is -1 for a payload injected with no injector."""
        env = self.env
        key = self._up_key(src_id, dst_id)
        start = env.now
        ends = self._uplink_end
        if ends[key] > start:
            start = ends[key]
        ends[key] = released_at = \
            start + (nbytes / self.uplink_bpus) * factor
        t = released_at + (self._xwire_us * factor + self.params.nic_rx_us)
        injector = self.injector
        if since < 0 or (injector.crashes == since
                         and t < injector.calm_until):
            arrive(None, t)
        else:
            env._schedule_call(t, partial(self._land, src_id, dst_id,
                                          since, arrive))

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
