"""The switched fabric: moves bytes between nodes with realistic timing.

A transfer from node A to node B costs::

    nic_tx  +  egress-link hold (serialization)  +  wire latency  +  nic_rx

The per-node egress link is a FIFO server, so concurrent large
transfers from the same node queue behind each other — this is what makes
bandwidth a shared, contended quantity (needed for the cooperative-cache
and flow-control experiments).  The link is analytic: each transfer
books its serialization window when it is injected (DESIGN.md §9).
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim import Environment, Event

from repro.net.params import NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.net.node import Node

__all__ = ["Fabric"]


def _settle(done: Event, exc: Optional[BaseException], at: float) -> None:
    """``arrive`` of a transfer that completes an :class:`Event`."""
    if at >= 0.0:
        done.env._schedule_at(at, done, value=None)
    elif exc is None:
        done.succeed()
    else:
        done.fail(exc)


class Fabric:
    """Connects nodes; accounts latency, serialization and contention."""

    def __init__(self, env: Environment, params: NetworkParams):
        self.env = env
        self.params = params
        self._nodes: Dict[int, "Node"] = {}
        #: per-node egress link: the instant its chain of booked
        #: serialization windows ends (DESIGN.md §9)
        self._egress_end: Dict[int, float] = {}
        self.bytes_moved = 0
        self.transfers = 0
        #: installed by :class:`repro.faults.FaultInjector`; None in
        #: fault-free runs, in which case every hook below is skipped.
        self.injector: Optional["FaultInjector"] = None

    # -- topology ---------------------------------------------------------
    def attach(self, node: "Node") -> None:
        if node.id in self._nodes:
            raise ConfigError(f"node id {node.id} already attached")
        self._nodes[node.id] = node
        self._egress_end[node.id] = self.env.now

    def node(self, node_id: int) -> "Node":
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigError(f"unknown node id {node_id}") from None

    @property
    def node_ids(self):
        return tuple(self._nodes)

    def pull_metrics(self, metrics) -> None:
        """Register the fabric's tallies as pulled counters of ``metrics``."""
        metrics.pull("fabric.transfers", lambda: self.transfers)
        metrics.pull("fabric.bytes", lambda: self.transfers,
                     lambda: self.bytes_moved)

    # -- data movement ------------------------------------------------------
    def transfer(self, src_id: int, dst_id: int, nbytes: int) -> Event:
        """Move ``nbytes`` from src to dst; event fires on arrival at dst.

        Same-node transfers cost only the local loopback latency.
        """
        if src_id not in self._nodes or dst_id not in self._nodes:
            raise ConfigError(f"transfer between unknown nodes "
                              f"{src_id}->{dst_id}")
        if nbytes < 0:
            raise ConfigError("cannot transfer negative bytes")
        injector = self.injector
        if injector is not None and (src_id in injector.down
                                     or dst_id in injector.down
                                     or injector.plan.partitions):
            fail = injector.transfer_fault(src_id, dst_id)
            if fail is not None:
                return fail  # refused transfers move no bytes
        return self._arrival(src_id, dst_id, nbytes)

    def _arrival(self, src_id: int, dst_id: int, nbytes: int) -> Event:
        """Completion event of one accepted injection at ``src_id``,
        routed by :meth:`_route`."""
        env = self.env
        done = Event(env)
        t = self._route(src_id, dst_id, nbytes, partial(_settle, done))
        if t >= 0.0:
            seq = env._seq = env._seq + 1
            if t == env.now:
                env._imm.append((seq, done, None))
            else:
                heappush(env._heap, (t, seq, done, None))
        return done

    def _route(self, src_id: int, dst_id: int, nbytes: int,
               arrive) -> float:
        """Inject one accepted payload: the one routing hook.

        A route is a tandem of analytic FIFO servers, each booked when
        the payload reaches it.  The flat fabric has one, the sender's
        egress link, reached a constant ``nic_tx`` after injection and
        therefore booked here, in injection order — the order the
        generators' ``acquire()`` calls run in.  A booking holds the
        link from ``ready = now + nic_tx`` or from the end of the
        previous booking, whichever is later — when the generator's
        ``acquire()`` would be granted — so it ends when the generator's
        ``release()`` would run.  The additions keep the generator's
        association order: it computes ``(start + serialization)`` and
        then ``+ (wire + nic_rx)`` across separate Timeouts, and float
        addition is not associative.  (The generator transfer is kept
        in ``tests/sim/reference_kernel.py``.)

        Unless a planned crash can reach the payload (it arrives at or
        after the injector's ``calm_until``), the arrival instant is
        returned and the caller schedules its own continuation there:
        one agenda entry, idle link or busy.  Otherwise -1.0 is returned
        and ``arrive(exc, -1.0)`` runs at the arrival instant, ``exc``
        being the completion fence's verdict; a route whose arrival a
        later booking fixes calls ``arrive(None, t)`` at that booking
        instead (:class:`repro.topo.TopoFabric`).  ``link_factor`` is
        consulted now when the plan slows a node (else the factor is
        1.0, and ``x * 1.0 == x``), as the generator does.
        """
        env = self.env
        self.transfers += 1
        self.bytes_moved += nbytes
        p = self.params
        injector = self.injector
        if src_id == dst_id:
            t = env.now + p.local_op_us
        elif injector is None or not injector.plan.slow_nodes:
            # runs twice per one-sided verb (request + response leg):
            # the booking is unrolled, not a call
            start = env.now + p.nic_tx_us
            ends = self._egress_end
            if ends[src_id] > start:
                start = ends[src_id]
            ends[src_id] = released_at = start + nbytes / p.bandwidth_bpus
            t = released_at + (p.wire_latency_us + p.nic_rx_us)
        else:
            factor = injector.link_factor(src_id, dst_id)
            t = (self._book_egress(src_id, nbytes, factor)
                 + (p.wire_latency_us * factor + p.nic_rx_us))
        if injector is None or t < injector.calm_until:
            return t
        env._schedule_call(t, partial(self._land, src_id, dst_id,
                                      injector.crashes, arrive))
        return -1.0

    def _book_egress(self, src_id: int, nbytes: int, factor: float) -> float:
        """Book ``src_id``'s egress link from ``now + nic_tx`` with the
        hold stretched by ``factor``; returns the release instant."""
        p = self.params
        start = self.env.now + p.nic_tx_us
        ends = self._egress_end
        if ends[src_id] > start:
            start = ends[src_id]
        ends[src_id] = released_at = \
            start + (nbytes / p.bandwidth_bpus) * factor
        return released_at

    def _land(self, src_id: int, dst_id: int, since: int,
              arrive) -> None:
        """Arrival instant of a payload injected under an injector that
        had seen ``since`` crashes: a crash at either end while it was
        in flight fails the completion (``arrive(exc, -1.0)``)."""
        injector = self.injector
        arrive(None if injector.crashes == since
               else injector.fenced(since, src_id, dst_id), -1.0)
