"""The switched fabric: moves bytes between nodes with realistic timing.

A transfer from node A to node B costs::

    nic_tx  +  egress-link hold (serialization)  +  wire latency  +  nic_rx

The per-node egress link is a FIFO resource, so concurrent large
transfers from the same node queue behind each other — this is what makes
bandwidth a shared, contended quantity (needed for the cooperative-cache
and flow-control experiments).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim import Environment, Event, Resource

from repro.net.params import NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.net.node import Node

__all__ = ["Fabric"]


def _settle(done: Event, exc: Optional[BaseException]) -> None:
    """``arrive(exc)`` of a transfer that completes an :class:`Event`."""
    if exc is None:
        done.succeed()
    else:
        done.fail(exc)


class Fabric:
    """Connects nodes; accounts latency, serialization and contention."""

    def __init__(self, env: Environment, params: NetworkParams):
        self.env = env
        self.params = params
        self._nodes: Dict[int, "Node"] = {}
        #: per-node egress link of the generator transfers (the slow
        #: kernel's executable spec)
        self._egress: Dict[int, Resource] = {}
        #: the same link on the fast kernel: the instant its chain of
        #: booked serialization windows ends (DESIGN.md §9)
        self._egress_end: Dict[int, float] = {}
        #: cached observability counter handles, invalidated when the
        #: installed Observability changes (string-keyed registry
        #: lookups are too hot to repeat per transfer).
        self._obs_cache: Optional[tuple] = None
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
        self._egress[node.id] = Resource(self.env, capacity=1)
        self._egress_end[node.id] = self.env.now

    def node(self, node_id: int) -> "Node":
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigError(f"unknown node id {node_id}") from None

    @property
    def node_ids(self):
        return tuple(self._nodes)

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
        if self.injector is not None:
            fail = self.injector.transfer_fault(src_id, dst_id)
            if fail is not None:
                return fail  # refused transfers move no bytes
        return self._arrival(src_id, dst_id, nbytes)

    def _arrival(self, src_id: int, dst_id: Optional[int],
                 nbytes: int) -> Event:
        """Completion event of one accepted injection at ``src_id`` —
        the one fast/slow decision of this module: the fast kernel
        routes it analytically (:meth:`_route`), the slow kernel runs
        the generator transfer, which is the executable spec."""
        env = self.env
        if env.fastpath:
            done = Event(env)
            t = self._route(src_id, dst_id, nbytes, partial(_settle, done))
            if t >= 0.0:
                env._schedule_at(t, done, value=None)
            return done
        done = self._spawn(src_id, dst_id, nbytes)
        if self.injector is not None:
            # a crash at either end while the payload is in flight must
            # fail this completion, not deliver into the new incarnation
            return self.injector.fence_completion(src_id, dst_id, done)
        return done

    def _route(self, src_id: int, dst_id: Optional[int], nbytes: int,
               arrive) -> float:
        """Inject one accepted payload on the fast kernel: the one
        routing hook (``dst_id`` of ``None`` is a multicast).

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
        addition is not associative.

        Fault-free, nothing can happen to the payload on its way, so the
        arrival instant is returned and the caller schedules its own
        continuation there (``arrive`` is unused): one agenda entry,
        idle link or busy.  With an injector, -1.0 is returned and
        ``arrive(exc)`` runs at the arrival instant, ``exc`` being the
        completion fence's verdict: the injector's hooks are consulted
        at the instants :meth:`_transfer_proc` consults them —
        ``link_factor`` now (``x * 1.0 == x``, so an idle injector moves
        no float), the incarnation fence read now and compared on
        arrival.
        """
        env = self.env
        self.transfers += 1
        self.bytes_moved += nbytes
        obs = env.obs
        if obs is not None:
            self._obs_transfer(obs, nbytes)
        p = self.params
        injector = self.injector
        if injector is None:
            if src_id == dst_id:
                return env._now + p.local_op_us
            # runs twice per one-sided verb (request + response leg):
            # the booking is unrolled, not a call
            start = env._now + p.nic_tx_us
            ends = self._egress_end
            if ends[src_id] > start:
                start = ends[src_id]
            ends[src_id] = released_at = start + nbytes / p.bandwidth_bpus
            return released_at + (p.wire_latency_us + p.nic_rx_us)
        if src_id == dst_id:
            t = env._now + p.local_op_us
        else:
            factor = injector.link_factor(src_id, dst_id)
            t = (self._book_egress(src_id, nbytes, factor)
                 + (p.wire_latency_us * factor + p.nic_rx_us))
        env._schedule_call(t, partial(self._land, src_id, dst_id,
                                      injector.crashes, arrive))
        return -1.0

    def _book_egress(self, src_id: int, nbytes: int, factor: float) -> float:
        """Book ``src_id``'s egress link from ``now + nic_tx`` with the
        hold stretched by ``factor``; returns the release instant."""
        p = self.params
        start = self.env._now + p.nic_tx_us
        ends = self._egress_end
        if ends[src_id] > start:
            start = ends[src_id]
        ends[src_id] = released_at = \
            start + (nbytes / p.bandwidth_bpus) * factor
        return released_at

    def _land(self, src_id: int, dst_id: Optional[int], since: int,
              arrive) -> None:
        """Arrival instant of a payload injected under an injector that
        had seen ``since`` crashes: a crash at either end while it was
        in flight fails the completion (``arrive(exc)``)."""
        injector = self.injector
        arrive(None if injector.crashes == since
               else injector.fenced(since, src_id, dst_id))

    def _spawn(self, src_id: int, dst_id: Optional[int],
               nbytes: int) -> Event:
        """The slow kernel's twin of :meth:`_route`: the same payload as
        a generator that holds the link :class:`Resource`."""
        self.transfers += 1
        self.bytes_moved += nbytes
        obs = self.env.obs
        if obs is not None:
            self._obs_transfer(obs, nbytes)
        if src_id == dst_id:
            return self.env.timeout(self.params.local_op_us)
        return self.env.process(
            self._transfer_proc(src_id, dst_id, nbytes),
            name=(f"mcast-{src_id}" if dst_id is None
                  else f"xfer-{src_id}->{dst_id}"))

    def _obs_transfer(self, obs, nbytes: int) -> None:
        cache = self._obs_cache
        if cache is None or cache[0] is not obs:
            m = obs.metrics
            cache = self._obs_cache = (
                obs, m.counter("fabric.transfers"), m.counter("fabric.bytes"))
        cache[1].inc()
        cache[2].inc(nbytes)

    def _transfer_proc(self, src_id: int, dst_id: Optional[int],
                       nbytes: int):
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
        yield self.env.timeout(p.wire_latency_us * factor + p.nic_rx_us)

    def multicast(self, src_id: int, dst_ids, nbytes: int) -> Event:
        """Hardware-style multicast: one injection, switch replication.

        The sender serializes the payload onto its egress link exactly
        once; the switch fans it out, so every destination receives at
        (send + wire + rx) regardless of group size — unlike a
        sender-side loop of unicasts.  The event fires when the payload
        has landed at every destination.

        This implements the "Multicast" box the paper's Figure 1 defers
        to future work (IB hardware multicast exists; we model it).
        """
        dst_ids = list(dst_ids)
        if not dst_ids:
            raise ConfigError("multicast needs at least one destination")
        if src_id not in self._nodes:
            raise ConfigError(f"unknown multicast source {src_id}")
        for dst in dst_ids:
            if dst not in self._nodes:
                raise ConfigError(f"unknown multicast destination {dst}")
        if nbytes < 0:
            raise ConfigError("cannot transfer negative bytes")
        if self.injector is not None:
            fail = self.injector.transfer_fault(src_id, None)
            if fail is not None:
                return fail
        # injected once, replicated in-switch
        return self._arrival(src_id, None, nbytes)
