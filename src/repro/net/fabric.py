"""The switched fabric: moves bytes between nodes with realistic timing.

A transfer from node A to node B costs::

    nic_tx  +  egress-link hold (serialization)  +  wire latency  +  nic_rx

The per-node egress link is a FIFO resource, so concurrent large
transfers from the same node queue behind each other — this is what makes
bandwidth a shared, contended quantity (needed for the cooperative-cache
and flow-control experiments).
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim import Environment, Event, Resource

from repro.net.params import NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.net.node import Node

__all__ = ["Fabric"]


class Fabric:
    """Connects nodes; accounts latency, serialization and contention."""

    def __init__(self, env: Environment, params: NetworkParams):
        self.env = env
        self.params = params
        self._nodes: Dict[int, "Node"] = {}
        self._egress: Dict[int, Resource] = {}
        #: per-node count of generator transfers injected but still in
        #: their ``nic_tx`` window, not yet at the egress link's
        #: ``acquire()``.  While non-zero the analytic FIFO must stand
        #: down, otherwise a later transfer could book the link ahead
        #: of an earlier in-flight one and break fast/slow equivalence
        #: (DESIGN.md §9).
        self._pre_acquire: Dict[int, int] = {}
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
        self._pre_acquire[node.id] = 0

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
        self.transfers += 1
        self.bytes_moved += nbytes
        obs = self.env.obs
        if obs is not None:
            self._obs_transfer(obs, nbytes)
        if src_id != dst_id:
            return self._arrival(src_id, dst_id, nbytes)
        done = self.env.timeout(self.params.local_op_us)
        if self.injector is not None:
            return self.injector.fence_completion(src_id, dst_id, done)
        return done

    def _arrival(self, src_id: int, dst_id: Optional[int],
                 nbytes: int) -> Event:
        """Completion event of one injection at ``src_id`` — the one
        fast/slow decision of this module.

        Fault-free on the fast kernel the egress link is an analytic
        FIFO server: the whole 4-yield transfer process collapses into
        a single scheduled instant, whether the link is idle or busy
        with earlier bookings (:meth:`Resource.try_reserve`).  The
        transfer is ready for the link at ``now + nic_tx`` and holds it
        for the serialization time from then or from the end of the
        previous booking — when the generator's ``acquire()`` would be
        granted — so its window ends when the generator's ``release()``
        would run.  The additions keep the generator's association
        order: it computes ``(start + serialization)`` and then
        ``+ (wire + nic_rx)`` across separate Timeouts, and float
        addition is not associative — byte-identical equivalence
        requires the same order.  Otherwise (a real holder or waiter on
        the link, an injector, the slow kernel) the generator transfer
        runs: it is the spec, and the only path a fault injector can
        act on.
        """
        env = self.env
        injector = self.injector
        if env.fastpath and injector is None \
                and self._pre_acquire[src_id] == 0:
            p = self.params
            released_at = self._egress[src_id].try_reserve(
                env._now + p.nic_tx_us, p.serialization_us(nbytes))
            if released_at >= 0.0:
                done = Event(env)
                env._schedule_at(
                    released_at + (p.wire_latency_us + p.nic_rx_us), done,
                    value=None)
                return done
        self._pre_acquire[src_id] += 1
        # the name is only built here: formatting it per transfer would
        # put a string allocation on the analytic path above
        done = env.process(
            self._transfer_proc(src_id, dst_id, nbytes),
            name=(f"mcast-{src_id}" if dst_id is None
                  else f"xfer-{src_id}->{dst_id}"))
        if injector is not None:
            # a crash at either end while the payload is in flight must
            # fail this completion, not deliver into the new incarnation
            return injector.fence_completion(src_id, dst_id, done)
        return done

    def fast_send(self, src_id: int, dst_id: int, nbytes: int) -> float:
        """Event-free transfer for the NIC verb fast path.

        Returns the absolute time the payload lands at ``dst_id`` (the
        caller schedules its own continuation there), or -1.0 when the
        egress link has a real holder or waiter — then nothing was
        counted and the caller must fall back to :meth:`send_process`.
        Callers guarantee the fast kernel, no injector and valid node
        ids — the verb layer checked already.
        """
        env = self.env
        if src_id == dst_id:
            arrive_at = env._now + self.params.local_op_us
        else:
            # _arrival's booking with Resource.try_reserve and
            # serialization_us unrolled in place: this runs twice per
            # one-sided verb (request + response leg), so the method
            # calls it saves are measurable at bench scale.  Same float
            # association order as the generator (see _arrival).
            link = self._egress[src_id]
            if self._pre_acquire[src_id] != 0 or link._in_use \
                    or link._waiters:
                return -1.0
            p = self.params
            start = env._now + p.nic_tx_us
            if link._reserved_until > start:
                start = link._reserved_until
            link._reserved_until = released_at = \
                start + nbytes / p.bandwidth_bpus
            arrive_at = released_at + (p.wire_latency_us + p.nic_rx_us)
        self.transfers += 1
        self.bytes_moved += nbytes
        obs = env.obs
        if obs is not None:
            self._obs_transfer(obs, nbytes)
        return arrive_at

    def send_process(self, src_id: int, dst_id: int, nbytes: int,
                     arrive) -> None:
        """Fallback for a refused :meth:`fast_send`: a generator
        transfer with ``arrive()`` called at the arrival instant."""
        self.transfers += 1
        self.bytes_moved += nbytes
        obs = self.env.obs
        if obs is not None:
            self._obs_transfer(obs, nbytes)
        self._pre_acquire[src_id] += 1
        ev = self.env.process(self._transfer_proc(src_id, dst_id, nbytes),
                              name=f"xfer-{src_id}->{dst_id}")
        ev.callbacks.append(lambda _e: arrive())

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
        grant = link.acquire()
        self._pre_acquire[src_id] -= 1
        yield grant
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
        self.transfers += 1
        self.bytes_moved += nbytes  # injected once, replicated in-switch
        obs = self.env.obs
        if obs is not None:
            self._obs_transfer(obs, nbytes)
        return self._arrival(src_id, None, nbytes)
