"""The RDMA-capable NIC: verbs-style interface bound to one node.

Two families of operations:

* **Two-sided** (`send` / `recv`): channel semantics.  The receiver must
  ask for the message; the sending event completes at local send
  completion while delivery lands in the receiver's per-tag queue at
  arrival time.  Two-sided protocols additionally pay *host CPU* when
  the upper layer models it (see :mod:`repro.transport.tcpsock`).

* **One-sided** (`rdma_read` / `rdma_write` / `cas` / `faa`): memory
  semantics.  The remote host CPU is never involved — the simulated HCA
  walks the protection table and touches remote memory directly, which is
  precisely the property the paper's services exploit.

Bulk payloads can be *padded*: a directory entry of 24 real bytes that
represents an 8 KB page transfer passes ``wire_bytes=8192`` so timing
reflects the full page while only the meaningful bytes are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.errors import BoundsError, ConfigError, FaultError, RdmaError
from repro.sim import Environment, Event, Store
from repro.sim.core import _PENDING

from repro.net.memory import RemoteKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric
    from repro.net.node import Node

__all__ = ["Message", "NIC"]


@dataclass(slots=True)
class Message:
    """A delivered two-sided message.

    ``mid`` is unique per :class:`~repro.sim.Environment` (drawn from the
    environment's own id stream, so two simulations in one process never
    share a counter).  A duplicated delivery reuses the same ``mid``,
    which is what receiver-side dedup keys on.

    Slotted: messages are the highest-volume allocation in two-sided
    workloads, and slots cut both the per-instance dict and ~40% of the
    allocation cost.
    """

    src: int
    dst: int
    tag: Any
    payload: Any
    size: int
    sent_at: float
    arrived_at: float = 0.0
    mid: int = 0


#: fast-verb op codes — int compares on the hot stages instead of
#: string compares, and compact storage in the slot pool.
_OP_READ = 0
_OP_WRITE = 1
_OP_CAS = 2
_OP_FAA = 3
#: process-name stems of the generator twins, indexed by op code (the
#: atomic stems double as ``_atomic_proc``'s op argument).
_OP_NAMES = ("rdma-read", "rdma-write", "cas", "faa")


class NIC:
    """Verbs interface of one node."""

    def __init__(self, env: Environment, node: "Node", fabric: "Fabric"):
        self.env = env
        self.node = node
        self.fabric = fabric
        self.params = fabric.params
        self._recv_queues: Dict[Any, Store] = {}
        # cached observability handles (see Fabric._obs_transfer)
        self._obs_send_cache = None
        # counters (exposed for benches / tests)
        self.sends = 0
        self.rdma_reads = 0
        self.rdma_writes = 0
        self.atomics = 0
        # -- fast-verb slot pool ---------------------------------------
        # Hot one-sided verbs keep their state in parallel lists indexed
        # by an int slot id instead of a per-verb object: no allocation
        # on the post path beyond the completion Event, and the stage
        # continuations are per-slot ``functools.partial``s minted once
        # and recycled with the slot (a bound method would be allocated
        # at every ``self._stage`` access).  Slots are recycled through
        # ``_vfree``; a slot is freed at its last array access, before
        # the completion event is scheduled.
        self._vfree: list = []
        self._vdst: list = []
        self._vop: list = []
        self._vaddr: list = []
        self._vrkey: list = []
        self._va: list = []
        self._vb: list = []
        self._vwire: list = []
        self._vdone: list = []
        self._vposted: list = []
        self._varrived: list = []
        self._vserve: list = []
        self._vcomplete: list = []

    # ------------------------------------------------------------------
    # two-sided channel semantics
    # ------------------------------------------------------------------
    def _queue(self, tag: Any) -> Store:
        q = self._recv_queues.get(tag)
        if q is None:
            q = Store(self.env)
            self._recv_queues[tag] = q
        return q

    def send(self, dst_id: int, payload: Any = None, size: int = 0,
             tag: Any = 0) -> Event:
        """Post a send; the returned event fires at *local* completion.

        The message is enqueued at the destination when it arrives on the
        wire (header + ``size`` payload bytes).
        """
        if size < 0:
            raise ConfigError("negative message size")
        self.sends += 1
        msg = Message(src=self.node.id, dst=dst_id, tag=tag,
                      payload=payload, size=size, sent_at=self.env.now,
                      mid=self.env.next_id("msg"))
        self._obs_send(msg)
        wire = self.fabric.transfer(
            self.node.id, dst_id, size + self.params.header_bytes)
        dst_nic = self.fabric.node(dst_id).nic

        def deliver(_ev):
            if not _ev.ok:
                return  # wire failure: message lost
            copies = self._delivery_copies(msg)
            self._obs_delivery(msg, copies)
            if copies == 0:
                return
            msg.arrived_at = self.env.now
            for _ in range(copies):
                dst_nic._queue(tag).try_put(msg)

        wire.add_callback(deliver)
        # Local send completion: posting cost only (fire-and-forget).
        return self.env.timeout(self.params.post_us)

    def send_wait(self, dst_id: int, payload: Any = None, size: int = 0,
                  tag: Any = 0) -> Event:
        """Like :meth:`send` but the event fires on *arrival* at dst."""
        if size < 0:
            raise ConfigError("negative message size")
        self.sends += 1
        msg = Message(src=self.node.id, dst=dst_id, tag=tag,
                      payload=payload, size=size, sent_at=self.env.now,
                      mid=self.env.next_id("msg"))
        self._obs_send(msg)
        done = self.env.event()
        wire = self.fabric.transfer(
            self.node.id, dst_id, size + self.params.header_bytes)
        dst_nic = self.fabric.node(dst_id).nic

        def deliver(_ev):
            if not _ev.ok:
                done.fail(_ev._value)
                return
            copies = self._delivery_copies(msg)
            self._obs_delivery(msg, copies)
            if copies == 0:
                # acked delivery: a dropped message surfaces to the sender
                done.fail(FaultError(
                    f"message {msg.mid} to node {dst_id} dropped"))
                return
            msg.arrived_at = self.env.now
            for _ in range(copies):
                dst_nic._queue(tag).try_put(msg)
            done.succeed(msg)

        wire.add_callback(deliver)
        return done

    def send_multicast(self, dst_ids, payload: Any = None, size: int = 0,
                       tag: Any = 0) -> Event:
        """Hardware multicast: one injection delivers to every member.

        The returned event fires when the message has been enqueued at
        all destinations.  Compared with a unicast loop, the sender's
        egress link is held only once (see :meth:`Fabric.multicast`).
        """
        if size < 0:
            raise ConfigError("negative message size")
        dst_ids = list(dst_ids)
        self.sends += 1
        sent_at = self.env.now
        wire = self.fabric.multicast(self.node.id, dst_ids,
                                     size + self.params.header_bytes)
        done = self.env.event()

        def deliver(_ev):
            if not _ev.ok:
                done.fail(_ev._value)
                return
            for dst in dst_ids:
                msg = Message(src=self.node.id, dst=dst, tag=tag,
                              payload=payload, size=size,
                              sent_at=sent_at, arrived_at=self.env.now,
                              mid=self.env.next_id("msg"))
                copies = self._delivery_copies(msg)
                self._obs_delivery(msg, copies)
                for _ in range(copies):
                    self.fabric.node(dst).nic._queue(tag).try_put(msg)
            done.succeed()

        wire.add_callback(deliver)
        return done

    def _delivery_copies(self, msg: Message) -> int:
        """Fault hook: how many copies of ``msg`` land at the receiver."""
        injector = self.fabric.injector
        if injector is None:
            return 1
        return injector.message_fate(msg.src, msg.dst)

    def _obs_send(self, msg: Message) -> None:
        """Observability hook: a send was posted."""
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("msg.send", node=msg.src, dst=msg.dst,
                           size=msg.size, mid=msg.mid)
            cache = self._obs_send_cache
            if cache is None or cache[0] is not obs:
                cache = self._obs_send_cache = (
                    obs, obs.metrics.counter("nic.sends", node=self.node.id))
            cache[1].inc()

    def _obs_delivery(self, msg: Message, copies: int) -> None:
        """Observability hook: delivery outcome at the receiver."""
        obs = self.env.obs
        if obs is None:
            return
        if copies == 0:
            obs.trace.emit("msg.drop", node=msg.dst, src=msg.src,
                           mid=msg.mid)
        else:
            obs.trace.emit("msg.deliver", node=msg.dst, src=msg.src,
                           mid=msg.mid)
            if copies > 1:
                obs.trace.emit("msg.dup", node=msg.dst, src=msg.src,
                               mid=msg.mid)

    def recv(self, tag: Any = 0) -> Event:
        """Wait for the next message with ``tag``; value is a Message."""
        return self._queue(tag).get()

    def try_recv(self, tag: Any = 0):
        """Non-blocking receive; returns ``(ok, message_or_None)``.

        Probing a tag that never received a message does not create its
        queue — polling loops over sparse tag spaces stay allocation-free.
        """
        q = self._recv_queues.get(tag)
        if q is None:
            return False, None
        return q.try_get()

    def pending(self, tag: Any = 0) -> int:
        q = self._recv_queues.get(tag)
        return 0 if q is None else len(q)

    def drop_queue(self, tag: Any) -> None:
        """Forget ``tag``'s receive queue (a one-shot reply tag)."""
        self._recv_queues.pop(tag, None)

    # ------------------------------------------------------------------
    # one-sided memory semantics — fast-path slot-pool driver
    # ------------------------------------------------------------------
    # Callback-chain twin of ``_read_proc`` / ``_write_proc`` /
    # ``_atomic_proc``: no generator, no Process, no per-stage Event.
    # Fault-free on one rack a verb costs exactly three agenda entries,
    # busy NIC or idle — *posted* (book the egress link, schedule the
    # remote service instant), *serve* (touch remote memory, book the
    # return link), and the completion event itself, scheduled directly
    # at the response's arrival instant (``Fabric._route`` returned it).
    # Each instant is computed with the same float association order the
    # generator version's chained Timeouts would produce, so fast and
    # ``REPRO_SLOW_KERNEL=1`` runs stay equivalent.  When a leg's
    # arrival instant is not known at injection (a ToR uplink on the
    # way) or the leg can fail on the way (a fault injector), the route
    # calls back at the arrival instant instead — ``_verb_arrived`` /
    # ``_verb_complete`` with the completion fence's verdict — and the
    # chain carries the generator's failure branches: every injector
    # hook is consulted at the instant the generator consults it
    # (DESIGN.md §9), and a failure fails the verb at the instant the
    # generator would raise, with process-crash semantics.

    def _verb_slot(self) -> int:
        free = self._vfree
        if free:
            return free.pop()
        s = len(self._vdst)
        self._vdst.append(0)
        self._vop.append(0)
        self._vaddr.append(0)
        self._vrkey.append(0)
        self._va.append(None)
        self._vb.append(None)
        self._vwire.append(0)
        self._vdone.append(None)
        self._vposted.append(partial(NIC._verb_posted, self, s))
        self._varrived.append(partial(NIC._verb_arrived, self, s))
        self._vserve.append(partial(NIC._verb_serve, self, s))
        self._vcomplete.append(partial(NIC._verb_complete, self, s))
        return s

    def _post_verb(self, dst: int, op: int, addr: int, rkey: int,
                   a, b, wire: int) -> Event:
        """Post a one-sided verb; the one fast/slow decision of this
        module.  The slot-pool chain serves the fast kernel; the
        generator ``_*_proc`` twins are the executable spec and run
        under ``REPRO_SLOW_KERNEL=1``."""
        env = self.env
        if not env.fastpath:
            name = _OP_NAMES[op]
            if op == _OP_READ:
                gen = self._read_proc(dst, addr, rkey, a, wire)
            elif op == _OP_WRITE:
                gen = self._write_proc(dst, addr, rkey, a, wire)
            else:
                gen = self._atomic_proc(dst, addr, rkey, name, a, b)
            return env.process(gen, name=f"{name}@{self.node.id}")
        # Flattened Event construction (the only allocation left on the
        # post path) — semantically ``Event(env)``.
        done = Event.__new__(Event)
        done.env = env
        done.callbacks = []
        done._value = _PENDING
        done._ok = True
        s = self._verb_slot()
        self._vdst[s] = dst
        self._vop[s] = op
        self._vaddr[s] = addr
        self._vrkey[s] = rkey
        self._va[s] = a
        self._vb[s] = b
        self._vwire[s] = wire
        self._vdone[s] = done
        injector = self.fabric.injector
        if injector is not None and injector.plan.verb_faults:
            # verb_fault draws from the stream message_fate shares, so
            # it must run where the generator's first statement runs:
            # in an agenda entry of its own at the post instant
            env._schedule_call(env._now, partial(self._verb_check, s))
        else:
            env._schedule_call(env._now + self.params.post_us,
                               self._vposted[s])
        return done

    def _free_verb(self, s: int) -> Event:
        """Release slot ``s``; returns its completion event.  Clears the
        payload/value cells so recycled slots don't pin old objects."""
        done = self._vdone[s]
        self._vdone[s] = None
        self._va[s] = None
        self._vb[s] = None
        self._vfree.append(s)
        return done

    def _verb_check(self, s: int) -> None:
        try:
            self.fabric.injector.verb_fault(self.node.id, self._vdst[s])
        except RdmaError as exc:
            self._fail_verb(self._free_verb(s), exc)
            return
        self.env._schedule_call(self.env._now + self.params.post_us,
                                self._vposted[s])

    def _leg_refused(self, injector, s: int, src: int, dst: int) -> bool:
        """``transfer_fault`` at a leg's injection: True when the leg is
        refused, and the verb then fails when the refusal does (after
        ``detect_us``)."""
        fail = injector.transfer_fault(src, dst)
        if fail is None:
            return False
        fail.add_callback(lambda ev: self._fail_verb(self._free_verb(s),
                                                     ev._value))
        return True

    def _verb_posted(self, s: int) -> None:
        fabric = self.fabric
        dst = self._vdst[s]
        if dst not in fabric._nodes:
            # Same failure instant and semantics as the slow path, where
            # Fabric.transfer raises inside the verb process.
            self._fail_verb(self._free_verb(s), ConfigError(
                f"transfer between unknown nodes "
                f"{self.node.id}->{dst}"))
            return
        injector = fabric.injector
        if injector is not None \
                and self._leg_refused(injector, s, self.node.id, dst):
            return
        p = self.params
        op = self._vop[s]
        if op == _OP_WRITE:
            nbytes = self._vwire[s] + p.header_bytes
        else:
            nbytes = p.header_bytes
        t = fabric._route(self.node.id, dst, nbytes, self._varrived[s])
        if t < 0.0:
            return  # the route calls _verb_arrived at the arrival
        # Fold the NIC turnaround / atomic-unit delay into the same
        # entry: the slow path schedules it from the arrival instant, so
        # ``t + delay`` is the identical float.
        if op == _OP_READ:
            t += p.rdma_turnaround_us
        elif op != _OP_WRITE:  # writes land on arrival; no turnaround
            t += p.atomic_exec_us
        self.env._schedule_call(t, self._vserve[s])

    def _verb_arrived(self, s: int, exc: Optional[BaseException]) -> None:
        # Arrival of a request leg the route called back for.  The
        # turnaround is its own entry here, applied from the actual
        # arrival instant exactly like the generator's Timeout: a fenced
        # leg must fail now, not ``turnaround`` later.
        if exc is not None:
            self._fail_verb(self._free_verb(s), exc)
            return
        op = self._vop[s]
        if op == _OP_WRITE:
            self._verb_serve(s)
            return
        env = self.env
        delay = (self.params.rdma_turnaround_us if op == _OP_READ
                 else self.params.atomic_exec_us)
        env._schedule_call(env._now + delay, self._vserve[s])

    def _verb_serve(self, s: int) -> None:
        fabric = self.fabric
        dst = self._vdst[s]
        mem = fabric._nodes[dst].memory
        op = self._vop[s]
        addr = self._vaddr[s]
        rkey = self._vrkey[s]
        try:
            if op == _OP_CAS:
                value = mem.cas64(addr, rkey, self._va[s], self._vb[s])
            elif op == _OP_FAA:
                value = mem.faa64(addr, rkey, self._va[s])
            elif op == _OP_READ:
                value = mem.rdma_read(addr, rkey, self._va[s])
            else:
                mem.rdma_write(addr, rkey, self._va[s])
                value = None
        except BaseException as exc:
            self._fail_verb(self._free_verb(s), exc)
            return
        # the memory operation has happened whatever becomes of the
        # response leg, as in the generator
        injector = fabric.injector
        if injector is not None \
                and self._leg_refused(injector, s, dst, self.node.id):
            return
        p = self.params
        nbytes = (self._vwire[s] + p.header_bytes if op == _OP_READ
                  else p.header_bytes)
        t = fabric._route(dst, self.node.id, nbytes, self._vcomplete[s])
        if t < 0.0:
            self._va[s] = value  # carried to _verb_complete
            return
        # Last slot access: free before scheduling the completion (the
        # event rides the agenda entry, not the slot).
        done = self._free_verb(s)
        self.env._schedule_at(t, done, value=value)

    def _verb_complete(self, s: int, exc: Optional[BaseException]) -> None:
        value = self._va[s]
        done = self._free_verb(s)
        if exc is not None:
            self._fail_verb(done, exc)
        else:
            done.succeed(value)

    def rdma_read(self, dst_id: int, addr: int, rkey: int, length: int,
                  wire_bytes: Optional[int] = None) -> Event:
        """Read ``length`` bytes of remote memory; value is `bytes`.

        ``wire_bytes`` (>= length) inflates the timed response size for
        padded bulk transfers.
        """
        self._need_rdma()
        self.rdma_reads += 1
        wire = length if wire_bytes is None else wire_bytes
        if wire < length:
            raise ConfigError("wire_bytes smaller than read length")
        ev = self._post_verb(dst_id, _OP_READ, addr, rkey, length, None, wire)
        obs = self.env.obs
        if obs is not None:
            obs.verb(self, "read", dst_id, wire, ev)
        return ev

    def _read_proc(self, dst_id, addr, rkey, length, wire):
        p = self.params
        self._check_verb_fault(dst_id)
        yield self.env.timeout(p.post_us)
        # request descriptor to target
        yield self.fabric.transfer(self.node.id, dst_id, p.header_bytes)
        yield self.env.timeout(p.rdma_turnaround_us)
        data = self.fabric.node(dst_id).memory.rdma_read(addr, rkey, length)
        # response carrying the data
        yield self.fabric.transfer(dst_id, self.node.id,
                                   wire + p.header_bytes)
        return data

    def rdma_write(self, dst_id: int, addr: int, rkey: int, data: bytes,
                   wire_bytes: Optional[int] = None) -> Event:
        """Write ``data`` into remote memory; event fires on remote ack."""
        self._need_rdma()
        self.rdma_writes += 1
        wire = len(data) if wire_bytes is None else wire_bytes
        if wire < len(data):
            raise ConfigError("wire_bytes smaller than payload")
        if type(data) is not bytes:
            # Immutable callers (the common case) skip the defensive copy.
            data = bytes(data)
        ev = self._post_verb(dst_id, _OP_WRITE, addr, rkey, data, None, wire)
        obs = self.env.obs
        if obs is not None:
            obs.verb(self, "write", dst_id, wire, ev)
        return ev

    def _write_proc(self, dst_id, addr, rkey, data, wire):
        p = self.params
        self._check_verb_fault(dst_id)
        yield self.env.timeout(p.post_us)
        yield self.fabric.transfer(self.node.id, dst_id,
                                   wire + p.header_bytes)
        self.fabric.node(dst_id).memory.rdma_write(addr, rkey, data)
        # hardware ack back to the initiator
        yield self.fabric.transfer(dst_id, self.node.id, p.header_bytes)
        return None

    def cas(self, dst_id: int, addr: int, rkey: int,
            compare: int, swap: int) -> Event:
        """Remote compare-and-swap on a 64-bit word; value = old word."""
        self._need_rdma()
        self.atomics += 1
        ev = self._post_verb(dst_id, _OP_CAS, addr, rkey, compare, swap, 8)
        obs = self.env.obs
        if obs is not None:
            obs.verb(self, "cas", dst_id, 8, ev)
        return ev

    def faa(self, dst_id: int, addr: int, rkey: int, add: int) -> Event:
        """Remote fetch-and-add on a 64-bit word; value = old word."""
        self._need_rdma()
        self.atomics += 1
        ev = self._post_verb(dst_id, _OP_FAA, addr, rkey, add, 0, 8)
        obs = self.env.obs
        if obs is not None:
            obs.verb(self, "faa", dst_id, 8, ev)
        return ev

    def _fail_verb(self, done: Event, exc: BaseException) -> None:
        """Fail a fast-path verb with process-crash semantics: the event
        fails (callers that yielded it get the exception thrown in) and,
        exactly like an unwatched Process, the crash re-raises when only
        passive observability probes are attached."""
        done._ok = False
        done._value = exc
        self.env._queue_event(done)
        if all(getattr(cb, "_obs_passive", False) for cb in done.callbacks):
            raise exc

    def _atomic_proc(self, dst_id, addr, rkey, op, a, b):
        p = self.params
        self._check_verb_fault(dst_id)
        yield self.env.timeout(p.post_us)
        yield self.fabric.transfer(self.node.id, dst_id, p.header_bytes)
        yield self.env.timeout(p.atomic_exec_us)
        mem = self.fabric.node(dst_id).memory
        if op == "cas":
            old = mem.cas64(addr, rkey, a, b)
        else:
            old = mem.faa64(addr, rkey, a)
        yield self.fabric.transfer(dst_id, self.node.id, p.header_bytes)
        return old

    # -- convenience over RemoteKey ----------------------------------------
    # The bounds checks are ``RemoteKey.slice`` inlined (same error
    # messages) without minting the intermediate RemoteKey — these
    # helpers are the hottest call sites in key-addressed workloads.
    def read_key(self, key: RemoteKey, offset: int = 0,
                 length: Optional[int] = None,
                 wire_bytes: Optional[int] = None) -> Event:
        if offset < 0 or offset > key.length:
            raise BoundsError(f"slice offset {offset} outside window")
        if length is None:
            length = key.length - offset
        elif length < 0 or offset + length > key.length:
            raise BoundsError("slice extends past window")
        return self.rdma_read(key.node, key.addr + offset, key.rkey,
                              length, wire_bytes=wire_bytes)

    def write_key(self, key: RemoteKey, data: bytes, offset: int = 0,
                  wire_bytes: Optional[int] = None) -> Event:
        if offset < 0 or offset > key.length:
            raise BoundsError(f"slice offset {offset} outside window")
        if offset + len(data) > key.length:
            raise BoundsError("slice extends past window")
        return self.rdma_write(key.node, key.addr + offset, key.rkey,
                               data, wire_bytes=wire_bytes)

    def cas_key(self, key: RemoteKey, offset: int,
                compare: int, swap: int) -> Event:
        if offset < 0 or offset > key.length:
            raise BoundsError(f"slice offset {offset} outside window")
        if offset + 8 > key.length:
            raise BoundsError("slice extends past window")
        return self.cas(key.node, key.addr + offset, key.rkey,
                        compare, swap)

    def faa_key(self, key: RemoteKey, offset: int, add: int) -> Event:
        if offset < 0 or offset > key.length:
            raise BoundsError(f"slice offset {offset} outside window")
        if offset + 8 > key.length:
            raise BoundsError("slice extends past window")
        return self.faa(key.node, key.addr + offset, key.rkey, add)

    def _need_rdma(self) -> None:
        if not self.params.has_rdma:
            raise RdmaError(
                f"interconnect {self.params.name!r} has no RDMA support")

    def _check_verb_fault(self, dst_id: int) -> None:
        """Fault hook: raises RdmaError inside an injected failure window."""
        injector = self.fabric.injector
        if injector is not None:
            injector.verb_fault(self.node.id, dst_id)
