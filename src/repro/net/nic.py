"""The RDMA-capable NIC: verbs-style interface bound to one node.

Two families of operations:

* **Two-sided** (`post` / `send` / `recv`): channel semantics.  The
  receiver must ask for the message; delivery lands in the receiver's
  per-tag queue at arrival time.  `post` books no local completion (the
  verbs notion of an unsignaled work request); `send` returns an event
  that fires at local send completion.  Two-sided protocols
  additionally pay *host CPU* when the upper layer models it (the
  socket baselines charge ``NetworkParams.sock_cpu_us`` through
  :func:`repro.transport.rpc.sock`).

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
from heapq import heappush
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.errors import BoundsError, ConfigError, FaultError, RdmaError
from repro.sim import Environment, Event, Store
from repro.sim.core import _CALL, _PENDING

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


class NIC:
    """Verbs interface of one node."""

    def __init__(self, env: Environment, node: "Node", fabric: "Fabric"):
        self.env = env
        self.node = node
        self.fabric = fabric
        self.params = fabric.params
        self._recv_queues: Dict[Any, Store] = {}
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

    def post(self, dst_id: int, payload: Any, size: int, tag: Any,
             done: Optional[Event] = None) -> None:
        """Post an *unsignaled* send: no local completion is booked.

        The message lands in the destination's tag queue on arrival
        (header + ``size`` bytes on the wire); ``done``, if given, then
        succeeds with it, or fails if it is lost (:meth:`send_wait`).
        Fault-free the arrival is one bare agenda call at the instant
        :meth:`Fabric._route` returns or hands to :meth:`_land`;
        otherwise it rides the transfer event, with the fence and
        ``message_fate`` consulted at arrival (DESIGN.md §9).
        """
        if size < 0:
            raise ConfigError("negative message size")
        self.sends += 1
        env = self.env
        msg = Message(src=self.node.id, dst=dst_id, tag=tag,
                      payload=payload, size=size, sent_at=env.now,
                      mid=env.next_id("msg"))
        if env.obs is not None:
            self._obs_send(msg)
        fabric = self.fabric
        nbytes = size + self.params.header_bytes
        nodes = fabric._nodes
        if fabric.injector is None and dst_id in nodes:
            land = partial(NIC._land, nodes[dst_id].nic, msg, done)
            t = fabric._route(self.node.id, dst_id, nbytes, land)
            if t >= 0.0:
                env._schedule_call(t, land)
            return
        wire = fabric.transfer(self.node.id, dst_id, nbytes)
        wire.add_callback(partial(NIC._delivered, fabric.node(dst_id).nic,
                                  msg, done))

    def send(self, dst_id: int, payload: Any = None, size: int = 0,
             tag: Any = 0) -> Event:
        """:meth:`post`, signaled: the returned event fires at *local*
        completion, the posting cost later."""
        self.post(dst_id, payload, size, tag)
        return self.env.timeout(self.params.post_us)

    def send_wait(self, dst_id: int, payload: Any = None, size: int = 0,
                  tag: Any = 0) -> Event:
        """Like :meth:`send` but the event fires on *arrival* at dst."""
        done = self.env.event()
        self.post(dst_id, payload, size, tag, done)
        return done

    def _land(self, msg: Message, done: Optional[Event], *known) -> None:
        """Fault-free arrival of ``msg`` at this, its destination, NIC;
        or, ``known`` being ``(None, at)``, a cross-rack route's uplink
        booking, which schedules the arrival at ``at``."""
        env = self.env
        if known:
            env._schedule_call(known[1], partial(NIC._land, self, msg, done))
            return
        if env.obs is not None:
            self._obs_delivery(msg, 1)
        msg.arrived_at = env.now
        self._queue(msg.tag).try_put(msg)
        if done is not None:
            done.succeed(msg)

    def _delivered(self, msg: Message, done: Optional[Event],
                   wire: Event) -> None:
        """Arrival of ``msg`` at this, its destination, NIC on the
        transfer event ``wire``."""
        if not wire._ok:  # wire failure: message lost
            if done is not None:
                done.fail(wire._value)
            return
        injector = self.fabric.injector
        copies = 1 if injector is None \
            else injector.message_fate(msg.src, msg.dst)  # the fault hook
        if self.env.obs is not None:
            self._obs_delivery(msg, copies)
        if copies == 0:
            if done is not None:  # a dropped message surfaces to the sender
                done.fail(FaultError(
                    f"message {msg.mid} to node {msg.dst} dropped"))
            return
        msg.arrived_at = self.env.now
        for _ in range(copies):
            self._queue(msg.tag).try_put(msg)
        if done is not None:
            done.succeed(msg)

    def pull_metrics(self, metrics) -> None:
        """Register ``sends`` as the pulled counter ``nic.sends@n<node>``."""
        metrics.pull("nic.sends", lambda: self.sends, node=self.node.id)

    def _obs_send(self, msg: Message) -> None:
        """Observability hook: a send was posted (``env.obs`` is set)."""
        self.env.obs.trace.emit("msg.send", node=msg.src, dst=msg.dst,
                                size=msg.size, mid=msg.mid)

    def _obs_delivery(self, msg: Message, copies: int) -> None:
        """Observability hook: delivery outcome at the receiver (``env.obs``
        is set)."""
        obs = self.env.obs
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

    # ------------------------------------------------------------------
    # one-sided memory semantics — slot-pool driver
    # ------------------------------------------------------------------
    # The callback chain of a one-sided verb: no generator, no Process,
    # no per-stage Event.  On one rack, unless a planned crash can reach
    # a leg in flight, a verb costs exactly three agenda entries, busy
    # NIC or idle — *posted* (book the egress link, schedule the remote
    # service instant), *serve* (touch remote memory, book the return
    # link), and the completion event itself, scheduled directly at the
    # response's arrival instant (``Fabric._route`` returned it).  Each
    # instant is computed with the same float association order the
    # generator version's chained Timeouts would produce (the generators
    # are kept as ``tests/sim/reference_kernel.py``).  When a leg's
    # arrival instant is fixed after injection (a ToR uplink on the way)
    # the route hands it over at that booking — ``_verb_arrived`` /
    # ``_verb_complete`` with ``at`` — and when a planned crash can
    # reach the leg it calls them at the arrival instant with the
    # completion fence's verdict.  The chain carries the generator's
    # failure branches: every injector hook is consulted at the instant
    # the generator consults it (DESIGN.md §9), and a failure fails the
    # verb at the instant the generator would raise, with process-crash
    # semantics.

    def _verb_slot(self) -> int:
        """Grow the pool by one slot (``_post_verb`` reuses a free one
        inline)."""
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
        """Post a one-sided verb on the slot-pool chain."""
        env = self.env
        # Flattened Event construction (the only allocation left on the
        # post path) — semantically ``Event(env)``.
        done = Event.__new__(Event)
        done.env = env
        done.callbacks = []
        done._value = _PENDING
        done._ok = True
        free = self._vfree
        s = free.pop() if free else self._verb_slot()
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
            env._schedule_call(env.now, partial(self._verb_check, s))
        else:
            # _schedule_call's push, flattened (here and at each leg)
            when = env.now + self.params.post_us
            seq = env._seq = env._seq + 1
            if when == env.now:
                env._imm.append((seq, self._vposted[s], _CALL))
            else:
                heappush(env._heap, (when, seq, self._vposted[s], _CALL))
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
        self.env._schedule_call(self.env.now + self.params.post_us,
                                self._vposted[s])

    def _leg_refused(self, injector, s: int, src: int, dst: int) -> bool:
        """``transfer_fault`` at a leg's injection: True when the leg is
        refused, and the verb then fails when the refusal does (after
        :data:`repro.faults.injector.DETECT_US`)."""
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
            # Same failure instant and semantics as the generator, where
            # Fabric.transfer raises inside the verb process.
            self._fail_verb(self._free_verb(s), ConfigError(
                f"transfer between unknown nodes "
                f"{self.node.id}->{dst}"))
            return
        injector = fabric.injector
        if injector is not None and (
                dst in injector.down or self.node.id in injector.down
                or injector.plan.partitions) \
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
            return  # the route calls _verb_arrived
        # Fold the NIC turnaround / atomic-unit delay into the same
        # entry: the generator schedules it from the arrival instant, so
        # ``t + delay`` is the identical float.
        if op == _OP_READ:
            t += p.rdma_turnaround_us
        elif op != _OP_WRITE:  # writes land on arrival; no turnaround
            t += p.atomic_exec_us
        env = self.env
        seq = env._seq = env._seq + 1
        if t == env.now:
            env._imm.append((seq, self._vserve[s], _CALL))
        else:
            heappush(env._heap, (t, seq, self._vserve[s], _CALL))

    def _verb_arrived(self, s: int, exc: Optional[BaseException],
                      at: float) -> None:
        # A request leg the route called back for: with its arrival
        # instant ``at``, or at the arrival (``at`` -1.0) with the
        # fence's verdict.  There the turnaround is its own entry,
        # applied from the actual arrival instant exactly like the
        # generator's Timeout: a fenced leg must fail now, not
        # ``turnaround`` later.
        if exc is not None:
            self._fail_verb(self._free_verb(s), exc)
            return
        op = self._vop[s]
        if at < 0.0:
            if op == _OP_WRITE:
                self._verb_serve(s)
                return
            at = self.env.now
        if op == _OP_READ:
            at += self.params.rdma_turnaround_us
        elif op != _OP_WRITE:  # writes land on arrival; no turnaround
            at += self.params.atomic_exec_us
        self.env._schedule_call(at, self._vserve[s])

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
        if injector is not None and (
                dst in injector.down or self.node.id in injector.down
                or injector.plan.partitions) \
                and self._leg_refused(injector, s, dst, self.node.id):
            return
        p = self.params
        nbytes = (self._vwire[s] + p.header_bytes if op == _OP_READ
                  else p.header_bytes)
        t = fabric._route(dst, self.node.id, nbytes, self._vcomplete[s])
        if t < 0.0:
            self._va[s] = value  # carried to _verb_complete
            return
        # Last slot access, ``_free_verb`` inlined: free before scheduling
        # the completion (the event rides the agenda entry, not the slot).
        done = self._vdone[s]
        self._vdone[s] = self._va[s] = self._vb[s] = None
        self._vfree.append(s)
        env = self.env
        seq = env._seq = env._seq + 1
        if t == env.now:
            env._imm.append((seq, done, value))
        else:
            heappush(env._heap, (t, seq, done, value))

    def _verb_complete(self, s: int, exc: Optional[BaseException],
                       at: float) -> None:
        value = self._va[s]
        done = self._free_verb(s)
        if exc is not None:
            self._fail_verb(done, exc)
        elif at >= 0.0:
            self.env._schedule_at(at, done, value=value)
        else:
            done.succeed(value)

    def rdma_read(self, dst_id: int, addr: int, rkey: int, length: int,
                  wire_bytes: Optional[int] = None) -> Event:
        """Read ``length`` bytes of remote memory; value is `bytes`.

        ``wire_bytes`` (>= length) inflates the timed response size for
        padded bulk transfers.
        """
        if length < 0:
            raise ConfigError("cannot read negative bytes")
        wire = length if wire_bytes is None else wire_bytes
        if wire < length:
            raise ConfigError("wire_bytes smaller than read length")
        self.rdma_reads += 1
        ev = self._post_verb(dst_id, _OP_READ, addr, rkey, length, None, wire)
        obs = self.env.obs
        if obs is not None:
            obs.verb(self, "read", dst_id, wire, ev)
        return ev

    def rdma_write(self, dst_id: int, addr: int, rkey: int, data: bytes,
                   wire_bytes: Optional[int] = None) -> Event:
        """Write ``data`` into remote memory; event fires on remote ack."""
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

    def cas(self, dst_id: int, addr: int, rkey: int,
            compare: int, swap: int) -> Event:
        """Remote compare-and-swap on a 64-bit word; value = old word."""
        self.atomics += 1
        ev = self._post_verb(dst_id, _OP_CAS, addr, rkey, compare, swap, 8)
        obs = self.env.obs
        if obs is not None:
            obs.verb(self, "cas", dst_id, 8, ev)
        return ev

    def faa(self, dst_id: int, addr: int, rkey: int, add: int) -> Event:
        """Remote fetch-and-add on a 64-bit word; value = old word."""
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
