"""Credit-based vs packetized flow control (paper §6).

The paper's observation: with credit-based flow control every message
consumes one preposted temporary buffer **regardless of its size** — two
1-byte messages burn two 8 KB buffers, wasting 99.98 % of the space and
capping small-message rate at ``credits / round-trip``.  Packetized flow
control instead lets the *sender* manage the receiver's buffer pool as a
byte ring via RDMA writes, packing messages tightly, so the small-message
rate is bounded by bandwidth and ack frequency instead of message count.

These classes are a focused micro-model used by the E10 bench:

* :class:`FlowReceiver` — owns ``NBUFS`` buffers of ``BUF_BYTES`` each
  and drains them at a fixed per-message application cost.
* :class:`CreditFlowSender` — sends under one credit per message.
* :class:`PacketizedFlowSender` — sends into the remote ring via RDMA
  write, space-limited rather than credit-limited.

Both share one ``stream`` loop (:class:`_FlowSender`): send, drain and
return in batches of ``ACK_BATCH``; the senders differ only in what a
message takes from the pool and how it comes back.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.sim import Event, Resource, Store

__all__ = ["FlowReceiver", "CreditFlowSender", "PacketizedFlowSender"]

#: application-level drain cost per delivered message (µs)
DRAIN_PER_MSG_US = 0.05
#: receiver posts an ack/credit-return after this many drained messages
ACK_BATCH = 4
#: the receiver's preposted pool: NBUFS buffers of BUF_BYTES (the
#: paper's 8 KB example)
NBUFS = 8
BUF_BYTES = 8192
POOL_BYTES = NBUFS * BUF_BYTES


def _stall_release(fabric, node_id: int):
    """End of an active ``stall_credits`` window on ``node_id``, if any.

    The receiver application keeps draining buffers during a stall —
    the gray failure wedges only the credit/space *returns*, which is
    exactly what starves the sender.
    """
    injector = fabric.injector
    if injector is None:
        return None
    return injector.credit_stall_until(node_id)


class FlowReceiver:
    """Receiving peer with a fixed preposted buffer pool."""

    def __init__(self, node):
        self.node = node
        self.delivered = 0
        self.delivered_bytes = 0


class _FlowSender:
    """One stream loop over the receiver's pool.

    A subclass says what one message takes from the pool
    (:meth:`_footprint`), how the sender waits for it (:meth:`_admit`)
    and how the receiver's batched return gives it back
    (:meth:`_give_back`).
    """

    #: the receiver reposts a receive WQE for each drained buffer
    #: (packetized flow control has no per-message repost: the sender
    #: manages the ring with RDMA writes)
    REPOST = False

    def __init__(self, node, receiver: FlowReceiver):
        self.node = node
        self.env = node.env
        self.receiver = receiver

    def stream(self, n_msgs: int, msg_bytes: int):
        """Generator: send ``n_msgs`` of ``msg_bytes`` each; returns the
        achieved bandwidth in bytes/µs."""
        footprint = self._footprint(msg_bytes)
        env = self.env
        fabric = self.node.fabric
        rnode = self.receiver.node
        p = fabric.params
        drain_us = (DRAIN_PER_MSG_US + p.post_us if self.REPOST
                    else DRAIN_PER_MSG_US)
        t0 = env.now
        inflight = Store(env)
        # Per-stream completion: signalled by rx_side once *this* stream's
        # n_msgs have drained.  Gating on the receiver's cumulative
        # ``delivered`` counter would let a second stream() against the
        # same FlowReceiver return early, and polling quantized the
        # measured elapsed time to the poll period.
        drained_all = Event(env)

        def rx_side():
            """Receiver app: drain arrivals, return them in batches."""
            drained = 0
            for i in range(n_msgs):
                yield inflight.get()
                yield env.timeout(drain_us)
                self.receiver.delivered += 1
                self.receiver.delivered_bytes += msg_bytes
                drained += 1
                if drained == ACK_BATCH or i == n_msgs - 1:
                    release = _stall_release(fabric, rnode.id)
                    if release is not None:
                        # gray failure: receiver wedged, returns held
                        # back until the stall window closes
                        yield env.timeout(release - env.now)
                    # the credit / freed-space message flows back
                    ret = fabric.transfer(rnode.id, self.node.id,
                                          p.header_bytes)
                    ret.add_callback(lambda _ev, n=drained:
                                     self._give_back(n, footprint))
                    drained = 0
            drained_all.succeed()

        env.process(rx_side(), name="flow-rx")
        for _ in range(n_msgs):
            yield from self._admit(footprint)
            done = fabric.transfer(self.node.id, rnode.id,
                                   footprint + p.header_bytes)
            done.add_callback(lambda _ev: inflight.try_put(1))
        yield drained_all
        elapsed = env.now - t0
        return (n_msgs * msg_bytes) / elapsed if elapsed > 0 else 0.0

    def _emit(self, kind: str, **fields) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(kind, node=self.node.id, sender=self.node.id,
                           **fields)


class CreditFlowSender(_FlowSender):
    """Sender limited by one credit per message."""

    REPOST = True

    def __init__(self, node, receiver: FlowReceiver):
        super().__init__(node, receiver)
        self._credits = Resource(self.env, capacity=NBUFS)

    def _footprint(self, msg_bytes: int) -> int:
        # every message occupies one whole preposted buffer slot
        if msg_bytes > BUF_BYTES:
            raise ConfigError("message larger than a preposted buffer")
        return msg_bytes

    def _admit(self, footprint: int):
        yield self._credits.acquire()
        self._emit("flow.credit.take", capacity=NBUFS)

    def _give_back(self, n: int, footprint: int) -> None:
        for _ in range(n):
            self._credits.release()
        self._emit("flow.credit.return", n=n)


class PacketizedFlowSender(_FlowSender):
    """Sender managing the receiver's pool as a byte ring over RDMA."""

    def __init__(self, node, receiver: FlowReceiver):
        super().__init__(node, receiver)
        # sender-side view of free bytes in the remote ring, and the
        # space returns not yet added to it (they outlive one stream)
        self._free = POOL_BYTES
        self._freed = Store(self.env)

    def _footprint(self, msg_bytes: int) -> int:
        # packed wire footprint: payload + a small per-message header
        return msg_bytes + 8

    def _admit(self, footprint: int):
        while self._free < footprint:
            self._free += yield self._freed.get()
        self._free -= footprint
        self._emit("flow.ring.reserve", nbytes=footprint, pool=POOL_BYTES)

    def _give_back(self, n: int, footprint: int) -> None:
        nbytes = n * footprint
        self._freed.try_put(nbytes)
        self._emit("flow.ring.free", nbytes=nbytes)
