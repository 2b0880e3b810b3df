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
* :class:`CreditFlowSender.stream` — sends N messages under credits.
* :class:`PacketizedFlowSender.stream` — sends N messages into the
  remote ring via RDMA write, space-limited rather than credit-limited.
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
        self.env = node.env
        self.delivered = 0
        self.delivered_bytes = 0


class CreditFlowSender:
    """Sender limited by one credit per message."""

    def __init__(self, node, receiver: FlowReceiver):
        self.node = node
        self.env = node.env
        self.receiver = receiver
        self._credits = Resource(self.env, capacity=NBUFS)
        self._ack_due = 0

    def stream(self, n_msgs: int, msg_bytes: int):
        """Generator: send ``n_msgs`` of ``msg_bytes`` each; returns the
        achieved bandwidth in bytes/µs."""
        if msg_bytes > BUF_BYTES:
            raise ConfigError("message larger than a preposted buffer")
        env = self.env
        fabric = self.node.fabric
        rnode = self.receiver.node
        t0 = env.now
        inflight = Store(env)
        # Per-stream completion: signalled by rx_side once *this* stream's
        # n_msgs have drained.  Gating on the receiver's cumulative
        # ``delivered`` counter would let a second stream() against the
        # same FlowReceiver return early, and polling quantized the
        # measured elapsed time to the poll period.
        drained_all = Event(env)

        sender_id = self.node.id
        capacity = NBUFS

        def credits_back(n: int) -> None:
            for _ in range(n):
                self._credits.release()
            obs = env.obs
            if obs is not None:
                obs.trace.emit("flow.credit.return", node=sender_id,
                               sender=sender_id, n=n)

        def rx_side():
            """Receiver app: drain arrivals, return credits in batches."""
            acked = 0
            for i in range(n_msgs):
                yield inflight.get()
                # drain + repost a fresh receive WQE for the freed buffer
                # (packetized flow control has no per-message repost: the
                # sender manages the ring with RDMA writes)
                yield env.timeout(DRAIN_PER_MSG_US + fabric.params.post_us)
                self.receiver.delivered += 1
                self.receiver.delivered_bytes += msg_bytes
                acked += 1
                if acked == ACK_BATCH or i == n_msgs - 1:
                    release = _stall_release(fabric, rnode.id)
                    if release is not None:
                        # gray failure: receiver wedged, credits held
                        # back until the stall window closes
                        yield env.timeout(release - env.now)
                    # credit-return control message flows back
                    ret = fabric.transfer(rnode.id, self.node.id,
                                          fabric.params.header_bytes)
                    n = acked
                    ret.add_callback(lambda _ev, n=n: credits_back(n))
                    acked = 0
            drained_all.succeed()

        env.process(rx_side(), name="credit-rx")
        for _ in range(n_msgs):
            yield self._credits.acquire()
            obs = env.obs
            if obs is not None:
                obs.trace.emit("flow.credit.take", node=sender_id,
                               sender=sender_id, capacity=capacity)
            # every message occupies one whole preposted buffer slot
            done = fabric.transfer(self.node.id, rnode.id,
                                   msg_bytes + fabric.params.header_bytes)
            done.add_callback(lambda _ev: inflight.try_put(1))
        yield drained_all
        elapsed = env.now - t0
        return (n_msgs * msg_bytes) / elapsed if elapsed > 0 else 0.0


class PacketizedFlowSender:
    """Sender managing the receiver's pool as a byte ring over RDMA."""

    def __init__(self, node, receiver: FlowReceiver):
        self.node = node
        self.env = node.env
        self.receiver = receiver
        # sender-side view of free bytes in the remote ring
        self._free = POOL_BYTES

    def stream(self, n_msgs: int, msg_bytes: int):
        """Generator: send ``n_msgs`` packed tightly; returns bytes/µs."""
        env = self.env
        fabric = self.node.fabric
        rnode = self.receiver.node
        p = fabric.params
        t0 = env.now
        inflight = Store(env)
        space_freed = Store(env)
        drained_all = Event(env)  # per-stream; see CreditFlowSender.stream
        # packed wire footprint: payload + a small per-message header
        footprint = msg_bytes + 8

        sender_id = self.node.id
        pool = POOL_BYTES

        def space_back(f: int) -> None:
            space_freed.try_put(f)
            obs = env.obs
            if obs is not None:
                obs.trace.emit("flow.ring.free", node=sender_id,
                               sender=sender_id, nbytes=f)

        def rx_side():
            drained = 0
            freed = 0
            for i in range(n_msgs):
                yield inflight.get()
                yield env.timeout(DRAIN_PER_MSG_US)
                self.receiver.delivered += 1
                self.receiver.delivered_bytes += msg_bytes
                drained += 1
                freed += footprint
                if drained == ACK_BATCH or i == n_msgs - 1:
                    release = _stall_release(fabric, rnode.id)
                    if release is not None:
                        yield env.timeout(release - env.now)
                    ret = fabric.transfer(rnode.id, self.node.id,
                                          p.header_bytes)
                    f = freed
                    ret.add_callback(lambda _ev, f=f: space_back(f))
                    drained = 0
                    freed = 0
            drained_all.succeed()

        env.process(rx_side(), name="packetized-rx")
        for _ in range(n_msgs):
            while self._free < footprint:
                self._free += yield space_freed.get()
            self._free -= footprint
            obs = env.obs
            if obs is not None:
                obs.trace.emit("flow.ring.reserve", node=sender_id,
                               sender=sender_id, nbytes=footprint,
                               pool=pool)
            # sender-managed RDMA write straight into the packed ring
            done = fabric.transfer(self.node.id, rnode.id,
                                   footprint + p.header_bytes)
            done.add_callback(lambda _ev: inflight.try_put(1))
        yield drained_all
        elapsed = env.now - t0
        return (n_msgs * msg_bytes) / elapsed if elapsed > 0 else 0.0
