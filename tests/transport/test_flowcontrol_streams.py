"""Regression tests for per-stream flow-control completion.

Three historical bugs in the senders' ``stream``:

* completion was detected by polling every 10 µs, quantizing the
  measured elapsed time (and hence bytes/µs) to the poll period;
* the poll gated on the receiver's *cumulative* ``delivered`` counter,
  so a second ``stream()`` against the same ``FlowReceiver`` returned
  before its own messages drained;
* the packetized sender kept its freed-space returns in a store of one
  ``stream()`` call, so space returned after that stream stopped
  needing it was lost and a later stream on the same sender wedged.

The first two are fixed by a per-stream completion event signalled by
the receiver-side drain loop, the third by a space store that belongs
to the sender.
"""

import pytest

from repro.net import Cluster, NetworkParams
from repro.transport import (
    CreditFlowSender,
    FlowReceiver,
    PacketizedFlowSender,
)

SENDERS = [CreditFlowSender, PacketizedFlowSender]


@pytest.fixture
def cluster():
    return Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)


@pytest.mark.parametrize("sender_cls", SENDERS)
def test_two_streams_one_receiver(cluster, sender_cls):
    """A reused receiver must not satisfy the second stream early."""
    env = cluster.env
    rx = FlowReceiver(cluster.nodes[1])
    tx = sender_cls(cluster.nodes[0], rx)

    results = []

    def driver(env):
        bw1 = yield from tx.stream(40, 256)
        t1 = env.now
        bw2 = yield from tx.stream(40, 256)
        t2 = env.now
        results.append((bw1, t1, bw2, t2 - t1))

    p = env.process(driver(env))
    env.run_until_event(p)
    bw1, dur1, bw2, dur2 = results[0]
    assert rx.delivered == 80
    assert rx.delivered_bytes == 80 * 256
    # the buggy cumulative gate (delivered=40 >= 40 already at the start
    # of stream 2) returned as soon as the send loop finished posting,
    # long before the drain completed: the second stream then reported a
    # wildly inflated bandwidth.  Both streams do identical work, so
    # their durations and bandwidths must be comparable.
    assert dur2 > 0.5 * dur1
    assert bw2 < 2.0 * bw1
    assert bw1 > 0 and bw2 > 0


@pytest.mark.parametrize("sender_cls", SENDERS)
def test_elapsed_not_quantized(cluster, sender_cls):
    """Completion lands on the drain instant, not a 10 µs poll tick."""
    env = cluster.env
    rx = FlowReceiver(cluster.nodes[1])
    tx = sender_cls(cluster.nodes[0], rx)
    p = env.process(tx.stream(7, 64))
    env.run_until_event(p)
    # With the poll the stream always ended on a multiple of 10 µs from
    # its start (t0 == 0 here).  Seven 64-byte messages over infiniband
    # drain in a few µs, so a non-multiple finish proves the event path.
    assert p.value > 0
    assert env.now % 10.0 != pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("sender_cls", SENDERS)
def test_concurrent_streams_two_senders(cluster, sender_cls):
    """Two senders sharing one receiver each wait for their own drain."""
    env = cluster.env
    rx = FlowReceiver(cluster.nodes[1])
    tx_a = sender_cls(cluster.nodes[0], rx)
    tx_b = sender_cls(cluster.nodes[0], rx)
    pa = env.process(tx_a.stream(30, 128))
    pb = env.process(tx_b.stream(50, 128))
    env.run_until_event(pa)
    env.run_until_event(pb)
    assert rx.delivered == 80
    assert pa.value > 0 and pb.value > 0


@pytest.mark.parametrize("sender_cls", SENDERS)
def test_reused_sender_streams_again(cluster, sender_cls):
    """A first stream that never waits for space (8 x 8 008 B fit the
    64 KiB ring) leaves its space returns with the sender: the second
    stream on that sender must get them back, not wedge."""
    env = cluster.env
    rx = FlowReceiver(cluster.nodes[1])
    tx = sender_cls(cluster.nodes[0], rx)

    def driver(env):
        bw1 = yield from tx.stream(8, 8000)
        bw2 = yield from tx.stream(8, 8000)
        return bw1, bw2

    p = env.process(driver(env))
    env.run_until_event(p)
    assert rx.delivered == 16
    assert min(p.value) > 0
