"""Tests for flow-control micro-models and the request/reply helper."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.net import Cluster, NetworkParams
from repro.transport import (
    CreditFlowSender,
    FlowReceiver,
    PacketizedFlowSender,
    rpc,
)
from repro.transport.flowcontrol import BUF_BYTES


@pytest.fixture
def cluster():
    return Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)


class TestFlowControl:
    def run_stream(self, cluster, sender_cls, n, size):
        rx = FlowReceiver(cluster.nodes[1])
        tx = sender_cls(cluster.nodes[0], rx)
        p = cluster.env.process(tx.stream(n, size))
        cluster.env.run_until_event(p)
        return p.value, rx

    def test_credit_stream_delivers_all(self, cluster):
        bw, rx = self.run_stream(cluster, CreditFlowSender, 100, 512)
        assert rx.delivered == 100
        assert rx.delivered_bytes == 100 * 512
        assert bw > 0

    def test_packetized_stream_delivers_all(self, cluster):
        bw, rx = self.run_stream(cluster, PacketizedFlowSender, 100, 512)
        assert rx.delivered == 100
        assert bw > 0

    def test_packetized_beats_credit_for_tiny_messages(self):
        """The paper's §6 claim: ~order of magnitude for small messages."""
        results = {}
        for cls in (CreditFlowSender, PacketizedFlowSender):
            c = Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)
            rx = FlowReceiver(c.nodes[1])
            tx = cls(c.nodes[0], rx)
            p = c.env.process(tx.stream(400, 64))
            c.env.run_until_event(p)
            results[cls.__name__] = p.value
        ratio = (results["PacketizedFlowSender"]
                 / results["CreditFlowSender"])
        assert ratio > 2.0

    def test_similar_for_buffer_sized_messages(self):
        """At msg == buffer size there is nothing to pack: schemes converge."""
        results = {}
        for cls in (CreditFlowSender, PacketizedFlowSender):
            c = Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)
            rx = FlowReceiver(c.nodes[1])
            tx = cls(c.nodes[0], rx)
            p = c.env.process(tx.stream(100, 8192))
            c.env.run_until_event(p)
            results[cls.__name__] = p.value
        ratio = (results["PacketizedFlowSender"]
                 / results["CreditFlowSender"])
        assert 0.5 < ratio < 2.0

    def test_message_larger_than_buffer_rejected(self, cluster):
        rx = FlowReceiver(cluster.nodes[1])
        tx = CreditFlowSender(cluster.nodes[0], rx)
        gen = tx.stream(1, BUF_BYTES + 1)
        with pytest.raises(ConfigError):
            cluster.env.run_until_event(cluster.env.process(gen))


def doubler(work_us, reply_bytes=rpc.WIRE_BYTES):
    """A toy handler: ``work_us`` of the server's CPU, then the doubled
    argument as a ``reply_bytes`` reply."""
    def double(node, request):
        yield node.cpu.run(work_us, name="toy")
        return {"echo": request["x"] * 2}, reply_bytes
    return double


class TestRpc:
    """The request/reply helper on its own, with a toy handler table."""

    def serve(self, cluster, node_id=0, work_us=1.0, **kw):
        node = cluster.nodes[node_id]
        cluster.env.process(rpc.serve(
            node, "toy", {"double": doubler(work_us, **kw)}))

    def test_call_roundtrip(self, cluster):
        self.serve(cluster)
        nic = cluster.nodes[1].nic

        def app(env):
            r1 = yield rpc.call(nic, 0, "toy", {"op": "double", "x": 21})
            r2 = yield rpc.call(nic, 0, "toy", {"op": "double", "x": 5})
            return r1, r2

        p = cluster.env.process(app(cluster.env))
        assert cluster.env.run_until_event(p) == ({"echo": 42},
                                                   {"echo": 10})

    def test_multiple_clients_one_server(self):
        c = Cluster(n_nodes=4, params=NetworkParams.infiniband(), seed=0)
        self.serve(c, work_us=0.5)
        answers = []

        def app(env, node, val):
            reply = yield rpc.call(node.nic, 0, "toy",
                                   {"op": "double", "x": val})
            answers.append(reply["echo"])

        for i, node in enumerate(c.nodes[1:]):
            c.env.process(app(c.env, node, i * 10))
        c.env.run()
        assert sorted(answers) == [0, 20, 40]

    def test_server_under_load_is_slow(self):
        """The server's work runs on its processor-sharing CPU, so the
        reply is late when that CPU is saturated."""

        def measure(load):
            c = Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)
            c.nodes[0].cpu.set_background(load)
            self.serve(c, work_us=5.0)

            def app(env):
                t0 = env.now
                yield rpc.call(c.nodes[1].nic, 0, "toy",
                               {"op": "double", "x": 1})
                return env.now - t0

            p = c.env.process(app(c.env))
            return c.env.run_until_event(p)

        assert measure(30) > 3 * measure(0)

    def test_resend_keeps_the_requests_size(self, cluster):
        """The first request is lost: the re-send after the deadline
        carries the size its caller named."""
        obs = cluster.observe(strict=False)
        cluster.install_faults(FaultPlan().drop_messages(1.0, until=10.0))
        self.serve(cluster)

        def app(env):
            reply = yield rpc.call(cluster.nodes[1].nic, 0, "toy",
                                   {"op": "double", "x": 1}, nbytes=512)
            return reply

        p = cluster.env.process(app(cluster.env))
        assert cluster.env.run_until_event(p) == {"echo": 2}
        assert len(obs.trace.select("rpc.retry")) == 1
        assert [row.fields["size"] for row in obs.trace.select("msg.send")
                if row.node == 1] == [512, 512]

    def test_duplicate_is_answered_at_the_replys_size(self, cluster):
        """Every message is delivered twice: the duplicated request is
        answered from the server's window at the size the handler gave
        its reply, not at :data:`rpc.WIRE_BYTES`, and the request keeps
        the size its caller named."""
        obs = cluster.observe(strict=False)
        cluster.install_faults(FaultPlan().duplicate_messages(1.0))
        self.serve(cluster, reply_bytes=4 * rpc.WIRE_BYTES)

        def app(env):
            reply = yield rpc.call(cluster.nodes[1].nic, 0, "toy",
                                   {"op": "double", "x": 4}, nbytes=512)
            return reply

        p = cluster.env.process(app(cluster.env))
        assert cluster.env.run_until_event(p) == {"echo": 8}
        cluster.env.run()
        sizes = {}
        for row in obs.trace.select("msg.send"):
            sizes.setdefault(row.node, []).append(row.fields["size"])
        assert len(obs.trace.select("rpc.execute")) == 1
        assert obs.trace.select("rpc.dup_request")
        assert sizes == {0: [4 * rpc.WIRE_BYTES] * 2, 1: [512]}
