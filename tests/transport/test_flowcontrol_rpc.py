"""Tests for flow-control micro-models and the request/reply helper."""

import pytest

from repro.errors import ConfigError
from repro.net import Cluster, NetworkParams
from repro.transport import (
    CreditFlowSender,
    FlowReceiver,
    PacketizedFlowSender,
    rpc,
)


@pytest.fixture
def cluster():
    return Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)


class TestFlowControl:
    def run_stream(self, cluster, sender_cls, n, size, nbufs=16):
        rx = FlowReceiver(cluster.nodes[1], nbufs=nbufs, buf_bytes=8192)
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
            rx = FlowReceiver(c.nodes[1], nbufs=8, buf_bytes=8192)
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
            rx = FlowReceiver(c.nodes[1], nbufs=8, buf_bytes=8192)
            tx = cls(c.nodes[0], rx)
            p = c.env.process(tx.stream(100, 8192))
            c.env.run_until_event(p)
            results[cls.__name__] = p.value
        ratio = (results["PacketizedFlowSender"]
                 / results["CreditFlowSender"])
        assert 0.5 < ratio < 2.0

    def test_message_larger_than_buffer_rejected(self, cluster):
        rx = FlowReceiver(cluster.nodes[1], nbufs=4, buf_bytes=1024)
        tx = CreditFlowSender(cluster.nodes[0], rx)
        gen = tx.stream(1, 2048)
        with pytest.raises(ConfigError):
            cluster.env.run_until_event(cluster.env.process(gen))

    def test_bad_receiver_config(self, cluster):
        with pytest.raises(ConfigError):
            FlowReceiver(cluster.nodes[1], nbufs=0)


def _doubler(_node, request):
    return {"echo": request["x"] * 2}


class TestRpc:
    """The request/reply helper on its own, with a toy handler table."""

    def serve(self, cluster, node_id=0, work_us=1.0):
        node = cluster.nodes[node_id]
        cluster.env.process(rpc.serve(node, "toy", {"double": _doubler},
                                      work_us))

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
