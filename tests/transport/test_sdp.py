"""Tests for BSDP, ZSDP and AZ-SDP."""

import pytest

from repro.net import Cluster, NetworkParams
from repro.transport import (
    AzSdpEndpoint,
    BufferedSdpEndpoint,
    ZeroCopySdpEndpoint,
)


def make_pair(endpoint_cls, seed=0, **conn_kw):
    cluster = Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=seed)
    server = endpoint_cls(cluster.nodes[0])
    client = endpoint_cls(cluster.nodes[1])
    listener = server.listen(5000)
    return cluster, server, client, listener


def echo_roundtrip(endpoint_cls, size):
    cluster, server, client, listener = make_pair(endpoint_cls)
    result = {}

    def server_side(env):
        conn = yield listener.accept()
        msg = yield conn.recv()
        result["got"] = msg.payload
        yield conn.send("ack", size=16)

    def client_side(env):
        conn = yield client.connect(0, port=5000)
        t0 = env.now
        yield conn.send({"data": size}, size=size)
        msg = yield conn.recv()
        result["ack"] = msg.payload
        result["rtt"] = env.now - t0

    cluster.env.process(server_side(cluster.env))
    cluster.env.process(client_side(cluster.env))
    cluster.env.run()
    return result


@pytest.mark.parametrize("endpoint_cls", [
    BufferedSdpEndpoint, ZeroCopySdpEndpoint, AzSdpEndpoint])
@pytest.mark.parametrize("size", [1, 1024, 64 * 1024])
def test_echo_roundtrip_all_variants(endpoint_cls, size):
    result = echo_roundtrip(endpoint_cls, size)
    assert result["got"] == {"data": size}
    assert result["ack"] == "ack"
    assert result["rtt"] > 0


class TestBufferedSdp:
    def test_large_message_split_into_chunks(self):
        cluster, server, client, listener = make_pair(BufferedSdpEndpoint)

        def server_side(env):
            conn = yield listener.accept()
            msg = yield conn.recv()
            return msg

        def client_side(env):
            conn = yield client.connect(0, port=5000)
            yield conn.send("big", size=40_000)  # > 4 chunks of 8KB

        sp = cluster.env.process(server_side(cluster.env))
        cluster.env.process(client_side(cluster.env))
        cluster.env.run()
        assert sp.value.payload == "big"
        assert sp.value.size == 40_000

    def test_credit_exhaustion_blocks_sender(self):
        """With no receiver draining, the sender stalls after credits."""
        cluster, server, client, listener = make_pair(BufferedSdpEndpoint)
        progress = []

        def server_side(env):
            conn = yield listener.accept()
            # never calls recv -> credits are never returned
            yield env.timeout(1e9)

        def client_side(env):
            conn = yield client.connect(0, port=5000)
            for i in range(30):  # default credits = 16
                yield conn.send(i, size=100)
                progress.append(i)

        cluster.env.process(server_side(cluster.env))
        cluster.env.process(client_side(cluster.env))
        cluster.env.run(until=1e6)
        assert len(progress) == 16

    def test_credits_recycle_through_receiver(self):
        cluster, server, client, listener = make_pair(BufferedSdpEndpoint)

        def server_side(env):
            conn = yield listener.accept()
            got = []
            for _ in range(30):
                msg = yield conn.recv()
                got.append(msg.payload)
            return got

        def client_side(env):
            conn = yield client.connect(0, port=5000)
            for i in range(30):
                yield conn.send(i, size=100)

        sp = cluster.env.process(server_side(cluster.env))
        cluster.env.process(client_side(cluster.env))
        cluster.env.run()
        assert sp.value == list(range(30))


class TestZeroCopySdp:
    def test_send_blocks_until_receiver_pulls(self):
        cluster, server, client, listener = make_pair(ZeroCopySdpEndpoint)
        times = {}

        def server_side(env):
            conn = yield listener.accept()
            yield env.timeout(300.0)  # delay before recv
            msg = yield conn.recv()
            times["recv_at"] = env.now

        def client_side(env):
            conn = yield client.connect(0, port=5000)
            t0 = env.now
            yield conn.send("x", size=4096)
            times["send_done"] = env.now

        cluster.env.process(server_side(cluster.env))
        cluster.env.process(client_side(cluster.env))
        cluster.env.run()
        # Synchronous zero-copy: send cannot complete before the pull.
        assert times["send_done"] >= 300.0


class TestAzSdp:
    def test_send_returns_before_transfer_completes(self):
        cluster, server, client, listener = make_pair(AzSdpEndpoint)
        times = {}

        def server_side(env):
            conn = yield listener.accept()
            yield env.timeout(300.0)
            msg = yield conn.recv()
            times["recv_at"] = env.now

        def client_side(env):
            conn = yield client.connect(0, port=5000)
            yield conn.send("x", size=4096, buf="b0")
            times["send_done"] = env.now

        cluster.env.process(server_side(cluster.env))
        cluster.env.process(client_side(cluster.env))
        cluster.env.run()
        # Asynchronous: send returns as soon as the buffer is protected.
        assert times["send_done"] < 100.0

    def test_touching_inflight_buffer_faults_and_blocks(self):
        cluster, server, client, listener = make_pair(AzSdpEndpoint)
        times = {}

        def server_side(env):
            conn = yield listener.accept()
            yield env.timeout(500.0)
            yield conn.recv()

        def client_side(env):
            conn = yield client.connect(0, port=5000)
            yield conn.send("x", size=4096, buf="B")
            t0 = env.now
            # re-sending from B touches it: in flight, must fault + wait
            yield conn.send("y", size=4096, buf="B")
            times["touch_wait"] = env.now - t0
            times["faults"] = conn.page_faults

        cluster.env.process(server_side(cluster.env))
        cluster.env.process(client_side(cluster.env))
        cluster.env.run()
        assert times["touch_wait"] > 400.0
        assert times["faults"] == 1

    def test_touch_of_idle_buffer_is_free(self):
        cluster, server, client, listener = make_pair(AzSdpEndpoint)

        def server_side(env):
            conn = yield listener.accept()
            yield conn.recv()

        def client_side(env):
            conn = yield client.connect(0, port=5000)
            t0 = env.now
            yield conn.send("x", size=64, buf="B")
            first = env.now - t0
            # let the transfer finish, then re-send from (touch) B
            yield env.timeout(10_000.0)
            t0 = env.now
            yield conn.send("y", size=64, buf="B")
            return first, env.now - t0, conn.page_faults

        cluster.env.process(server_side(cluster.env))
        p = cluster.env.process(client_side(cluster.env))
        cluster.env.run()
        first, wait, faults = p.value
        assert wait == pytest.approx(first)
        assert faults == 0

    def test_distinct_buffers_overlap(self):
        """Sending from many buffers costs far less than N blocking RTTs:
        timed from the first send to the server's last ``recv``."""
        n = 8
        size = 64 * 1024

        def run(endpoint_cls, bufs):
            cluster, server, client, listener = make_pair(endpoint_cls)
            at = {}

            def server_side(env):
                conn = yield listener.accept()
                for _ in range(n):
                    yield conn.recv()
                at["last_recv"] = env.now

            def client_side(env):
                conn = yield client.connect(0, port=5000)
                at["first_send"] = env.now
                for i in range(n):
                    kw = {"buf": f"b{i}"} if bufs else {}
                    yield conn.send(i, size=size, **kw)

            cluster.env.process(server_side(cluster.env))
            cluster.env.process(client_side(cluster.env))
            cluster.env.run()
            return at["last_recv"] - at["first_send"]

        t_async = run(AzSdpEndpoint, bufs=True)
        t_sync = run(ZeroCopySdpEndpoint, bufs=False)
        assert t_async < t_sync


def _wire_ids(endpoint_cls):
    """Every id on the SDP wire during one connect and three sends."""
    cluster, server, client, listener = make_pair(endpoint_cls)
    ids = []
    for ep in (server, client):
        def post(dst, payload=None, real=ep.node.nic.post, **kw):
            ids.append(sorted((k, v) for k, v in payload.items()
                              if k.endswith("id")))
            real(dst, payload=payload, **kw)
        ep.node.nic.post = post

    def server_side(env):
        conn = yield listener.accept()
        for _ in range(3):
            yield conn.recv()

    def client_side(env):
        conn = yield client.connect(0, port=5000)
        for i in range(3):
            yield conn.send(i, size=4096, **(
                {"buf": f"b{i}"} if endpoint_cls is AzSdpEndpoint else {}))

    cluster.env.process(server_side(cluster.env))
    cluster.env.process(client_side(cluster.env))
    cluster.env.run()
    return ids


@pytest.mark.parametrize("endpoint_cls", [ZeroCopySdpEndpoint,
                                          AzSdpEndpoint])
def test_connection_and_transfer_ids_are_per_run(endpoint_cls):
    """Ids come from the run's environment: a second identical run in
    the same process puts the same connection and transfer ids on the
    wire."""
    first = _wire_ids(endpoint_cls)
    assert any(k == "xid" for row in first for k, _ in row)
    assert _wire_ids(endpoint_cls) == first
