"""Edge cases for the transport layer and lock-word encodings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Cluster
from repro.dlm.ft import pack, unpack
from repro.errors import LockError, TransportError
from repro.transport import (
    AzSdpEndpoint,
    BufferedSdpEndpoint,
    ZeroCopySdpEndpoint,
)

ALL_ENDPOINTS = [BufferedSdpEndpoint, ZeroCopySdpEndpoint, AzSdpEndpoint]


class TestWordEncoding:
    @given(epoch=st.integers(0, 2**16 - 1), tail=st.integers(0, 2**24 - 1),
           count=st.integers(0, 2**24 - 1))
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_roundtrip(self, epoch, tail, count):
        assert unpack(pack(epoch, tail, count)) == (epoch, tail, count)

    def test_out_of_range_rejected(self):
        with pytest.raises(LockError):
            pack(0, 2**24, 0)
        with pytest.raises(LockError):
            pack(0, 0, -1)

    def test_fields_do_not_bleed(self):
        word = pack(0, 1, 0)
        epoch, tail, count = unpack(word - 1)  # borrow across bit 24
        assert (epoch, tail, count) == (0, 0, 2**24 - 1)
        # ... and a shared FAA overflowing the count carries into the
        # tail, never the epoch
        assert unpack(pack(7, 0, 2**24 - 1) + 1) == (7, 1, 0)


@pytest.mark.parametrize("endpoint_cls", ALL_ENDPOINTS)
class TestZeroAndOddSizes:
    def test_zero_byte_message(self, endpoint_cls):
        cluster = Cluster(n_nodes=2, seed=0)
        server = endpoint_cls(cluster.nodes[0])
        client = endpoint_cls(cluster.nodes[1])
        listener = server.listen(9)

        def rx(env):
            conn = yield listener.accept()
            msg = yield conn.recv()
            return msg.payload, msg.size

        def tx(env):
            conn = yield client.connect(0, port=9)
            yield conn.send("signal", size=0)

        p = cluster.env.process(rx(cluster.env))
        cluster.env.process(tx(cluster.env))
        cluster.env.run()
        assert p.value == ("signal", 0)

    def test_many_small_then_one_huge(self, endpoint_cls):
        """Mixed sizes on one connection arrive in order."""
        cluster = Cluster(n_nodes=2, seed=0)
        server = endpoint_cls(cluster.nodes[0])
        client = endpoint_cls(cluster.nodes[1])
        listener = server.listen(9)
        sizes = [1, 7, 100_000, 3]

        def rx(env):
            conn = yield listener.accept()
            got = []
            for _ in sizes:
                msg = yield conn.recv()
                got.append((msg.payload, msg.size))
            return got

        def tx(env):
            conn = yield client.connect(0, port=9)
            for i, size in enumerate(sizes):
                yield conn.send(i, size=size)

        p = cluster.env.process(rx(cluster.env))
        cluster.env.process(tx(cluster.env))
        cluster.env.run()
        assert p.value == [(i, s) for i, s in enumerate(sizes)]

    def test_two_connections_same_pair_isolated(self, endpoint_cls):
        cluster = Cluster(n_nodes=2, seed=0)
        server = endpoint_cls(cluster.nodes[0])
        client = endpoint_cls(cluster.nodes[1])
        listener = server.listen(9)
        results = {}

        def rx(env):
            c1 = yield listener.accept()
            c2 = yield listener.accept()
            m1 = yield c1.recv()
            m2 = yield c2.recv()
            results["first"] = m1.payload
            results["second"] = m2.payload

        def sender(env, conn, payload):
            yield conn.send(payload, size=10)

        def tx(env):
            c1 = yield client.connect(0, port=9)
            c2 = yield client.connect(0, port=9)
            # concurrent senders: a synchronous transport (ZSDP) blocks
            # each send until its receiver pulls, so the two sends must
            # not share one process
            yield env.all_of([
                env.process(sender(env, c2, "on-conn-2")),
                env.process(sender(env, c1, "on-conn-1")),
            ])

        cluster.env.process(rx(cluster.env))
        cluster.env.process(tx(cluster.env))
        cluster.env.run()
        assert results == {"first": "on-conn-1", "second": "on-conn-2"}


@pytest.mark.parametrize("endpoint_cls", ALL_ENDPOINTS)
class TestTransportErrors:
    def test_port_bound_twice(self, endpoint_cls):
        ep = endpoint_cls(Cluster(n_nodes=1, seed=0).nodes[0])
        ep.listen(1)
        with pytest.raises(TransportError, match="^port 1 already bound$"):
            ep.listen(1)

    def test_second_endpoint_of_one_kind_on_a_node(self, endpoint_cls):
        node = Cluster(n_nodes=1, seed=0).nodes[0]
        endpoint_cls(node)
        with pytest.raises(TransportError, match=(
                f"^node node0 already has a {endpoint_cls.__name__}$")):
            endpoint_cls(node)
        # the other variants live beside it: each has its own wire tag
        for other in ALL_ENDPOINTS:
            if other is not endpoint_cls:
                other(node)

    def test_connect_to_a_port_with_no_listener(self, endpoint_cls):
        cluster = Cluster(n_nodes=2, seed=0)
        endpoint_cls(cluster.nodes[0])
        client = endpoint_cls(cluster.nodes[1])

        def tx(env):
            yield client.connect(0, port=2)

        cluster.env.process(tx(cluster.env))
        with pytest.raises(TransportError, match=(
                "^connection refused: no listener on port 2 of node "
                "node0$")):
            cluster.env.run()
