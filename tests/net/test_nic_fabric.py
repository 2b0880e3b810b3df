"""Tests for NIC verbs and fabric timing/contention."""

import pytest

from repro.errors import ConfigError, ProtectionError
from repro.net import Cluster, NetworkParams

from tests.sim.reference_kernel import KERNELS, pin_kernel


@pytest.fixture
def ib():
    return Cluster(n_nodes=4, params=NetworkParams.infiniband(), seed=1)


def run_proc(cluster, gen):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p)
    return p.value


class TestTwoSided:
    def test_send_recv_payload(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]

        def sender(env):
            yield a.nic.send(b.id, payload={"op": "hello"}, size=100, tag="t")

        def receiver(env):
            msg = yield b.nic.recv(tag="t")
            return msg

        ib.env.process(sender(ib.env))
        p = ib.env.process(receiver(ib.env))
        ib.env.run()
        msg = p.value
        assert msg.payload == {"op": "hello"}
        assert msg.src == a.id and msg.dst == b.id
        assert msg.arrived_at > msg.sent_at

    def test_small_send_one_way_latency_is_microseconds(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]

        def receiver(env):
            msg = yield b.nic.recv()
            return msg.arrived_at - msg.sent_at

        def sender(env):
            yield a.nic.send(b.id, size=1)

        ib.env.process(sender(ib.env))
        p = ib.env.process(receiver(ib.env))
        ib.env.run()
        # IB small message: a few microseconds one-way.
        assert 1.0 < p.value < 8.0

    def test_tags_demultiplex(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]

        def sender(env):
            yield a.nic.send(b.id, payload="for-y", tag="y")
            yield a.nic.send(b.id, payload="for-x", tag="x")

        def receiver(env):
            mx = yield b.nic.recv(tag="x")
            my = yield b.nic.recv(tag="y")
            return (mx.payload, my.payload)

        ib.env.process(sender(ib.env))
        p = ib.env.process(receiver(ib.env))
        ib.env.run()
        assert p.value == ("for-x", "for-y")

    def test_send_wait_completes_on_arrival(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]

        def sender(env):
            msg = yield a.nic.send_wait(b.id, size=1000)
            return env.now, msg.arrived_at

        p = ib.env.process(sender(ib.env))
        ib.env.run()
        now, arrived = p.value
        assert now == pytest.approx(arrived)

    def test_pending_counts_queued_messages(self, ib):
        """A message sent before anyone receives waits in the receive
        queue until ``recv`` takes it."""
        a, b = ib.nodes[0], ib.nodes[1]

        def pending():
            return len(b.nic._queue(0)._items)

        assert pending() == 0

        def sender(env):
            yield a.nic.send(b.id, payload=1)

        ib.env.process(sender(ib.env))
        ib.env.run()
        assert pending() == 1

        def receiver(env):
            return (yield b.nic.recv())

        msg = run_proc(ib, receiver(ib.env))
        assert msg.payload == 1 and pending() == 0

    def test_fifo_per_tag(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]

        def sender(env):
            for i in range(5):
                yield a.nic.send(b.id, payload=i, size=10)
                yield env.timeout(1.0)

        def receiver(env):
            seen = []
            for _ in range(5):
                msg = yield b.nic.recv()
                seen.append(msg.payload)
            return seen

        ib.env.process(sender(ib.env))
        p = ib.env.process(receiver(ib.env))
        ib.env.run()
        assert p.value == [0, 1, 2, 3, 4]


class TestOneSided:
    def test_rdma_read_returns_remote_bytes(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(256)
        region.write(10, b"paper2007")

        def proc(env):
            data = yield a.nic.rdma_read(b.id, region.addr + 10,
                                         region.rkey, 9)
            return data

        assert run_proc(ib, proc(ib.env)) == b"paper2007"

    def test_rdma_read_small_rtt_calibration(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(64)

        def proc(env):
            t0 = env.now
            yield a.nic.rdma_read(b.id, region.addr, region.rkey, 8)
            return env.now - t0

        rtt = run_proc(ib, proc(ib.env))
        # Paper-era IB RDMA read RTT ~10us; accept 5..20.
        assert 5.0 < rtt < 20.0

    def test_rdma_write_modifies_remote_memory(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(64)

        def proc(env):
            yield a.nic.rdma_write(b.id, region.addr, region.rkey, b"WXYZ")
            return None

        run_proc(ib, proc(ib.env))
        assert region.read(0, 4) == b"WXYZ"

    def test_rdma_read_bandwidth_term(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(1 << 20)

        def timed(env, nbytes):
            t0 = env.now
            yield a.nic.rdma_read(b.id, region.addr, region.rkey, nbytes)
            return env.now - t0

        t_small = run_proc(ib, timed(ib.env, 8))
        t_large = run_proc(ib, timed(ib.env, 512 * 1024))
        ser = 512 * 1024 / ib.params.bandwidth_bpus
        assert t_large > ser  # dominated by serialization
        assert t_large > 10 * t_small

    def test_wire_padding_inflates_time_only(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(64)
        region.write(0, b"dirent")

        def timed(env, wire):
            t0 = env.now
            data = yield a.nic.rdma_read(b.id, region.addr, region.rkey, 6,
                                         wire_bytes=wire)
            return data, env.now - t0

        d1, t1 = run_proc(ib, timed(ib.env, 6))
        d2, t2 = run_proc(ib, timed(ib.env, 64 * 1024))
        assert d1 == d2 == b"dirent"
        assert t2 > t1 + 50

    def test_cas_roundtrip(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(8)
        region.write_u64(0, 5)

        def proc(env):
            old = yield a.nic.cas(b.id, region.addr, region.rkey, 5, 77)
            return old

        assert run_proc(ib, proc(ib.env)) == 5
        assert region.read_u64(0) == 77

    def test_faa_roundtrip(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(8)

        def proc(env):
            o1 = yield a.nic.faa(b.id, region.addr, region.rkey, 3)
            o2 = yield a.nic.faa(b.id, region.addr, region.rkey, 4)
            return o1, o2

        assert run_proc(ib, proc(ib.env)) == (0, 3)
        assert region.read_u64(0) == 7

    def test_concurrent_cas_only_one_wins(self, ib):
        """Two nodes CAS the same word concurrently: exactly one succeeds."""
        b = ib.nodes[2]
        region = b.memory.register(8)
        results = []

        def contender(env, node, tag):
            old = yield node.nic.cas(b.id, region.addr, region.rkey, 0, tag)
            results.append((tag, old))

        ib.env.process(contender(ib.env, ib.nodes[0], 100))
        ib.env.process(contender(ib.env, ib.nodes[1], 200))
        ib.env.run()
        winners = [tag for tag, old in results if old == 0]
        assert len(winners) == 1
        assert region.read_u64(0) == winners[0]

    def test_protection_error_propagates_to_caller(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(8)

        def proc(env):
            try:
                yield a.nic.rdma_read(b.id, region.addr, region.rkey ^ 1, 8)
            except ProtectionError:
                return "denied"

        assert run_proc(ib, proc(ib.env)) == "denied"

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("length", [-1, -8, -2000])
    def test_negative_read_length_fails_at_the_call(self, kernel, length):
        """Not a negative slice of the region, on either kernel: the
        call raises at t = 0 and posts and counts nothing."""
        with pin_kernel(kernel):
            c = Cluster(n_nodes=2, params=NetworkParams.infiniband(),
                        seed=1)
        a, b = c.nodes
        region = b.memory.register(4096)
        with pytest.raises(ConfigError, match="negative"):
            a.nic.rdma_read(b.id, region.addr, region.rkey, length)
        c.env.run()
        assert c.env.now == 0 and a.nic.rdma_reads == 0

    def test_remote_key_helpers(self, ib):
        a, b = ib.nodes[0], ib.nodes[1]
        region = b.memory.register(64)
        key = region.remote_key()

        def proc(env):
            yield a.nic.write_key(key, b"\x00" * 8, offset=8)
            yield a.nic.faa_key(key, 8, 41)
            old = yield a.nic.faa_key(key, 8, 1)
            data = yield a.nic.read_key(key, offset=8, length=8)
            return old, data

        old, data = run_proc(ib, proc(ib.env))
        assert old == 41
        assert int.from_bytes(data, "big") == 42


class TestFabric:
    def test_same_node_transfer_is_local(self, ib):
        ev = ib.fabric.transfer(0, 0, 10_000)
        ib.env.run_until_event(ev)
        assert ib.env.now == pytest.approx(ib.params.local_op_us)

    def test_unknown_node_rejected(self, ib):
        with pytest.raises(ConfigError):
            ib.fabric.transfer(0, 99, 8)

    def test_negative_bytes_rejected(self, ib):
        with pytest.raises(ConfigError):
            ib.fabric.transfer(0, 1, -1)

    def test_egress_contention_serializes(self, ib):
        """Two large transfers from one node take ~2x one transfer."""
        nbytes = 900_000  # 1000us serialization at 900 B/us
        done = []

        def xfer(env):
            ev = ib.fabric.transfer(0, 1, nbytes)
            yield ev
            done.append(env.now)

        ib.env.process(xfer(ib.env))
        ib.env.process(xfer(ib.env))
        ib.env.run()
        assert done[0] == pytest.approx(1000, rel=0.05)
        assert done[1] == pytest.approx(2000, rel=0.05)

    def test_transfers_from_distinct_nodes_overlap(self, ib):
        nbytes = 900_000
        done = []

        def xfer(env, src):
            yield ib.fabric.transfer(src, 3, nbytes)
            done.append(env.now)

        ib.env.process(xfer(ib.env, 0))
        ib.env.process(xfer(ib.env, 1))
        ib.env.run()
        assert max(done) == pytest.approx(1000, rel=0.05)

    def test_byte_accounting(self, ib):
        ib.fabric.transfer(0, 1, 100)
        ib.fabric.transfer(1, 2, 50)
        ib.env.run()
        assert ib.fabric.bytes_moved == 150
        assert ib.fabric.transfers == 2


class TestEgressQueue:
    def test_queue_len_reflects_waiting_transfers(self):
        """Three concurrent sends: one serializing, two queued behind it
        on the sender's egress link, so they land one serialization
        apart — whether the queue is generators waiting on the link
        (reference kernel) or bookings on it (the product, where no
        queue length exists to read)."""
        nbytes = 900_000  # 1000us serialization each
        for kernel in KERNELS:
            with pin_kernel(kernel):
                c = Cluster(n_nodes=4, params=NetworkParams.infiniband(),
                            seed=1)
            landed = []
            for _ in range(3):
                c.fabric.transfer(0, 1, nbytes).add_callback(
                    lambda _e: landed.append(c.env.now))
            c.env.run()
            p = c.params
            first = (p.nic_tx_us + 1000.0) + (p.wire_latency_us
                                              + p.nic_rx_us)
            assert landed[0] == first
            assert [b - a for a, b in zip(landed, landed[1:])] \
                == [1000.0, 1000.0]

    def test_queue_empty_without_contention(self, ib):
        """Sends from different nodes share no link: both land after
        the bare one-way latency."""
        landed = []
        for src, dst in ((0, 1), (1, 2)):
            ib.fabric.transfer(src, dst, 64).add_callback(
                lambda _e: landed.append(ib.env.now))
        ib.env.run()
        p = ib.params
        alone = (p.nic_tx_us + 64 / p.bandwidth_bpus) \
            + (p.wire_latency_us + p.nic_rx_us)
        assert landed == [alone, alone]


class TestClusterBuilder:
    def test_nodes_named_and_ided(self):
        c = Cluster(names=["proxy0", "proxy1", "app0"])
        assert [n.name for n in c.nodes] == ["proxy0", "proxy1", "app0"]
        assert [n.id for n in c.nodes] == [0, 1, 2]

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            Cluster()
        with pytest.raises(ConfigError):
            Cluster(n_nodes=2, names=["a"])

    def test_deterministic_rng_streams(self):
        c1 = Cluster(n_nodes=1, seed=42)
        c2 = Cluster(n_nodes=1, seed=42)
        assert (c1.rng.get("x").random(5) == c2.rng.get("x").random(5)).all()
