"""Partition and gray-failure fault classes: plan validation (error
messages must name the offending value and the fault kind), symmetric
and one-way cut enforcement, heal, slow-node latency multipliers, and
credit-stall wedging of the flow-control return path."""

import math

import pytest

from repro.errors import ConfigError, NodeDownError, PartitionError
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.faults.injector import DETECT_US
from repro.transport import CreditFlowSender, FlowReceiver


def make_cluster(n=4, seed=0):
    return Cluster(n_nodes=n, seed=seed)


class TestPlanValidation:
    """Every rejection names the fault kind and the bad value."""

    def test_bad_rate_names_kind_and_value(self):
        with pytest.raises(ConfigError) as exc:
            FaultPlan().drop_messages(1.5)
        assert "drop_messages" in str(exc.value)
        assert "1.5" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            FaultPlan().duplicate_messages(-0.25)
        assert "duplicate_messages" in str(exc.value)
        assert "-0.25" in str(exc.value)

    def test_bad_window_names_kind_and_values(self):
        with pytest.raises(ConfigError) as exc:
            FaultPlan().partition([[0], [1]], start=50.0, until=10.0)
        msg = str(exc.value)
        assert "partition" in msg and "[50.0, 10.0)" in msg
        with pytest.raises(ConfigError) as exc:
            FaultPlan().slow_node(1, 4.0, start=-5.0, until=10.0)
        msg = str(exc.value)
        assert "slow_node" in msg and "[-5.0, 10.0)" in msg
        with pytest.raises(ConfigError) as exc:
            FaultPlan().stall_credits(1, start=10.0, until=10.0)
        assert "stall_credits" in str(exc.value)

    def test_partition_group_validation(self):
        with pytest.raises(ConfigError) as exc:
            FaultPlan().partition([[0, 1]])
        assert "two groups" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            FaultPlan().partition([[0], [1], [2]], oneway=True)
        assert "one-way" in str(exc.value)
        with pytest.raises(ConfigError):
            FaultPlan().partition([[0], []])
        with pytest.raises(ConfigError) as exc:
            FaultPlan().partition([[0, 1], [1, 2]])
        assert "node 1" in str(exc.value)

    def test_slow_node_factor_validation(self):
        with pytest.raises(ConfigError) as exc:
            FaultPlan().slow_node(0, 0.5)
        assert "slow_node" in str(exc.value)
        assert "0.5" in str(exc.value)

    def test_new_classes_extend_is_empty(self):
        assert not any(vars(FaultPlan()).values())
        assert any(vars(FaultPlan().partition([[0], [1]])).values())
        assert any(vars(FaultPlan().slow_node(0, 2.0)).values())
        assert any(vars(FaultPlan().stall_credits(0)).values())


def read_between(cluster, src_id, dst_id, seg):
    """Run one RDMA read src -> dst, returning (ok, duration)."""
    def app(env):
        t0 = env.now
        try:
            yield cluster.nodes[src_id].nic.rdma_read(
                dst_id, seg.addr, seg.rkey, 64)
        except NodeDownError as exc:
            return exc, env.now - t0
        return None, env.now - t0

    p = cluster.env.process(app(cluster.env))
    cluster.env.run_until_event(p, limit=1e9)
    return p.value


class TestSymmetricPartition:
    def test_cut_fails_both_directions_same_side_flows(self):
        cluster = make_cluster()
        inj = cluster.install_faults(
            FaultPlan().partition([[0, 1], [2, 3]], start=0.0,
                                  until=50_000.0))
        segs = {i: cluster.nodes[i].memory.register(64, name=f"s{i}")
                for i in range(4)}
        exc, _ = read_between(cluster, 0, 2, segs[2])
        assert isinstance(exc, PartitionError)
        exc, _ = read_between(cluster, 2, 0, segs[0])
        assert isinstance(exc, PartitionError)  # symmetric: both ways
        exc, _ = read_between(cluster, 0, 1, segs[1])
        assert exc is None  # same side unaffected
        exc, _ = read_between(cluster, 3, 2, segs[2])
        assert exc is None
        assert inj.transfers_partitioned == 2

    def test_partition_error_is_indistinguishable_from_node_down(self):
        # initiators see an RC retry-exceeded completion either way
        assert issubclass(PartitionError, NodeDownError)

    def test_cut_failure_takes_detection_delay(self):
        cluster = make_cluster()
        inj = cluster.install_faults(
            FaultPlan().partition([[0], [1, 2, 3]], until=1_000.0))
        seg = cluster.nodes[1].memory.register(64, name="s")
        exc, took = read_between(cluster, 0, 1, seg)
        assert isinstance(exc, PartitionError)
        assert took >= DETECT_US  # not an instant oracle failure

    def test_heal_restores_traffic(self):
        cluster = make_cluster()
        cluster.install_faults(
            FaultPlan().partition([[0], [1, 2, 3]], start=0.0,
                                  until=500.0))
        seg = cluster.nodes[1].memory.register(64, name="s")

        def app(env):
            yield env.timeout(600.0)  # wait out the window
            yield cluster.nodes[0].nic.rdma_read(1, seg.addr, seg.rkey, 8)
            return env.now

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        assert p.value < 700.0

    def test_unlisted_node_bridges_both_sides(self):
        cluster = make_cluster()
        cluster.install_faults(
            FaultPlan().partition([[0], [1]], until=50_000.0))
        segs = {i: cluster.nodes[i].memory.register(64, name=f"s{i}")
                for i in range(4)}
        for src, dst in ((0, 2), (2, 0), (1, 3), (3, 1), (2, 3)):
            exc, _ = read_between(cluster, src, dst, segs[dst])
            assert exc is None, (src, dst)

    def test_partition_window_events_in_trace(self):
        cluster = make_cluster()
        obs = cluster.observe(strict=False)
        cluster.install_faults(
            FaultPlan().partition([[0, 1], [2, 3]], start=100.0,
                                  until=300.0))
        cluster.env.run(until=1_000.0)
        etypes = [e.etype
                  for e in obs.trace.select(prefix="fault.partition")]
        assert etypes == ["fault.partition", "fault.partition.heal"]


class TestOneWayPartition:
    def test_forward_verb_cut(self):
        cluster = make_cluster()
        inj = cluster.install_faults(
            FaultPlan().partition([[0], [1]], until=50_000.0,
                                  oneway=True))
        seg = cluster.nodes[1].memory.register(64, name="s")
        exc, _ = read_between(cluster, 0, 1, seg)
        assert isinstance(exc, PartitionError)
        assert inj.transfers_partitioned >= 1

    def test_reverse_messages_flow_forward_messages_drop(self):
        """The asymmetric-reachability gray failure: sends against the
        cut direction vanish, sends along the open direction arrive."""
        cluster = make_cluster()
        cluster.install_faults(
            FaultPlan().partition([[0], [1]], until=50_000.0,
                                  oneway=True))
        got = []

        def rx(env):
            msg = yield cluster.nodes[0].nic.recv(tag="up")
            got.append(msg.payload)

        def tx(env):
            cluster.nodes[0].nic.send(1, payload="down", size=64,
                                      tag="down")  # crosses the cut
            cluster.nodes[1].nic.send(0, payload="up", size=64,
                                      tag="up")    # open direction
            yield env.timeout(0.0)

        cluster.env.process(rx(cluster.env))
        cluster.env.process(tx(cluster.env))
        cluster.env.run(until=1_000.0)
        assert got == ["up"]

    def test_response_leg_cut_fails_read_from_far_side(self):
        """A one-way cut A->B also breaks B's two-leg verbs against A:
        the request crosses fine but the data leg cannot return, and
        the initiator sees retry exhaustion (NodeDownError shape)."""
        cluster = make_cluster()
        cluster.install_faults(
            FaultPlan().partition([[0], [1]], until=50_000.0,
                                  oneway=True))
        seg = cluster.nodes[0].memory.register(64, name="s")
        exc, _ = read_between(cluster, 1, 0, seg)
        assert isinstance(exc, NodeDownError)


class TestSlowNode:
    def timed_read(self, plan, size=1 << 16):
        cluster = make_cluster()
        cluster.install_faults(plan)
        seg = cluster.nodes[1].memory.register(size, name="tgt")

        def app(env):
            t0 = env.now
            yield cluster.nodes[0].nic.rdma_read(1, seg.addr, seg.rkey,
                                                 size)
            return env.now - t0

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        return p.value

    def test_slow_node_multiplies_latency(self):
        base = self.timed_read(FaultPlan())
        slow = self.timed_read(FaultPlan().slow_node(1, 10.0))
        assert slow > base * 3

    def test_slow_window_expires(self):
        inside = self.timed_read(FaultPlan().slow_node(1, 10.0,
                                                       until=1e9))
        after = self.timed_read(FaultPlan().slow_node(1, 10.0,
                                                      until=0.001))
        assert after < inside / 2

    def test_other_nodes_unaffected(self):
        cluster = make_cluster()
        cluster.install_faults(FaultPlan().slow_node(3, 50.0))
        seg = cluster.nodes[1].memory.register(64, name="s")
        exc, took = read_between(cluster, 0, 1, seg)
        assert exc is None and took < 100.0


class TestCreditStall:
    def stream_time(self, plan, n_msgs=20):
        cluster = Cluster(n_nodes=2, seed=0)
        if plan is not None:
            cluster.install_faults(plan)
        rx = FlowReceiver(cluster.nodes[1])
        sender = CreditFlowSender(cluster.nodes[0], rx)
        p = cluster.env.process(sender.stream(n_msgs, 1_024))
        cluster.env.run_until_event(p, limit=1e9)
        return cluster.env.now

    def test_stalled_credits_wedge_sender_until_window_closes(self):
        base = self.stream_time(None)
        stall_until = 5_000.0
        stalled = self.stream_time(
            FaultPlan().stall_credits(1, start=0.0, until=stall_until))
        # the sender exhausts its 8 credits, then waits for the stalled
        # returns: completion lands after the stall window, not before
        assert base < stall_until
        assert stalled > stall_until

    def test_stall_on_other_node_is_noop(self):
        base = self.stream_time(None)
        other = self.stream_time(
            FaultPlan().stall_credits(0, start=0.0, until=5_000.0))
        # receiver-side credits are what the stall wedges; node 0 is
        # the sender here so its stall never matches
        assert other == pytest.approx(base)
