"""Unit tests for the fault substrate itself (plan + injector + hooks)."""

import pytest

from repro.errors import ConfigError, NodeDownError
from repro.net import Cluster
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import DETECT_US
from repro.faults.plan import VerbFault


def make_cluster(n=3, seed=0):
    return Cluster(n_nodes=n, seed=seed)


def plan_with(rule):
    """An empty plan with the verb fault ``rule`` appended to its list:
    the only way to schedule one."""
    plan = FaultPlan()
    plan.verb_faults.append(rule)
    return plan


#: (fault kind, bad node id, plan) against the 3-node ``make_cluster``
UNKNOWN_NODE_PLANS = [
    ("crash", 99, FaultPlan().crash(99, at=10.0)),
    ("crash", -1, FaultPlan().crash(-1, at=10.0)),
    ("crash", 7, FaultPlan().crash(7, at=10.0, restart_at=50.0)),
    ("partition", 9, FaultPlan().partition([[0], [1, 9]])),
    ("slow_node", 5, FaultPlan().slow_node(5, 2.0)),
    ("stall_credits", 5, FaultPlan().stall_credits(5)),
    ("fail_verbs", 9, plan_with(VerbFault(0.5, dst=9))),
]


class TestFaultPlan:
    def test_empty_plan(self):
        assert not any(vars(FaultPlan()).values())
        assert any(vars(FaultPlan().crash(1, at=10.0)).values())

    def test_builders_chain(self):
        plan = (FaultPlan()
                .crash(0, at=5.0, restart_at=50.0)
                .drop_messages(0.1)
                .duplicate_messages(0.2, start=5.0)
                .slow_node(1, 4.0)
                .stall_credits(2, start=10.0, until=20.0))
        assert len(plan.crashes) == 1
        assert len(plan.message_faults) == 2
        assert len(plan.slow_nodes) == 1
        assert len(plan.credit_stalls) == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan().crash(0, at=-1.0)
        with pytest.raises(ConfigError):
            FaultPlan().crash(0, at=10.0, restart_at=5.0)
        with pytest.raises(ConfigError):
            FaultPlan().drop_messages(1.5)
        with pytest.raises(ConfigError):
            FaultPlan().duplicate_messages(0.5, start=20.0, until=10.0)
        with pytest.raises(ConfigError):
            FaultPlan().slow_node(0, 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        """A non-finite hold would park an analytic link at inf/nan for
        the rest of the run (``nan < 1.0`` is false, so the old range
        checks let it through); every builder refuses it by name."""
        plan = FaultPlan()
        for builder, build in [
            ("crash", lambda: plan.crash(0, at=bad)),
            ("crash", lambda: plan.crash(0, at=1.0, restart_at=bad)),
            ("slow_node", lambda: plan.slow_node(0, bad)),
            ("slow_node", lambda: plan.slow_node(0, 2.0, start=bad)),
            ("drop_messages", lambda: plan.drop_messages(0.1, start=bad)),
            ("duplicate_messages",
             lambda: plan.duplicate_messages(0.1, start=bad)),
            ("partition", lambda: plan.partition([[0], [1]], start=bad)),
            ("partition",
             lambda: plan.partition([[0], [1]], start=bad, oneway=True)),
            ("stall_credits", lambda: plan.stall_credits(0, start=bad)),
        ]:
            with pytest.raises(ConfigError, match=f"^{builder}:"):
                build()
        with pytest.raises(ConfigError, match="^drop_messages:"):
            plan.drop_messages(0.1, until=float("nan"))
        assert vars(plan) == vars(FaultPlan())
        # a window that never closes stays legal
        assert FaultPlan().slow_node(0, 2.0, until=float("inf")).slow_nodes


class TestInjector:
    def test_one_injector_per_cluster(self):
        cluster = make_cluster()
        cluster.install_faults()
        with pytest.raises(ConfigError):
            cluster.install_faults()

    @pytest.mark.parametrize("kind,node,plan", UNKNOWN_NODE_PLANS,
                             ids=[f"{k}{n}" for k, n, _ in
                                  UNKNOWN_NODE_PLANS])
    def test_unknown_node_rejected_before_anything_runs(self, kind, node,
                                                        plan):
        cluster = make_cluster()  # nodes 0..2
        with pytest.raises(ConfigError,
                           match=rf"^{kind}: node {node} is not in"):
            cluster.install_faults(plan)
        # nothing was installed or scheduled
        assert cluster.fabric.injector is None
        assert cluster.run(until=100.0) == 100.0

    def test_crash_schedule_logged(self):
        cluster = make_cluster()
        inj = cluster.install_faults(
            FaultPlan().crash(1, at=100.0, restart_at=300.0))
        cluster.run(until=500.0)
        assert inj.log == [(100.0, "crash", 1), (300.0, "restart", 1)]
        assert 1 not in inj.down

    def test_transfer_to_down_node_fails(self):
        cluster = make_cluster()
        inj = cluster.install_faults(FaultPlan().crash(1, at=0.0))
        src = cluster.nodes[0]
        seg = cluster.nodes[1].memory.register(64, name="tgt")

        def app(env):
            with pytest.raises(NodeDownError):
                yield src.nic.rdma_read(1, seg.addr, seg.rkey, 32)
            return env.now

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e6)
        # the failure surfaces after the RC retry-exceeded delay (plus
        # the NIC's descriptor-post overhead)
        assert DETECT_US <= p.value <= DETECT_US + 1.0
        assert inj.transfers_refused == 1

    def test_restart_restores_communication(self):
        cluster = make_cluster()
        cluster.install_faults(FaultPlan().crash(1, at=0.0, restart_at=50.0))
        seg = cluster.nodes[1].memory.register(64, name="tgt")
        seg.write(0, b"\x07" * 8)

        def app(env):
            yield env.timeout(60.0)
            data = yield cluster.nodes[0].nic.rdma_read(
                1, seg.addr, seg.rkey, 8)
            return bytes(data)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e6)
        assert p.value == b"\x07" * 8

    def test_message_drop_rate_one_drops_everything(self):
        cluster = make_cluster()
        inj = cluster.install_faults(FaultPlan().drop_messages(1.0))
        got = []

        def rx(env):
            msg = yield cluster.nodes[1].nic.recv(tag="t")
            got.append(msg)

        def tx(env):
            for _ in range(5):
                cluster.nodes[0].nic.send(1, payload="x", size=64, tag="t")
                yield env.timeout(10.0)

        cluster.env.process(rx(cluster.env))
        cluster.env.process(tx(cluster.env))
        cluster.run(until=1_000.0)
        assert got == []
        assert inj.messages_dropped == 5

    def test_message_duplication_delivers_twice(self):
        cluster = make_cluster()
        inj = cluster.install_faults(FaultPlan().duplicate_messages(1.0))
        got = []

        def rx(env):
            while True:
                msg = yield cluster.nodes[1].nic.recv(tag="t")
                got.append(msg.mid)

        def tx(env):
            cluster.nodes[0].nic.send(1, payload="x", size=64, tag="t")
            yield env.timeout(0.0)

        cluster.env.process(rx(cluster.env))
        cluster.env.process(tx(cluster.env))
        cluster.run(until=1_000.0)
        assert len(got) == 2 and got[0] == got[1]
        assert inj.messages_duplicated == 1

    def test_verb_fault_window(self):
        from repro.errors import RdmaError
        cluster = make_cluster()
        inj = cluster.install_faults(
            plan_with(VerbFault(1.0, start=0.0, until=100.0)))
        seg = cluster.nodes[1].memory.register(64, name="tgt")

        def app(env):
            with pytest.raises(RdmaError):
                yield cluster.nodes[0].nic.rdma_read(1, seg.addr,
                                                     seg.rkey, 8)
            yield env.timeout(200.0)  # leave the failure window
            yield cluster.nodes[0].nic.rdma_read(1, seg.addr, seg.rkey, 8)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e6)
        assert inj.verbs_failed == 1


class TestNoPlanNoChange:
    """An installed-but-empty injector must not perturb timing at all."""

    def workload_trace(self, install):
        cluster = make_cluster(seed=3)
        if install:
            cluster.install_faults(FaultPlan())
        seg = cluster.nodes[1].memory.register(4096, name="tgt")
        trace = []

        def app(env):
            for size in (64, 512, 4096):
                yield cluster.nodes[0].nic.rdma_read(1, seg.addr,
                                                     seg.rkey, size)
                trace.append(env.now)
            cluster.nodes[0].nic.send(2, payload="ping", size=128, tag="t")
            msg = yield cluster.nodes[2].nic.recv(tag="t")
            trace.append((env.now, msg.payload))

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e6)
        return trace

    def test_empty_injector_timing_identical(self):
        assert self.workload_trace(False) == self.workload_trace(True)


class TestDeterminism:
    def scenario(self, seed):
        cluster = make_cluster(n=4, seed=seed)
        inj = cluster.install_faults(
            FaultPlan()
            .crash(2, at=500.0, restart_at=2_000.0)
            .drop_messages(0.3, until=5_000.0)
            .duplicate_messages(0.2, until=5_000.0))
        delivered = []

        def rx(env):
            while True:
                msg = yield cluster.nodes[1].nic.recv(tag="t")
                delivered.append((env.now, msg.mid))

        def tx(env):
            for i in range(50):
                cluster.nodes[0].nic.send(1, payload=i, size=64, tag="t")
                yield env.timeout(25.0)

        cluster.env.process(rx(cluster.env))
        cluster.env.process(tx(cluster.env))
        cluster.run(until=10_000.0)
        return (delivered, inj.log, inj.messages_dropped,
                inj.messages_duplicated)

    def test_same_seed_same_trace(self):
        assert repr(self.scenario(7)) == repr(self.scenario(7))

    def test_different_seed_different_trace(self):
        assert self.scenario(7)[0] != self.scenario(8)[0]
