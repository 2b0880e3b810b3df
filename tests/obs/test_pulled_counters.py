"""Pulled counters: read from a tally at export, counted from install.

``fabric.*``, ``topo.xrack.*`` and ``topo.uplink.bytes@n<rack>`` copy
tallies the fabric keeps anyway, so :meth:`repro.net.Cluster.observe`
registers them with :meth:`MetricsRegistry.pull` instead of pushing to
them per transfer.  Their lifecycle must be the pushed counters': absent
until they move, counted from install.
"""

import pytest

from repro.errors import ConfigError
from repro.net import Cluster
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.topo import TopoCluster

from tests.obs.live import observe_live


def _counters(obs):
    return obs.metrics.to_dict()["counters"]


def _send(cluster, *pairs, nbytes=100):
    def app(env):
        for src, dst in pairs:
            yield cluster.fabric.transfer(src, dst, nbytes)

    cluster.env.run_until_event(cluster.env.process(app(cluster.env)),
                                limit=1e9)


class TestRegistry:
    def test_absent_until_count_moves_then_counts_from_registration(self):
        tally = {"n": 5, "bytes": 70}
        reg = MetricsRegistry(Environment())
        reg.pull("x.n", lambda: tally["n"])
        reg.pull("x.bytes", lambda: tally["n"], lambda: tally["bytes"],
                 node=2)
        assert reg.to_dict()["counters"] == {}
        tally["n"] += 1                       # a zero-byte transfer
        assert reg.to_dict()["counters"] == {"x.bytes@n2": 0, "x.n": 1}
        tally["n"] += 1
        tally["bytes"] += 30
        assert reg.pulled_values() == {"x.bytes@n2": 30, "x.n": 2}

    def test_merges_into_sorted_export(self):
        reg = MetricsRegistry(Environment())
        n = [0]
        reg.pull("m", lambda: n[0])
        reg.counter("z").inc()
        reg.counter("a").inc()
        n[0] = 3
        assert list(reg.to_dict()["counters"].items()) == [
            ("a", 1), ("m", 3), ("z", 1)]

    def test_a_key_registers_once(self):
        reg = MetricsRegistry(Environment())
        reg.pull("x", lambda: 0)
        reg.counter("y")
        for name in ("x", "y"):
            with pytest.raises(ConfigError):
                reg.pull(name, lambda: 0)


class TestFabric:
    def test_counts_start_at_install(self):
        cluster = Cluster(n_nodes=2, seed=0)
        _send(cluster, (0, 1), (1, 0))
        obs = observe_live(cluster)
        _send(cluster, (0, 1), nbytes=40)
        assert cluster.fabric.transfers == 3
        counters = _counters(obs)
        assert counters["fabric.transfers"] == 1
        assert counters["fabric.bytes"] == 40

    def test_zero_byte_transfer_exports_zero_bytes(self):
        """``fabric.bytes`` appears with the first transfer, as its pushed
        twin did, not with the first byte."""
        cluster = TopoCluster(racks=2, hosts_per_rack=2)
        obs = observe_live(cluster)
        _send(cluster, (0, 2), nbytes=0)
        counters = _counters(obs)
        assert counters["fabric.bytes"] == counters["topo.xrack.bytes"] == 0
        assert counters["topo.uplink.bytes@n0"] == 0

    def test_no_transfers_no_fabric_keys(self):
        cluster = TopoCluster(racks=2, hosts_per_rack=2)
        obs = observe_live(cluster)
        cluster.env.run()
        assert not [k for k in _counters(obs)
                    if k.startswith(("fabric.", "topo."))]

    def test_rack_that_never_sends_cross_rack_has_no_uplink_key(self):
        cluster = TopoCluster(racks=3, hosts_per_rack=2)
        obs = observe_live(cluster)
        _send(cluster, (0, 4), (2, 5), (4, 5), nbytes=64)
        counters = _counters(obs)
        assert counters["topo.uplink.bytes@n0"] == 64
        assert counters["topo.uplink.bytes@n1"] == 64
        assert "topo.uplink.bytes@n2" not in counters   # rack 2: intra only
        assert counters["topo.xrack.transfers"] == 2
        assert counters["fabric.transfers"] == 3

    def test_repeat_observe_registers_nothing_twice(self):
        cluster = Cluster(n_nodes=2, seed=0)
        obs = cluster.observe(ring=128)
        assert cluster.observe() is obs
        assert cluster.observe(ring=128, strict=False) is obs
        _send(cluster, (0, 1))
        assert _counters(obs)["fabric.transfers"] == 1

    @pytest.mark.parametrize("kwargs", [dict(ring=1 << 20),
                                        dict(sanitize=False),
                                        dict(strict=True),
                                        dict(rings=128)])
    def test_repeat_observe_with_conflicting_arguments_raises(self, kwargs):
        cluster = Cluster(n_nodes=2, seed=0)
        obs = cluster.observe(ring=128)
        with pytest.raises(ConfigError):
            cluster.observe(**kwargs)
        assert cluster.env.obs is obs
        assert obs.trace.ring.maxlen == 128
        assert obs.options == {"ring": 128, "strict": False}
