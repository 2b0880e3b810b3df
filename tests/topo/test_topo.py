"""Rack/spine topology: construction, latency, contention, identity."""

import pytest

from repro.errors import ConfigError
from repro.net import Cluster
from repro.topo import TopoCluster
from repro.topo import scenarios
from repro.topo.scenarios import measure_verb_latency, topo_lab

from tests.obs.live import observe_live


class TestConstruction:
    def test_empty_names_list_raises(self):
        with pytest.raises(ConfigError):
            Cluster(names=[])

    def test_bad_grid_raises(self):
        with pytest.raises(ConfigError):
            TopoCluster(racks=0, hosts_per_rack=4)
        with pytest.raises(ConfigError):
            TopoCluster(racks=2, hosts_per_rack=0)
        with pytest.raises(ConfigError):
            TopoCluster(racks=2, hosts_per_rack=2, oversub=0.5)
        with pytest.raises(ConfigError):
            TopoCluster(racks=2, hosts_per_rack=2, spines=0)

    def test_rack_major_node_layout(self):
        cl = TopoCluster(racks=3, hosts_per_rack=4)
        assert len(cl.nodes) == 12
        # 0->3 and 8->11 stay in a rack; 3->4 and 7->8 cross one
        for src, dst in ((0, 3), (8, 11), (3, 4), (7, 8)):
            cl.fabric.transfer(src, dst, 64)
        cl.env.run()
        assert cl.fabric.xrack_transfers == 2
        assert cl.fabric.uplink_transfers == [1, 1, 0]

    def test_uplink_bandwidth_scales_with_oversub(self):
        flat = TopoCluster(racks=2, hosts_per_rack=8, oversub=1.0)
        thin = TopoCluster(racks=2, hosts_per_rack=8, oversub=4.0)
        assert thin.fabric.uplink_bpus == pytest.approx(
            flat.fabric.uplink_bpus / 4.0)


class TestLatency:
    def test_cross_rack_slower_than_intra(self):
        r = measure_verb_latency()
        assert r["cross_rack_us"] > r["intra_rack_us"]

    def test_spine_latency_raises_cross_rack_only(self, monkeypatch):
        base = measure_verb_latency()
        monkeypatch.setattr(scenarios, "MEASURE_OVERSUB", 1.0)
        far = measure_verb_latency()
        assert far["intra_rack_us"] == base["intra_rack_us"]


class TestContention:
    def test_oversubscription_stretches_completion(self):
        fat = topo_lab(racks=2, oversub=1.0, seed=0)
        thin = topo_lab(racks=2, oversub=4.0, seed=0)
        assert thin["sim_now_us"] > fat["sim_now_us"]
        # same offered cross-rack load either way
        assert thin["xrack_bytes"] == fat["xrack_bytes"]
        assert thin["xrack_transfers"] == fat["xrack_transfers"]

    def test_xrack_counters_and_trace_events(self):
        """A cross-rack transfer is counted, not traced: the pulled
        counters carry it and no trace row is written per transfer."""
        cl = TopoCluster(racks=2, hosts_per_rack=2, oversub=2.0)
        obs = observe_live(cl)
        env = cl.env

        def blast():
            yield cl.fabric.transfer(0, 2, 4096)  # cross-rack
            yield cl.fabric.transfer(0, 1, 4096)  # intra-rack

        env.process(blast(), name="blast")
        env.run()
        assert cl.fabric.xrack_transfers == 1
        assert cl.fabric.xrack_bytes == 4096
        counters = obs.metrics.to_dict()["counters"]
        assert counters["topo.xrack.transfers"] == 1
        assert counters["topo.xrack.bytes"] == 4096
        assert counters["topo.uplink.bytes@n0"] == 4096
        assert "topo.uplink.bytes@n1" not in counters
        assert obs.trace.emitted == 0


class TestFlatIdentity:
    """A single rack at 1:1 oversubscription is byte-identical to the
    flat cluster, running the full sharded stack on top."""

    @staticmethod
    def _drive(cluster):
        from repro.dlm import LockMode
        from repro.shard import ShardedDDSS, ShardedNCoSEDManager
        from repro.verify import canonical_trace_sha

        obs = cluster.observe(strict=False)
        env = cluster.env
        nodes = cluster.nodes
        ddss = ShardedDDSS(cluster, segment_bytes=64 * 1024)
        mgr = ShardedNCoSEDManager(cluster, n_locks=16)
        keys = []

        def setup():
            cli = ddss.client(nodes[0])
            for i in range(6):
                k = yield cli.allocate(64)
                keys.append(k)
                yield cli.put(k, bytes([i]) * 64)

        env.process(setup(), name="setup")
        env.run()

        def actor(i):
            node = nodes[i % len(nodes)]
            cli = ddss.client(node)
            h = mgr.client(node)
            for r in range(2):
                k = keys[(i + r) % len(keys)]
                yield h.acquire(k % 16, LockMode.EXCLUSIVE)
                yield env.timeout(5.0)
                yield h.release(k % 16)
                yield cli.put(k, bytes([r]) * 64)
                _ = yield cli.get(k)

        for i in range(6):
            env.process(actor(i), name=f"a{i}")
        env.run()
        assert not obs.violations()
        return canonical_trace_sha(obs.trace_dict())

    def test_single_rack_matches_flat_cluster(self):
        flat = self._drive(Cluster(n_nodes=6, seed=3))
        topo = self._drive(TopoCluster(racks=1, hosts_per_rack=6,
                                       spines=1, oversub=1.0, seed=3))
        assert flat == topo
