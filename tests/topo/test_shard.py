"""Consistent-hash shard ring, ShardMap, and the bounce protocol."""

import os
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.net import Cluster
from repro.shard import ShardMap, ShardRing, ShardedDDSS, \
    ShardedNCoSEDManager

from tests.obs.live import observe_live


class TestShardRing:
    def test_same_seed_same_ring(self):
        a = ShardRing([1, 2, 3, 4], seed=7)
        b = ShardRing([4, 3, 2, 1], seed=7)
        assert a._ring == b._ring
        assert all(a.owner(k) == b.owner(k) for k in range(200))

    def test_different_seed_different_placement(self):
        a = ShardRing([1, 2, 3, 4], seed=7)
        b = ShardRing([1, 2, 3, 4], seed=8)
        assert any(a.owner(k) != b.owner(k) for k in range(200))

    def test_cross_process_determinism(self):
        """The ring is a pure function of (members, seed) with no
        dependence on process state like hash randomization."""
        prog = ("from repro.shard import ShardRing; "
                "print(ShardRing([3, 9, 27, 81], seed=42)._ring)")
        env = dict(os.environ)
        docs = set()
        for htseed in ("0", "1", "random"):
            env["PYTHONHASHSEED"] = htseed
            out = subprocess.run([sys.executable, "-c", prog],
                                 capture_output=True, text=True,
                                 env=env, check=True)
            docs.add(out.stdout.strip())
        assert len(docs) == 1
        assert docs == {str(ShardRing([3, 9, 27, 81], seed=42)._ring)}

    def test_remove_moves_only_the_removed_members_keys(self):
        ring = ShardRing([0, 1, 2, 3, 4], seed=1)
        before = {k: ring.owner(k) for k in range(300)}
        ring.remove(2)
        moved = [k for k in range(300) if ring.owner(k) != before[k]]
        assert moved  # node 2 owned something
        assert all(before[k] == 2 for k in moved)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            ShardRing([], seed=0)
        ring = ShardRing([1, 2], seed=0)
        with pytest.raises(ConfigError):
            ring.add(1)  # duplicate
        with pytest.raises(ConfigError):
            ring.remove(9)  # not a member
        ring.remove(2)
        with pytest.raises(ConfigError):
            ring.remove(1)  # last member
        with pytest.raises(ConfigError):
            ShardRing([1, 2], seed=0).owner(5, avoid=(1, 2))

    def test_avoid_reroutes_to_live_member(self):
        ring = ShardRing([1, 2, 3], seed=0)
        k = 11
        first = ring.owner(k)
        other = ring.owner(k, avoid=(first,))
        assert other != first and other in ring.members


class TestShardMap:
    def test_epoch_bumps_and_history(self):
        m = ShardMap(ShardRing([1, 2, 3], seed=0))
        assert m.epoch == 0 and len(m) == 3
        m.remove(2)
        m.add(2)
        assert m.epoch == 2
        assert [(e, kind, nid) for e, kind, nid in m.rebalances] == \
            [(1, "remove", 2), (2, "add", 2)]
        assert m.members == frozenset({1, 2, 3})


class TestShardedManagers:
    def test_lock_homes_spread_over_members(self):
        cluster = Cluster(n_nodes=6, seed=0)
        mgr = ShardedNCoSEDManager(cluster, n_locks=64)
        homes = {mgr.home_node(i).id for i in range(64)}
        assert len(homes) > 1

    def test_directory_serving_spread_over_members(self):
        cluster = Cluster(n_nodes=6, seed=0)
        ddss = ShardedDDSS(cluster, segment_bytes=64 * 1024)
        owners = {ddss.dir_node(k) for k in range(64)}
        assert len(owners) > 1

    def test_stale_dir_cache_bounces_to_new_owner(self):
        cluster = Cluster(n_nodes=5, seed=0)
        ddss = ShardedDDSS(cluster, segment_bytes=64 * 1024)
        obs = observe_live(cluster)
        env = cluster.env
        cli = ddss.client(cluster.nodes[0])
        state = {}

        def setup():
            k = yield cli.allocate(32)
            yield cli.lookup(k)  # warms the per-key directory cache
            state["key"] = k

        env.process(setup(), name="setup")
        env.run()
        key = state["key"]
        owner = ddss.dir_map.owner(key)
        assert cli._dir_cache[key] == owner
        ddss.dir_map.remove(owner)
        before = cli.stale_retries
        cli._meta_cache.pop(key)  # force the next lookup onto the wire

        def relookup():
            yield cli.lookup(key)

        env.process(relookup(), name="relookup")
        env.run()
        assert cli.stale_retries > before
        assert cli._dir_cache[key] == ddss.dir_map.owner(key)
        bounces = obs.trace.select("shard.bounce")
        assert bounces and bounces[-1].fields["key"] == key

    def test_detector_death_rehomes_ring_and_locks(self):
        from repro.dlm import LockMode
        from repro.monitor import PhiAccrualDetector

        cluster = Cluster(n_nodes=5, seed=0)
        obs = observe_live(cluster)
        det = PhiAccrualDetector(cluster.nodes[0], cluster.nodes[1:])
        mgr = ShardedNCoSEDManager(cluster, n_locks=32, detector=det)
        env = cluster.env
        victim = next(n.id for n in cluster.nodes
                      if any(mgr.home_node(i).id == n.id
                             for i in range(32)))
        victim_locks = [i for i in range(32)
                        if mgr.home_node(i).id == victim]
        mgr._on_detector(victim, "dead")
        assert victim not in mgr.shard_map.members
        for lock_id in victim_locks:
            assert mgr.home_node(lock_id).id != victim
        evs = obs.trace.select("shard.rebalance")
        assert evs and evs[-1].fields["kind"] == "evict"
