"""Regression: the transactional install path versus concurrent
rebalancing.  A CAS against a key whose unit the ReconfigManager just
moved must fail-retry through the directory — it can never install at
the stale home."""

import pytest

from repro.ddss import DDSS, Coherence
from repro.ddss.substrate import (HEADER_BYTES, INSTALL_BIT, TOMBSTONE,
                                  VERSION_OFF)
from repro.errors import ConfigError, DDSSError
from repro.net import Cluster
from repro.reconfig import ReconfigManager
from repro.shard import ShardedDDSS
from repro.txn import OCCTxnClient
from repro.workloads.tpcc import transfer_txn

from tests.txn.batch import one


def _rig(n_nodes=3, seed=0, sharded=False):
    """A cluster and its DDSS; ``migrate_off``, the eviction-time
    rebalance, is the sharded directory's."""
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    ddss = (ShardedDDSS if sharded else DDSS)(cluster,
                                              segment_bytes=256 * 1024)
    return cluster, ddss


def _alloc(cluster, ddss, home=0, payload=b"\x00" * 8 + b"\x00" * 24):
    """One 32-byte VERSION unit on `home`, initialised via the txn path."""
    box = {}

    def setup(env):
        store = ddss.client(cluster.nodes[0])
        key = yield store.allocate(32, coherence=Coherence.VERSION,
                                   placement=home)
        r = yield OCCTxnClient(store).init(key, payload)
        assert r.committed
        box["key"] = key

    cluster.env.run_until_event(
        cluster.env.process(setup(cluster.env), name="setup"))
    return box["key"]


def _old_block(ddss, meta):
    seg = ddss.segment(meta.home)
    off = meta.addr - seg.addr
    word = int.from_bytes(seg.read(off + VERSION_OFF, 8), "big")
    return word, seg.read(off + HEADER_BYTES, meta.size)


class TestStaleHomeCas:
    def test_install_lock_chases_tombstone_to_new_home(self):
        cluster, ddss = _rig()
        key = _alloc(cluster, ddss, home=0,
                     payload=(100).to_bytes(8, "big") + b"\x00" * 24)
        client = ddss.client(cluster.nodes[2])
        state = {}

        def txn(env):
            # the snapshot caches the meta; a rebalance races us, and the
            # install lock must fail and retry at the new home
            version, _data = yield one(env, client.snapshot_all([key]))
            old_meta = ddss._directory[key]
            ddss.migrate_unit(key, new_home=1)
            yield one(env, client.install_lock_all([(key, version)]))
            state["stale_after_lock"] = client.stale_retries
            (ok, new), = yield from client.install_publish_all(
                ((key, version, (7).to_bytes(8, "big")),))
            assert (ok, new) == (True, version + 1)
            state["old_meta"] = old_meta

        cluster.env.run_until_event(
            cluster.env.process(txn(cluster.env), name="txn"), limit=1e9)

        # the CAS re-resolved instead of landing at the stale address
        assert state["stale_after_lock"] > 0
        word, data = _old_block(ddss, state["old_meta"])
        assert word == TOMBSTONE
        # old bytes untouched by the install: still the pre-move value
        assert data[:8] == (100).to_bytes(8, "big")
        # the install committed at the unit's new home
        new_meta = ddss._directory[key]
        assert new_meta.home == 1
        seg = ddss.segment(1)
        off = new_meta.addr - seg.addr
        new_word = int.from_bytes(seg.read(off + VERSION_OFF, 8), "big")
        assert new_word == 2  # init's v1, then our publish
        assert seg.read(off + HEADER_BYTES, 8) == (7).to_bytes(8, "big")

    def test_snapshot_and_peek_chase_tombstones(self):
        cluster, ddss = _rig()
        key = _alloc(cluster, ddss, home=0,
                     payload=(5).to_bytes(8, "big") + b"\x00" * 24)
        client = ddss.client(cluster.nodes[2])
        out = {}

        def warm_then_read(env):
            yield one(env, client.snapshot_all([key]))  # warm the cache
            ddss.migrate_unit(key, new_home=2)
            out["snap"] = yield one(env, client.snapshot_all([key]))
            (ok, out["peek"]), = yield from client.peek_version_all((key,))
            assert ok

        cluster.env.run_until_event(
            cluster.env.process(warm_then_read(cluster.env), name="r"),
            limit=1e9)
        version, data = out["snap"]
        assert version == 1 and data[:8] == (5).to_bytes(8, "big")
        assert out["peek"] == 1
        assert client.stale_retries > 0

    def test_whole_txn_commits_across_migration(self):
        cluster, ddss = _rig()
        src = _alloc(cluster, ddss, home=0,
                     payload=(100).to_bytes(8, "big") + b"\x00" * 24)
        dst = _alloc(cluster, ddss, home=0,
                     payload=(100).to_bytes(8, "big") + b"\x00" * 24)
        client = OCCTxnClient(ddss.client(cluster.nodes[2]))

        def warm(env):
            yield one(env, client.store.snapshot_all([src]))
            yield one(env, client.store.snapshot_all([dst]))

        cluster.env.run_until_event(
            cluster.env.process(warm(cluster.env), name="warm"))
        ddss.migrate_unit(src, new_home=1)
        ev = client.run(transfer_txn(src, dst, 30))
        cluster.env.run_until_event(ev, limit=1e9)
        assert ev.value.committed
        assert client.store.stale_retries > 0


class TestRebalanceGuards:
    def test_busy_unit_is_not_moved(self):
        cluster, ddss = _rig()
        key = _alloc(cluster, ddss, home=0)
        store = ddss.client(cluster.nodes[1])

        def claim(env):
            version, _ = yield one(env, store.snapshot_all([key]))
            yield one(env, store.install_lock_all([(key, version)]))

        cluster.env.run_until_event(
            cluster.env.process(claim(cluster.env), name="claim"))
        with pytest.raises(DDSSError, match="install in flight"):
            ddss.migrate_unit(key, new_home=1)
        assert ddss._directory[key].home == 0  # untouched

    def test_unknown_key_and_non_member_rejected(self):
        cluster, ddss = _rig()
        key = _alloc(cluster, ddss, home=0)
        with pytest.raises(DDSSError, match="unknown key"):
            ddss.migrate_unit(999, new_home=1)
        with pytest.raises(DDSSError, match="not a DDSS member"):
            ddss.migrate_unit(key, new_home=42)

    def test_migrate_off_skips_busy_and_moves_the_rest(self):
        cluster, ddss = _rig(sharded=True)
        keys = [_alloc(cluster, ddss, home=0) for _ in range(3)]
        store = ddss.client(cluster.nodes[1])

        def claim(env):
            version, _ = yield one(env, store.snapshot_all([keys[0]]))
            yield one(env, store.install_lock_all([(keys[0], version)]))

        cluster.env.run_until_event(
            cluster.env.process(claim(cluster.env), name="claim"))
        moved = ddss.migrate_off(0, avoid=(2,))
        assert moved == 2
        assert ddss._directory[keys[0]].home == 0  # busy: left behind
        assert all(ddss._directory[k].home == 1 for k in keys[1:])

    def test_migrate_off_without_live_targets_fails(self):
        cluster, ddss = _rig(sharded=True)
        _alloc(cluster, ddss, home=0)
        with pytest.raises(DDSSError, match="no live member"):
            ddss.migrate_off(0, avoid=(1, 2))


class TestReconfigHook:
    def test_evicting_a_node_rebalances_its_units(self):
        """ReconfigManager wired with ddss=: declaring a node dead
        tombstones every unit it homed and repoints the directory, so
        stale clients fail-retry instead of writing to a dead home."""
        cluster, ddss = _rig(n_nodes=4, sharded=True)
        keys = [_alloc(cluster, ddss, home=1) for _ in range(2)]
        manager = ReconfigManager(cluster.nodes[0], services=[],
                                  ddss=ddss)
        manager._evict(1)
        assert all(ddss._directory[k].home != 1 for k in keys)

    def test_plain_ddss_is_rejected_at_construction(self):
        """Eviction rebalances through the sharded directory, so a plain
        DDSS fails when the manager is built, not at the first evict."""
        cluster, ddss = _rig()
        with pytest.raises(ConfigError, match="needs a ShardedDDSS"):
            ReconfigManager(cluster.nodes[0], services=[], ddss=ddss)

    def test_evict_without_ddss_is_harmless(self):
        cluster, _ddss = _rig()
        manager = ReconfigManager(cluster.nodes[0], services=[])
        manager._evict(1)  # no ddss wired: services-only eviction
        assert manager.evictions == []
