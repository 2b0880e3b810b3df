"""DDSS replication: puts reach all reachable copies, gets fail over."""

import pytest

from repro.errors import DDSSError
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.ddss import DDSS, Coherence


def build(n=4, seed=0, plan=None):
    cluster = Cluster(n_nodes=n, seed=seed)
    inj = cluster.install_faults(plan) if plan is not None else None
    ddss = DDSS(cluster)
    return cluster, ddss, inj


def drive(cluster, gen):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p, limit=1e9)
    return p.value


class TestReplicatedAllocation:
    def test_replicas_placed_on_distinct_members(self):
        cluster, ddss, _ = build()
        client = ddss.client(cluster.nodes[0])

        def app(env):
            key = yield client.allocate(64, Coherence.NULL, replicas=2)
            meta = yield client.lookup(key)
            return meta

        meta = drive(cluster, app(cluster.env))
        homes = [h for h, _, _ in meta.copies]
        assert len(homes) == 3
        assert len(set(homes)) == 3

    def test_too_many_replicas_rejected(self):
        cluster, ddss, _ = build(n=2)
        client = ddss.client(cluster.nodes[0])

        def app(env):
            with pytest.raises(DDSSError):
                yield client.allocate(64, replicas=2)

        drive(cluster, app(cluster.env))

    def test_locked_coherence_cannot_replicate(self):
        cluster, ddss, _ = build()
        client = ddss.client(cluster.nodes[0])

        def app(env):
            with pytest.raises(DDSSError):
                yield client.allocate(64, Coherence.WRITE, replicas=1)

        drive(cluster, app(cluster.env))

    def test_free_releases_replica_blocks(self):
        cluster, ddss, _ = build()
        client = ddss.client(cluster.nodes[0])

        def app(env):
            key = yield client.allocate(64, replicas=2)
            meta = yield client.lookup(key)
            yield client.free(key)
            return meta

        meta = drive(cluster, app(cluster.env))
        for home, _, _ in meta.copies:
            alloc = ddss._allocators[home]
            assert alloc.free_bytes == alloc.capacity


class TestFailover:
    PRIMARY = 1  # not the metadata node (0), which must stay reachable

    def crashing_setup(self, coherence, crash_at=5_000.0, restart_at=None,
                       seed=0):
        """A unit whose *primary* home crashes at ``crash_at``."""
        plan = FaultPlan()
        cluster = Cluster(n_nodes=5, seed=seed)
        inj = cluster.install_faults(plan)
        ddss = DDSS(cluster)
        # writer on a node that is neither primary nor replica home
        client = ddss.client(cluster.nodes[4])

        def setup(env):
            key = yield client.allocate(64, coherence,
                                        placement=self.PRIMARY, replicas=2)
            meta = yield client.lookup(key)
            yield client.put(key, b"before-crash")
            return key, meta

        key, meta = drive(cluster, setup(cluster.env))
        assert meta.home == self.PRIMARY
        cluster.env.process(self._crash(cluster.env, inj,
                                        crash_at, restart_at))
        return cluster, ddss, client, inj, key

    def _crash(self, env, inj, at, restart_at):
        yield env.timeout(at - env.now)
        inj.crash(self.PRIMARY)
        if restart_at is not None:
            yield env.timeout(restart_at - env.now)
            inj.restart(self.PRIMARY)

    @pytest.mark.parametrize("coherence", [Coherence.NULL, Coherence.DELTA])
    def test_read_fails_over_to_replica(self, coherence):
        cluster, ddss, client, inj, key = self.crashing_setup(coherence)

        def app(env):
            yield env.timeout(6_000.0 - env.now)  # primary now down
            data = yield client.get(key, length=len(b"before-crash"))
            return bytes(data)

        value = drive(cluster, app(cluster.env))
        assert value == b"before-crash"
        assert client.failovers >= 1

    @pytest.mark.parametrize("coherence", [Coherence.NULL, Coherence.DELTA])
    def test_write_then_read_with_primary_down(self, coherence):
        """A put during the outage lands on the replicas; a subsequent
        get returns that last acknowledged write."""
        cluster, ddss, client, inj, key = self.crashing_setup(coherence)
        # second client with a *cold* data cache so the read is remote
        reader = ddss.client(cluster.nodes[0])

        def app(env):
            yield env.timeout(6_000.0 - env.now)
            yield reader.lookup(key)         # warm meta only
            yield client.put(key, b"during-outage")
            data = yield reader.get(key, length=len(b"during-outage"))
            return bytes(data)

        value = drive(cluster, app(cluster.env))
        assert value == b"during-outage"
        assert client.failovers >= 1  # the put skipped the dead primary

    def test_no_reachable_copy_raises(self):
        cluster, ddss, client, inj, key = self.crashing_setup(
            Coherence.NULL)

        def app(env):
            yield env.timeout(6_000.0 - env.now)
            inj.crash(2)
            inj.crash(3)  # all three copies now unreachable
            with pytest.raises(DDSSError):
                yield client.get(key, length=4)

        drive(cluster, app(cluster.env))

    def test_unreplicated_unit_unaffected(self):
        """Replication is strictly opt-in: a plain unit still works and
        its meta carries no replicas."""
        cluster, ddss, _ = build()
        client = ddss.client(cluster.nodes[1])

        def app(env):
            key = yield client.allocate(32, Coherence.NULL, placement=0)
            meta = yield client.lookup(key)
            yield client.put(key, b"plain")
            data = yield client.get(key, length=5)
            return meta, bytes(data)

        meta, data = drive(cluster, app(cluster.env))
        assert meta.replicas == ()
        assert data == b"plain"
        assert client.failovers == 0
