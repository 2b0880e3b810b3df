"""Correctness tests for all three lock managers.

The manager base keeps an independent safety ledger that raises on any
grant violating mutual exclusion, so simply *running* these scenarios is
itself an invariant check.
"""

import pytest

from repro.errors import LockError
from repro.net import Cluster
from repro.dlm import (
    ALockManager,
    DQNLManager,
    LockMode,
    MCSManager,
    NCoSEDManager,
    SRSLManager,
)

ALL = [SRSLManager, DQNLManager, NCoSEDManager, MCSManager, ALockManager]
SHARED_CAPABLE = [SRSLManager, NCoSEDManager]


def build(scheme_cls, n_nodes=4, n_locks=8, seed=0):
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    manager = scheme_cls(cluster, n_locks=n_locks)
    return cluster, manager


def run(cluster, gen, limit=1e9):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p, limit=limit)
    return p.value


@pytest.mark.parametrize("scheme_cls", ALL)
class TestCommon:
    def test_exclusive_acquire_release(self, scheme_cls):
        cluster, manager = build(scheme_cls)
        client = manager.client(cluster.nodes[1])

        def app(env):
            yield client.acquire(0, LockMode.EXCLUSIVE)
            held = manager.holder_count(0)
            yield client.release(0)
            return held

        assert run(cluster, app(cluster.env)) == 1
        cluster.env.run(until=cluster.env.now + 1e5)
        assert manager.holder_count(0) == 0

    def test_mutual_exclusion_two_clients(self, scheme_cls):
        cluster, manager = build(scheme_cls)
        c1 = manager.client(cluster.nodes[1])
        c2 = manager.client(cluster.nodes[2])
        active, overlaps = [], []

        def worker(env, client, tag):
            yield client.acquire(3, LockMode.EXCLUSIVE)
            if active:
                overlaps.append(tag)
            active.append(tag)
            yield env.timeout(200.0)
            active.remove(tag)
            yield client.release(3)

        def app(env):
            yield env.all_of([
                env.process(worker(env, c1, "a")),
                env.process(worker(env, c2, "b")),
            ])

        run(cluster, app(cluster.env))
        assert overlaps == []

    def test_fifo_like_progress_no_starvation(self, scheme_cls):
        """Eight contenders each get the lock exactly once."""
        cluster, manager = build(scheme_cls, n_nodes=9)
        grants = []

        def worker(env, client, tag):
            yield env.timeout(tag * 5.0)
            yield client.acquire(1, LockMode.EXCLUSIVE)
            grants.append(tag)
            yield env.timeout(10.0)
            yield client.release(1)

        def app(env):
            procs = []
            for i in range(8):
                client = manager.client(cluster.nodes[i + 1])
                procs.append(env.process(worker(env, client, i)))
            yield env.all_of(procs)

        run(cluster, app(cluster.env))
        assert sorted(grants) == list(range(8))

    def test_independent_locks_do_not_interfere(self, scheme_cls):
        cluster, manager = build(scheme_cls)
        c1 = manager.client(cluster.nodes[1])
        c2 = manager.client(cluster.nodes[2])

        def app(env):
            yield c1.acquire(0, LockMode.EXCLUSIVE)
            t0 = env.now
            yield c2.acquire(1, LockMode.EXCLUSIVE)  # different lock
            waited = env.now - t0
            yield c1.release(0)
            yield c2.release(1)
            return waited

        waited = run(cluster, app(cluster.env))
        assert waited < 100.0  # no queuing behind lock 0

    def test_bad_lock_id_rejected(self, scheme_cls):
        cluster, manager = build(scheme_cls, n_locks=4)
        client = manager.client(cluster.nodes[1])
        with pytest.raises(LockError):
            client.acquire(99)

    def test_refused_release_leaves_the_ledger_unchanged(self, scheme_cls):
        # a ledger entry for a never-held lock would enroll it in every
        # later lease sweep
        cluster, manager = build(scheme_cls)
        client = manager.client(cluster.nodes[1])

        def app(env):
            try:
                yield client.release(5)
            except LockError:
                return "rejected"

        assert run(cluster, app(cluster.env)) == "rejected"
        assert manager._ledger_expunge(6, client.token) is None
        assert manager.holders == {}

    def test_reacquire_after_release(self, scheme_cls):
        cluster, manager = build(scheme_cls)
        client = manager.client(cluster.nodes[1])

        def app(env):
            for _ in range(5):
                yield client.acquire(2, LockMode.EXCLUSIVE)
                yield client.release(2)
                yield env.timeout(100.0)
            return client.acquires

        assert run(cluster, app(cluster.env)) == 5


@pytest.mark.parametrize("scheme_cls", SHARED_CAPABLE)
class TestSharedSemantics:
    def test_shared_holders_coexist(self, scheme_cls):
        cluster, manager = build(scheme_cls, n_nodes=6)
        peak = []

        def reader(env, client):
            yield client.acquire(0, LockMode.SHARED)
            peak.append(manager.holder_count(0))
            yield env.timeout(500.0)
            yield client.release(0)

        def app(env):
            procs = [env.process(reader(env, manager.client(node)))
                     for node in cluster.nodes[1:5]]
            yield env.all_of(procs)

        run(cluster, app(cluster.env))
        assert max(peak) == 4  # all four readers held simultaneously

    def test_writer_excludes_readers(self, scheme_cls):
        cluster, manager = build(scheme_cls, n_nodes=5)
        writer = manager.client(cluster.nodes[1])
        events = []

        def reader(env, client, tag):
            yield env.timeout(50.0)
            yield client.acquire(0, LockMode.SHARED)
            events.append(("r-grant", tag, env.now))
            yield client.release(0)

        def app(env):
            yield writer.acquire(0, LockMode.EXCLUSIVE)
            procs = [
                env.process(reader(env, manager.client(cluster.nodes[i]), i))
                for i in (2, 3)]
            yield env.timeout(2000.0)
            events.append(("w-release", None, env.now))
            yield writer.release(0)
            yield env.all_of(procs)

        run(cluster, app(cluster.env))
        release_t = [t for kind, _, t in events if kind == "w-release"][0]
        for kind, _, t in events:
            if kind == "r-grant":
                assert t >= release_t

    def test_reader_blocks_writer(self, scheme_cls):
        cluster, manager = build(scheme_cls, n_nodes=4)
        reader = manager.client(cluster.nodes[1])
        writer = manager.client(cluster.nodes[2])
        times = {}

        def app(env):
            yield reader.acquire(0, LockMode.SHARED)

            def writing(env):
                yield env.timeout(20.0)
                yield writer.acquire(0, LockMode.EXCLUSIVE)
                times["w"] = env.now
                yield writer.release(0)

            wproc = env.process(writing(env))
            yield env.timeout(1000.0)
            yield reader.release(0)
            times["r_rel"] = env.now
            yield wproc

        run(cluster, app(cluster.env))
        assert times["w"] >= times["r_rel"]

    def test_interleaved_shared_exclusive_waves(self, scheme_cls):
        """Readers, then a writer, then readers again — strict phases."""
        cluster, manager = build(scheme_cls, n_nodes=8)
        log = []

        def reader(env, client, tag, delay):
            yield env.timeout(delay)
            yield client.acquire(0, LockMode.SHARED)
            log.append(("r", tag, env.now))
            yield env.timeout(300.0)
            yield client.release(0)

        def writer(env, client, delay):
            yield env.timeout(delay)
            yield client.acquire(0, LockMode.EXCLUSIVE)
            log.append(("w", None, env.now))
            yield env.timeout(300.0)
            yield client.release(0)

        def app(env):
            procs = [
                env.process(reader(env, manager.client(cluster.nodes[1]),
                                   1, 0.0)),
                env.process(reader(env, manager.client(cluster.nodes[2]),
                                   2, 10.0)),
                env.process(writer(env, manager.client(cluster.nodes[3]),
                                   100.0)),
                env.process(reader(env, manager.client(cluster.nodes[4]),
                                   4, 200.0)),
            ]
            yield env.all_of(procs)

        run(cluster, app(cluster.env))
        # the writer grant must come after both early readers released
        # and the late reader after the writer: no interleaving violations
        # were raised by the safety ledger, which is the core assertion.
        kinds = [k for k, _, _ in sorted(log, key=lambda e: e[2])]
        assert kinds.count("w") == 1


class TestDQNLSpecifics:
    def test_shared_requests_serialize(self):
        """DQNL treats shared as exclusive: holders never overlap."""
        cluster, manager = build(DQNLManager, n_nodes=6)
        peak = []

        def reader(env, client):
            yield client.acquire(0, LockMode.SHARED)
            peak.append(manager.holder_count(0))
            yield env.timeout(100.0)
            yield client.release(0)

        def app(env):
            procs = [env.process(reader(env, manager.client(node)))
                     for node in cluster.nodes[1:5]]
            yield env.all_of(procs)

        run(cluster, app(cluster.env))
        assert max(peak) == 1

    def test_double_acquire_rejected(self):
        cluster, manager = build(DQNLManager)
        client = manager.client(cluster.nodes[1])

        def app(env):
            yield client.acquire(0)
            try:
                yield client.acquire(0)
            except LockError:
                return "rejected"

        assert run(cluster, app(cluster.env)) == "rejected"

    def test_release_without_hold_rejected(self):
        cluster, manager = build(DQNLManager)
        client = manager.client(cluster.nodes[1])

        def app(env):
            try:
                yield client.release(0)
            except LockError:
                return "rejected"

        assert run(cluster, app(cluster.env)) == "rejected"


class TestNCoSEDSpecifics:
    def test_word_encodes_tail_and_count(self):
        cluster, manager = build(NCoSEDManager, n_nodes=5)
        c1 = manager.client(cluster.nodes[1])
        c2 = manager.client(cluster.nodes[2])
        c3 = manager.client(cluster.nodes[3])
        snapshots = {}

        def app(env):
            yield c1.acquire(0, LockMode.SHARED)
            yield c2.acquire(0, LockMode.SHARED)
            snapshots["two_shared"] = manager.raw_word(0)
            yield c1.release(0)
            yield c2.release(0)
            yield env.timeout(200.0)
            snapshots["free"] = manager.raw_word(0)
            yield c3.acquire(0, LockMode.EXCLUSIVE)
            snapshots["excl"] = manager.raw_word(0)
            yield c3.release(0)

        run(cluster, app(cluster.env))
        assert snapshots["two_shared"] == 2  # count=2, no tail
        assert snapshots["free"] == 0
        assert snapshots["excl"] >> 24 == c3.token

    def test_shared_grant_is_single_rtt(self):
        """An uncontended shared acquire = one fetch-and-add RTT."""
        cluster, manager = build(NCoSEDManager)
        client = manager.client(cluster.nodes[1])

        def app(env):
            t0 = env.now
            yield client.acquire(0, LockMode.SHARED)
            return env.now - t0

        latency = run(cluster, app(cluster.env))
        assert latency < 15.0  # one atomic round trip

    def test_exclusive_waits_for_all_shared_drains(self):
        cluster, manager = build(NCoSEDManager, n_nodes=6)
        readers = [manager.client(cluster.nodes[i]) for i in (1, 2, 3)]
        writer = manager.client(cluster.nodes[4])
        times = {}

        def app(env):
            for r in readers:
                yield r.acquire(0, LockMode.SHARED)

            def writing(env):
                yield writer.acquire(0, LockMode.EXCLUSIVE)
                times["w"] = env.now

            wp = env.process(writing(env))
            yield env.timeout(500.0)
            # release readers one by one; writer only enters after the last
            for i, r in enumerate(readers):
                yield env.timeout(100.0)
                yield r.release(0)
                times[f"r{i}"] = env.now
            yield wp

        run(cluster, app(cluster.env))
        assert times["w"] >= times["r2"]

    def test_shared_after_pending_exclusive_waits(self):
        """A shared request behind a pending exclusive must not bypass it
        (no reader starvation of writers)."""
        cluster, manager = build(NCoSEDManager, n_nodes=6)
        r1 = manager.client(cluster.nodes[1])
        w = manager.client(cluster.nodes[2])
        r2 = manager.client(cluster.nodes[3])
        order = []

        def app(env):
            yield r1.acquire(0, LockMode.SHARED)

            def writer(env):
                yield w.acquire(0, LockMode.EXCLUSIVE)
                order.append("w")
                yield env.timeout(100.0)
                yield w.release(0)

            def late_reader(env):
                yield env.timeout(50.0)  # after the writer enqueued
                yield r2.acquire(0, LockMode.SHARED)
                order.append("r2")
                yield r2.release(0)

            wp = env.process(writer(env))
            rp = env.process(late_reader(env))
            yield env.timeout(500.0)
            yield r1.release(0)
            yield env.all_of([wp, rp])

        run(cluster, app(cluster.env))
        assert order == ["w", "r2"]
