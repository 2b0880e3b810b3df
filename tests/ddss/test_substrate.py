"""Tests for DDSS allocate/free/lookup/get/put across coherence models."""

import pytest

from repro.errors import DDSSError
from repro.net import Cluster
from repro.ddss import DDSS, Coherence


@pytest.fixture
def setup():
    cluster = Cluster(n_nodes=4, seed=7)
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    return cluster, ddss


def run(cluster, gen):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p)
    return p.value


class TestControlPlane:
    def test_allocate_put_get_roundtrip(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[1])

        def app(env):
            key = yield client.allocate(64)
            yield client.put(key, b"hello-ddss")
            data = yield client.get(key)
            return key, data

        key, data = run(cluster, app(cluster.env))
        assert key == 1
        assert data[:10] == b"hello-ddss"

    def test_round_robin_placement(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[0])

        def app(env):
            homes = []
            for _ in range(8):
                key = yield client.allocate(32)
                meta = yield client.lookup(key)
                homes.append(meta.home)
            return homes

        homes = run(cluster, app(cluster.env))
        assert set(homes) == {0, 1, 2, 3}

    def test_explicit_placement(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[0])

        def app(env):
            key = yield client.allocate(32, placement=2)
            meta = yield client.lookup(key)
            return meta.home

        assert run(cluster, app(cluster.env)) == 2

    def test_bad_placement_rejected(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[0])

        def app(env):
            try:
                yield client.allocate(32, placement=99)
            except DDSSError:
                return "rejected"

        assert run(cluster, app(cluster.env)) == "rejected"

    def test_lookup_from_other_client(self, setup):
        cluster, ddss = setup
        alice = ddss.client(cluster.nodes[1])
        bob = ddss.client(cluster.nodes[2])

        def app(env):
            key = yield alice.allocate(64)
            yield alice.put(key, b"from-alice")
            data = yield bob.get(key)  # bob must resolve via directory
            return data

        assert run(cluster, app(cluster.env))[:10] == b"from-alice"

    def test_lookup_unknown_key(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[0])

        def app(env):
            try:
                yield client.lookup(12345)
            except DDSSError as exc:
                return str(exc)

        assert "unknown key" in run(cluster, app(cluster.env))

    def test_allocation_exhaustion_surfaces(self):
        cluster = Cluster(n_nodes=1, seed=0)
        ddss = DDSS(cluster, segment_bytes=256)
        client = ddss.client(cluster.nodes[0])

        def app(env):
            yield client.allocate(128)
            try:
                yield client.allocate(200)
            except DDSSError:
                return "full"

        assert run(cluster, app(cluster.env)) == "full"

    def test_oversized_put_get_rejected(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[0])

        def app(env):
            key = yield client.allocate(16)
            outcomes = []
            try:
                yield client.put(key, b"x" * 17)
            except DDSSError:
                outcomes.append("put")
            try:
                yield client.get(key, length=17)
            except DDSSError:
                outcomes.append("get")
            return outcomes

        assert run(cluster, app(cluster.env)) == ["put", "get"]


def allocate_many(n):
    """``n`` allocations from one client; returns the request ids its
    control RPCs carried and the receive queues left on its NIC."""
    cluster = Cluster(n_nodes=4, seed=7)
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    client = ddss.client(cluster.nodes[1])
    nic = client.node.nic
    sent, post = [], nic.post

    def logged_post(dst, payload=None, size=0, tag=0):
        if tag == ddss.WIRE_TAG:
            sent.append(payload["req"])
        post(dst, payload=payload, size=size, tag=tag)

    nic.post = logged_post

    def app(env):
        for _ in range(n):
            yield client.allocate(64)

    run(cluster, app(cluster.env))
    return sent, len(nic._recv_queues)


class TestControlRpcIds:
    def test_reply_queues_do_not_accumulate(self):
        sent, queues = allocate_many(200)
        assert len(sent) == 400  # alloc + register per unit
        assert queues <= 2

    def test_request_ids_are_scoped_to_the_environment(self):
        first, _ = allocate_many(200)
        second, _ = allocate_many(200)
        assert first == second
        assert len(set(first)) == len(first)


class TestCoherenceModels:
    @pytest.mark.parametrize("model", list(Coherence))
    def test_roundtrip_every_model(self, setup, model):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[1])

        def app(env):
            key = yield client.allocate(32, coherence=model)
            yield client.put(key, b"m:" + model.value.encode())
            data = yield client.get(key)
            return data

        data = run(cluster, app(cluster.env))
        assert data.startswith(b"m:" + model.value.encode())

    def test_version_model_bumps_version(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[1])

        def app(env):
            key = yield client.allocate(32, coherence=Coherence.VERSION)
            v0 = yield client.get_version(key)
            yield client.put(key, b"a")
            yield client.put(key, b"b")
            v2 = yield client.get_version(key)
            return v0, v2

        v0, v2 = run(cluster, app(cluster.env))
        assert (v0, v2) == (0, 2)

    def test_write_model_serializes_writers(self, setup):
        """Two concurrent writers under WRITE coherence cannot interleave
        partial writes: the final data is exactly one writer's payload."""
        cluster, ddss = setup
        w1 = ddss.client(cluster.nodes[1])
        w2 = ddss.client(cluster.nodes[2])
        reader = ddss.client(cluster.nodes[3])
        keys = {}

        def alloc(env):
            keys["k"] = yield w1.allocate(16, coherence=Coherence.WRITE)

        run(cluster, alloc(cluster.env))

        def writer(env, client, pattern):
            for _ in range(5):
                yield client.put(keys["k"], pattern)

        def check(env):
            yield cluster.env.all_of([
                cluster.env.process(writer(env, w1, b"A" * 16)),
                cluster.env.process(writer(env, w2, b"B" * 16)),
            ])
            data = yield reader.get(keys["k"])
            return data

        data = run(cluster, check(cluster.env))
        assert data in (b"A" * 16, b"B" * 16)

    def test_temporal_model_serves_cached_within_ttl(self, setup):
        cluster, ddss = setup
        writer = ddss.client(cluster.nodes[1])
        reader = ddss.client(cluster.nodes[2])

        def app(env):
            key = yield writer.allocate(
                16, coherence=Coherence.TEMPORAL, ttl_us=10_000)
            yield writer.put(key, b"v1")
            yield reader.get(key)          # fills reader's cache
            hits0 = reader.cache_hits
            yield reader.get(key)          # within ttl: cache hit
            hits1 = reader.cache_hits
            yield env.timeout(20_000)
            yield reader.get(key)          # expired: refetch
            hits2 = reader.cache_hits
            return hits0, hits1, hits2

        h0, h1, h2 = run(cluster, app(cluster.env))
        assert (h0, h1, h2) == (0, 1, 1)

    def test_temporal_cached_get_takes_zero_time(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[1])

        def app(env):
            key = yield client.allocate(
                16, coherence=Coherence.TEMPORAL, ttl_us=1e6)
            yield client.put(key, b"v")
            yield client.get(key)
            t0 = env.now
            yield client.get(key)
            return env.now - t0

        assert run(cluster, app(cluster.env)) == 0.0

    def test_delta_model_staleness_bound(self, setup):
        """A delta=2 reader serves its cache until 3 versions behind."""
        cluster, ddss = setup
        writer = ddss.client(cluster.nodes[1])
        reader = ddss.client(cluster.nodes[2])

        def app(env):
            key = yield writer.allocate(16, coherence=Coherence.DELTA,
                                        delta=2)
            yield writer.put(key, b"v1")
            first = yield reader.get(key)      # caches v1
            yield writer.put(key, b"v2")
            yield writer.put(key, b"v3")
            second = yield reader.get(key)     # 2 behind: cached v1 ok
            hits_mid = reader.cache_hits
            yield writer.put(key, b"v4")
            third = yield reader.get(key)      # 3 behind: must refetch
            return first[:2], second[:2], third[:2], hits_mid

        first, second, third, hits_mid = run(cluster, app(cluster.env))
        assert first == b"v1"
        assert second == b"v1"  # served stale within bound
        assert third == b"v4"
        assert hits_mid == 1

    def test_strict_model_reader_excluded_during_write(self, setup):
        """Under STRICT, a reader that starts during a long writer hold
        observes only pre- or post-write data (no torn reads) and the
        lock word is free afterwards."""
        cluster, ddss = setup
        writer = ddss.client(cluster.nodes[1])
        reader = ddss.client(cluster.nodes[2])

        def app(env):
            key = yield writer.allocate(16, coherence=Coherence.STRICT)
            yield writer.put(key, b"S" * 16)
            meta = yield writer.lookup(key)
            data = yield reader.get(key)
            # after everything completes the lock must be free
            seg_lock = cluster.nodes[meta.home].memory.rdma_read(
                meta.addr, meta.rkey, 8)
            return data, seg_lock

        data, lock_word = run(cluster, app(cluster.env))
        assert data == b"S" * 16
        assert lock_word == b"\x00" * 8

    def test_null_put_is_cheapest(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[1])

        def timed_put(env, model):
            # pin the unit to a fixed *remote* home so placement does not
            # confound the comparison (the client lives on node 1)
            key = yield client.allocate(64, coherence=model, placement=3)
            t0 = env.now
            yield client.put(key, b"x" * 64)
            return env.now - t0

        t_null = run(cluster, timed_put(cluster.env, Coherence.NULL))
        t_strict = run(cluster, timed_put(cluster.env, Coherence.STRICT))
        t_version = run(cluster, timed_put(cluster.env, Coherence.VERSION))
        assert t_null < t_version < t_strict

    def test_put_latency_within_paper_envelope(self, setup):
        """Fig 3a: 1-byte put stays under ~55us for every model."""
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[1])

        def timed_put(env, model):
            key = yield client.allocate(8, coherence=model)
            t0 = env.now
            yield client.put(key, b"x")
            return env.now - t0

        for model in Coherence:
            t = run(cluster, timed_put(cluster.env, model))
            assert t <= 55.0, f"{model}: {t}us"


class TestLocking:
    def test_acquire_release(self, setup):
        cluster, ddss = setup
        client = ddss.client(cluster.nodes[1])

        def app(env):
            key = yield client.allocate(16)
            yield client.acquire(key)
            meta = yield client.lookup(key)
            word = cluster.nodes[meta.home].memory.rdma_read(
                meta.addr, meta.rkey, 8)
            held = int.from_bytes(word, "big") != 0
            yield client.release(key)
            word = cluster.nodes[meta.home].memory.rdma_read(
                meta.addr, meta.rkey, 8)
            freed = int.from_bytes(word, "big") == 0
            return held, freed

        assert run(cluster, app(cluster.env)) == (True, True)

    def test_mutual_exclusion_between_clients(self, setup):
        cluster, ddss = setup
        c1 = ddss.client(cluster.nodes[1])
        c2 = ddss.client(cluster.nodes[2])
        holders = []
        overlap = []

        def contender(env, client, tag, key):
            yield client.acquire(key)
            if holders:
                overlap.append(tag)
            holders.append(tag)
            yield env.timeout(100.0)
            holders.remove(tag)
            yield client.release(key)

        def app(env):
            key = yield c1.allocate(16)
            yield env.all_of([
                env.process(contender(env, c1, "a", key)),
                env.process(contender(env, c2, "b", key)),
            ])

        run(cluster, app(cluster.env))
        assert overlap == []

    def test_release_without_ownership_fails(self, setup):
        cluster, ddss = setup
        c1 = ddss.client(cluster.nodes[1])
        c2 = ddss.client(cluster.nodes[2])

        def app(env):
            key = yield c1.allocate(16)
            yield c1.acquire(key)
            try:
                yield c2.release(key)
            except Exception as exc:
                return type(exc).__name__

        assert run(cluster, app(cluster.env)) == "CoherenceError"

