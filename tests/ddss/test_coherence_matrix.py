"""One parametrized suite drives every DDSS coherence model through the
same read/write/conflict script and asserts each model's visibility
contract (paper §4.1): what a reader sees after a put, how long a
cached copy may be served, which operations take the unit lock, and
what the version word records.
"""

import pytest

from repro.net import Cluster
from repro.ddss import DDSS, Coherence

A, B, C = (bytes([x]) * 32 for x in (0xAA, 0xBB, 0xCC))

#: models whose second read may legally serve a stale cached copy
STALE_OK = {Coherence.DELTA, Coherence.TEMPORAL}
#: models whose put bumps the 8-byte version word (directly or locked)
VERSIONED = {Coherence.READ, Coherence.WRITE, Coherence.STRICT,
             Coherence.VERSION, Coherence.DELTA}

TTL_US = 1_000.0


def build(model, seed=0):
    cluster = Cluster(n_nodes=4, seed=seed)
    obs = cluster.observe(strict=True)
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    writer = ddss.client(cluster.nodes[1])
    reader = ddss.client(cluster.nodes[2])
    return cluster, obs, ddss, writer, reader


def drive(cluster, gen):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p, limit=1e9)
    return p.value


@pytest.mark.parametrize("model", list(Coherence), ids=lambda m: m.value)
class TestCoherenceMatrix:
    def test_visibility_script(self, model):
        """put A / read / put B / read / put C / wait-past-bound / read.

        The second read is where the models diverge: bounded-staleness
        models (DELTA with delta=1, TEMPORAL within ttl) serve the
        cached A; every other model must return B.  After the staleness
        bound is exceeded every model converges on the latest value.
        """
        cluster, obs, ddss, writer, reader = build(model)

        def script(env):
            key = yield writer.allocate(32, coherence=model,
                                        placement=0, delta=1,
                                        ttl_us=TTL_US)
            yield writer.put(key, A)
            d1 = yield reader.get(key)
            yield writer.put(key, B)
            d2 = yield reader.get(key)
            yield writer.put(key, C)
            # exceed both staleness bounds: TEMPORAL's ttl clock and
            # DELTA's version distance (C already put it 2 > delta=1
            # versions ahead of the copy cached at d1)
            yield env.timeout(TTL_US + 1.0)
            d3 = yield reader.get(key)
            return d1, d2, d3

        d1, d2, d3 = drive(cluster, script(cluster.env))
        assert d1 == A
        if model in STALE_OK:
            assert d2 == A, "bounded-staleness read must serve the copy"
            assert reader.cache_hits >= 1
        else:
            assert d2 == B
            assert reader.cache_hits == 0
        assert d3 == C
        assert not obs.violations()

    def test_lock_discipline(self, model):
        """WRITE/STRICT serialize puts through the unit lock; STRICT
        alone also locks reads; everything else is lock-free."""
        cluster, obs, ddss, writer, reader = build(model)

        def script(env):
            key = yield writer.allocate(32, coherence=model,
                                        placement=0, delta=1,
                                        ttl_us=TTL_US)
            for data in (A, B):
                yield writer.put(key, data)
            yield reader.get(key)
            return None

        drive(cluster, script(cluster.env))
        locked_puts = 2 if model.locks_writes else 0
        # the read is a cache hit only for models that never lock reads,
        # so the lock count for STRICT's get is always paid
        locked_gets = 1 if model.locks_reads else 0
        acquires = obs.trace.select("ddss.lock.acquire")
        releases = obs.trace.select("ddss.lock.release")
        assert len(acquires) == locked_puts + locked_gets
        assert len(releases) == len(acquires)
        assert not obs.violations()

    def test_version_word(self, model):
        """Versioned models count puts in the unit's version word."""
        cluster, obs, ddss, writer, reader = build(model)

        def script(env):
            key = yield writer.allocate(32, coherence=model,
                                        placement=0, delta=1,
                                        ttl_us=TTL_US)
            for data in (A, B, C):
                yield writer.put(key, data)
            meta = yield from reader._meta(key)
            version = yield from reader._read_version(meta)
            return version

        version = drive(cluster, script(cluster.env))
        assert version == (3 if model in VERSIONED else 0)
        assert not obs.violations()

    def test_concurrent_writers_single_owner(self, model):
        """Two writers race puts on one unit.  Locking models serialize
        them through the spin lock (the single-owner oracle verifies no
        overlap); the final value is one of the two writes for every
        model, since simulated RDMA writes land atomically."""
        cluster, obs, ddss, w1, reader = build(model)
        w2 = ddss.client(cluster.nodes[3])
        done = []

        def writer_proc(env, client, key, data):
            for _ in range(3):
                yield client.put(key, data)
            done.append(data)

        def script(env):
            key = yield w1.allocate(32, coherence=model, placement=0,
                                    delta=1, ttl_us=TTL_US)
            env.process(writer_proc(env, w1, key, A), name="w1")
            env.process(writer_proc(env, w2, key, B), name="w2")
            yield env.timeout(50_000.0)
            # fresh read well past every staleness bound
            value = yield reader.get(key)
            return value

        value = drive(cluster, script(cluster.env))
        assert len(done) == 2
        assert value in (A, B)
        assert not obs.violations()  # single-owner held even under contention
