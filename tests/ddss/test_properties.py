"""Property-based tests for DDSS coherence invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import Cluster
from repro.ddss import DDSS, Coherence


def fresh(seed=0, n_nodes=3):
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    ddss = DDSS(cluster, segment_bytes=128 * 1024)
    return cluster, ddss


def run(cluster, gen, limit=1e9):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p, limit=limit)
    return p.value


@given(data=st.binary(min_size=1, max_size=64))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_put_get_roundtrip_preserves_bytes(data):
    """Whatever bytes go in come back out, for every coherence model."""
    cluster, ddss = fresh()
    client = ddss.client(cluster.nodes[1])

    def app(env):
        out = {}
        for model in Coherence:
            key = yield client.allocate(len(data), coherence=model)
            yield client.put(key, data)
            out[model] = yield client.get(key)
        return out

    for model, got in run(cluster, app(cluster.env)).items():
        assert got == data, model


@given(writes=st.lists(st.binary(min_size=4, max_size=16),
                       min_size=1, max_size=8))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sequential_writes_last_one_wins(writes):
    """Under every model, a single writer's final put defines the data
    observed afterwards by a remote reader."""
    cluster, ddss = fresh(seed=1)
    writer = ddss.client(cluster.nodes[1])
    reader = ddss.client(cluster.nodes[2])

    def app(env):
        key = yield writer.allocate(16, coherence=Coherence.STRICT)
        for data in writes:
            yield writer.put(key, data)
        got = yield reader.get(key, length=len(writes[-1]))
        return got

    assert run(cluster, app(cluster.env)) == writes[-1]


@given(n_puts=st.integers(1, 10))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_version_counter_counts_puts_exactly(n_puts):
    cluster, ddss = fresh(seed=2)
    client = ddss.client(cluster.nodes[1])

    def app(env):
        key = yield client.allocate(8, coherence=Coherence.VERSION)
        for i in range(n_puts):
            yield client.put(key, bytes([i % 256] * 4))
        return (yield client.get_version(key))

    assert run(cluster, app(cluster.env)) == n_puts


@given(delta=st.integers(0, 5), extra_puts=st.integers(0, 8))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delta_staleness_never_exceeds_bound(delta, extra_puts):
    """A DELTA reader can serve stale data, but never more than
    ``delta`` versions behind the home copy."""
    cluster, ddss = fresh(seed=3)
    writer = ddss.client(cluster.nodes[1])
    reader = ddss.client(cluster.nodes[2])

    def app(env):
        key = yield writer.allocate(8, coherence=Coherence.DELTA,
                                    delta=delta)
        yield writer.put(key, (1).to_bytes(8, "big"))
        yield reader.get(key)  # caches version 1
        for v in range(2, 2 + extra_puts):
            yield writer.put(key, v.to_bytes(8, "big"))
        observed = int.from_bytes((yield reader.get(key)), "big")
        current = 1 + extra_puts
        return current - observed

    staleness = run(cluster, app(cluster.env))
    assert 0 <= staleness <= delta


@given(sizes=st.lists(st.integers(1, 2048), min_size=1, max_size=15))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_allocate_free_cycles_leak_nothing(sizes):
    cluster, ddss = fresh(seed=4, n_nodes=2)
    client = ddss.client(cluster.nodes[0])
    baseline = [ddss._allocators[n.id].free_bytes for n in cluster.nodes]

    def app(env):
        keys = []
        for size in sizes:
            keys.append((yield client.allocate(size)))
        for key in keys:
            yield client.free(key)

    run(cluster, app(cluster.env))
    after = [ddss._allocators[n.id].free_bytes for n in cluster.nodes]
    assert after == baseline
    assert len(ddss._directory) == 0
