"""Randomized stress tests for the lock managers.

The manager base's safety ledger raises on any grant that violates
mutual exclusion, so driving the protocols through hundreds of random
acquire/hold/release interleavings and reaching quiescence *is* the
correctness assertion.  Hypothesis controls the schedule shape.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import Cluster
from repro.dlm import (
    DQNLManager,
    LockMode,
    NCoSEDManager,
    SRSLManager,
)

ALL = [SRSLManager, DQNLManager, NCoSEDManager]


def run_schedule(scheme_cls, schedule, n_nodes=6, n_locks=3):
    """Each schedule entry: (node, lock, mode_flag, delay, hold).

    Every actor gets its own client handle (handles are per-application-
    thread and deliberately non-reentrant, like a plain mutex guard).
    """
    cluster = Cluster(n_nodes=n_nodes, seed=0)
    manager = scheme_cls(cluster, n_locks=n_locks)
    grants = []

    def actor(env, idx, entry):
        node_i, lock_i, shared, delay, hold = entry
        client = manager.client(cluster.nodes[node_i % n_nodes])
        mode = (LockMode.SHARED if shared
                and scheme_cls is not DQNLManager else LockMode.EXCLUSIVE)
        yield env.timeout(delay)
        yield client.acquire(lock_i % n_locks, mode)
        grants.append(idx)
        yield env.timeout(hold)
        yield client.release(lock_i % n_locks)

    procs = [cluster.env.process(actor(cluster.env, i, entry))
             for i, entry in enumerate(schedule)]
    done = cluster.env.all_of(procs)
    cluster.env.run_until_event(done, limit=1e9)
    # quiesce stray hand-off traffic, then every lock must be free
    cluster.env.run(until=cluster.env.now + 1e6)
    for lock_id in range(n_locks):
        assert len(manager.holders.get(lock_id, ())) == 0
    return grants


schedule_entries = st.tuples(
    st.integers(0, 5),            # node
    st.integers(0, 2),            # lock
    st.booleans(),                # shared?
    st.floats(0.0, 500.0),        # start delay
    st.floats(0.0, 300.0),        # hold time
)


@pytest.mark.parametrize("scheme_cls", ALL)
@given(schedule=st.lists(schedule_entries, min_size=2, max_size=14))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_schedules_all_grants_happen_and_locks_free(
        scheme_cls, schedule):
    grants = run_schedule(scheme_cls, schedule)
    assert sorted(grants) == list(range(len(schedule)))


@pytest.mark.parametrize("scheme_cls", ALL)
def test_same_instant_contention_burst(scheme_cls):
    """Sixteen requests for one lock issued at the exact same instant."""
    schedule = [(i % 6, 0, i % 2 == 0, 0.0, 10.0) for i in range(16)]
    grants = run_schedule(scheme_cls, schedule)
    assert len(grants) == 16


@pytest.mark.parametrize("scheme_cls", [NCoSEDManager, SRSLManager])
def test_reader_writer_storm(scheme_cls):
    """Alternating waves of shared and exclusive requests on one lock."""
    schedule = []
    for wave in range(6):
        base = wave * 40.0
        if wave % 2 == 0:
            schedule += [(n, 0, True, base, 60.0) for n in range(4)]
        else:
            schedule += [(5, 0, False, base, 30.0)]
    grants = run_schedule(scheme_cls, schedule)
    assert len(grants) == len(schedule)


class TestNCoSEDChainForwarding:
    def test_long_exclusive_chain_behind_shared_holders(self):
        """Shared holders + a deep exclusive queue exercises the srel
        chain-forwarding path (releases reaching the wrong tail)."""
        cluster = Cluster(n_nodes=10, seed=1)
        manager = NCoSEDManager(cluster, n_locks=1)
        order = []

        def reader(env, client, tag):
            yield client.acquire(0, LockMode.SHARED)
            yield env.timeout(3_000.0)  # hold while exclusives pile up
            yield client.release(0)

        def writer(env, client, tag, delay):
            yield env.timeout(delay)
            yield client.acquire(0, LockMode.EXCLUSIVE)
            order.append(tag)
            yield env.timeout(20.0)
            yield client.release(0)

        procs = []
        for i in (1, 2, 3):
            procs.append(cluster.env.process(
                reader(cluster.env, manager.client(cluster.nodes[i]), i)))
        for j, i in enumerate((4, 5, 6, 7, 8)):
            procs.append(cluster.env.process(
                writer(cluster.env, manager.client(cluster.nodes[i]),
                       i, 100.0 + 50.0 * j)))
        done = cluster.env.all_of(procs)
        cluster.env.run_until_event(done, limit=1e9)
        assert order == [4, 5, 6, 7, 8]  # FIFO through the chain
        cluster.env.run(until=cluster.env.now + 1e5)
        assert manager.raw_word(0) == 0  # word fully retired
