"""Zero cost when off: a run without ``install()`` must execute the
byte-identical event sequence — same simulated timestamps, same
protocol outcomes, same per-subsystem counters — as it always did.

Each workload here runs twice from the same seed, once with
observability installed and once without, and the full fingerprint of
the *simulation* (not the obs data) must match exactly.  Emission sites
cost one attribute load when off, which cannot perturb simulated time.
"""

import pytest

from repro.sim import Environment
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.obs import Observability


def lock_workload(observe: bool):
    from repro.dlm import LockMode, NCoSEDManager

    cluster = Cluster(n_nodes=6, seed=11)
    if observe:
        cluster.observe()
    manager = NCoSEDManager(cluster, n_locks=4)
    env = cluster.env
    clients = [manager.client(n) for n in cluster.nodes]

    def actor(env, c, lock_i, delay, hold, shared):
        mode = LockMode.SHARED if shared else LockMode.EXCLUSIVE
        yield env.timeout(delay)
        yield c.acquire(lock_i, mode)
        yield env.timeout(hold)
        yield c.release(lock_i)

    for i, c in enumerate(clients * 3):
        env.process(actor(env, c, i % 4, 13.0 * i, 29.0, i % 2 == 0),
                    name=f"actor-{i}")
    env.run(until=1e8)
    return {
        "now": env.now,
        "acquires": [c.acquires for c in clients],
        "releases": [c.releases for c in clients],
        "transfers": cluster.fabric.transfers,
        "bytes": cluster.fabric.bytes_moved,
    }


def ddss_workload(observe: bool):
    from repro.ddss import DDSS, Coherence

    cluster = Cluster(n_nodes=4, seed=5)
    if observe:
        cluster.observe()
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    env = cluster.env
    clients = [ddss.client(n) for n in cluster.nodes[1:]]

    def worker(env, client, model):
        key = yield client.allocate(128, coherence=model, placement=0)
        for i in range(5):
            yield client.put(key, bytes([i]) * 64)
            yield client.get(key)

    for i, model in enumerate(Coherence):
        env.process(worker(env, clients[i % 3], model),
                    name=f"w-{model.value}")
    env.run(until=1e8)
    return {
        "now": env.now,
        "gets": [c.gets for c in clients],
        "puts": [c.puts for c in clients],
        "cache_hits": [c.cache_hits for c in clients],
        "transfers": cluster.fabric.transfers,
        "bytes": cluster.fabric.bytes_moved,
    }


def chaos_workload(observe: bool):
    from repro.dlm import LockMode, NCoSEDManager
    from repro.errors import LockError

    plan = (FaultPlan()
            .crash(2, at=2_000.0, restart_at=6_000.0)
            .drop_messages(0.02))
    cluster = Cluster(n_nodes=6, seed=23)
    if observe:
        cluster.observe(strict=False)
    cluster.install_faults(plan)
    manager = NCoSEDManager(cluster, n_locks=3, lease_us=400.0)
    env = cluster.env
    outcomes = []

    def actor(env, c, lock_i, delay, hold):
        yield env.timeout(delay)
        try:
            yield c.acquire(lock_i, LockMode.EXCLUSIVE)
        except LockError:
            outcomes.append("gave-up")
            return
        yield env.timeout(hold)
        try:
            yield c.release(lock_i)
        except LockError:
            pass
        outcomes.append("done")

    for i in range(12):
        c = manager.client(cluster.nodes[i % 6])
        env.process(actor(env, c, i % 3, 400.0 * i, 700.0),
                    name=f"chaos-{i}")
    env.run(until=30_000.0)
    return {
        "now": env.now,
        "outcomes": sorted(outcomes),
        "transfers": cluster.fabric.transfers,
        "bytes": cluster.fabric.bytes_moved,
        "epochs": [manager.lock_epoch(i) for i in range(3)],
    }


class TestZeroOverheadWhenOff:
    def test_obs_defaults_to_none(self):
        assert Environment().obs is None

    def test_lock_workload_identical(self):
        assert lock_workload(False) == lock_workload(True)

    def test_ddss_workload_identical(self):
        assert ddss_workload(False) == ddss_workload(True)

    def test_chaos_workload_identical(self):
        """Fault schedules draw from seeded rng streams; instrumentation
        must not shift a single draw."""
        assert chaos_workload(False) == chaos_workload(True)

    def test_off_run_truly_emits_nothing(self):
        cluster = Cluster(n_nodes=2, seed=1)
        obs = Observability(cluster.env)  # built, never installed: sites
        # guard on env.obs, so nothing fires
        n0 = cluster.nodes[0]
        seg = cluster.nodes[1].memory.register(64, name="seg")

        def app(env):
            yield n0.nic.rdma_write(1, seg.addr, seg.rkey, b"x" * 32)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        assert obs.trace.emitted == 0
        # nor is a fabric.* counter pulled: the transfers happened, yet
        # the export shows none
        assert cluster.fabric.transfers == 2
        assert obs.metrics.to_dict()["counters"] == {}
