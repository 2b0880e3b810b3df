"""Chaos schedules re-run with every oracle attached live (tests/obs/live.py).

Mirrors the ``tests/faults`` schedules: crashes, restarts and message
loss against the fault-tolerant lock manager and the DDSS control
plane.  The bar: the protocols survive the chaos *and* every invariant
holds — a live oracle raises at the first violating event, and the
replay behind ``obs.violations()`` adds the end-of-trace checks.
"""

import pytest

from repro.errors import LockError
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.dlm import LockMode, NCoSEDManager

from tests.obs.live import observe_live

LEASE_US = 400.0


def chaos_actor(env, manager, cluster, node_i, lock_i, shared, delay,
                hold, outcomes):
    client = manager.client(cluster.nodes[node_i])
    mode = LockMode.SHARED if shared else LockMode.EXCLUSIVE
    yield env.timeout(delay)
    try:
        yield client.acquire(lock_i, mode)
    except LockError:
        outcomes.append(("gave-up", node_i, lock_i))
        return
    yield env.timeout(hold)
    try:
        yield client.release(lock_i)
    except LockError:
        pass
    outcomes.append(("done", node_i, lock_i))


class TestNcosedChaosSanitized:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crash_schedule_keeps_invariants(self, seed):
        """Three crashes (a lock home among them) + 1% message drop:
        every oracle stays silent for the entire run."""
        plan = (FaultPlan()
                .crash(2, at=3_000.0, restart_at=9_000.0)
                .crash(5, at=5_000.0, restart_at=12_000.0)
                .crash(6, at=7_000.0)          # stays down
                .drop_messages(0.01))
        cluster = Cluster(n_nodes=8, seed=seed)
        obs = observe_live(cluster)
        cluster.install_faults(plan)
        manager = NCoSEDManager(cluster, n_locks=4, lease_us=LEASE_US)
        env = cluster.env
        outcomes = []
        rng = cluster.rng.get("chaos-test")
        procs = []
        for i in range(20):
            procs.append(env.process(
                chaos_actor(env, manager, cluster,
                            i % 8, i % 4, rng.random() < 0.5,
                            rng.uniform(0.0, 8_000.0),
                            rng.uniform(100.0, 2_000.0), outcomes),
                name=f"chaos-{i}"))
        env.run(until=60_000.0)
        assert all(p.triggered for p in procs), "hung actor"
        assert not obs.violations()
        assert obs.trace.emitted > 0

    def test_holder_crash_reclaim_is_clean(self):
        """A crashed exclusive holder's lock is reclaimed; the epoch
        advance and the forced revocation satisfy the lock oracle."""
        plan = FaultPlan().crash(1, at=2_000.0)
        cluster = Cluster(n_nodes=4, seed=7)
        obs = observe_live(cluster)
        cluster.install_faults(plan)
        manager = NCoSEDManager(cluster, n_locks=2, lease_us=LEASE_US)
        env = cluster.env
        holder = manager.client(cluster.nodes[1])
        waiter = manager.client(cluster.nodes[2])

        def hold(env):
            yield holder.acquire(0, LockMode.EXCLUSIVE)
            yield env.timeout(1e9)  # crashed before releasing

        def wait(env):
            yield env.timeout(3_000.0)
            yield waiter.acquire(0, LockMode.EXCLUSIVE)
            yield waiter.release(0)
            return env.now

        env.process(hold(env), name="holder")
        p = env.process(wait(env), name="waiter")
        env.run_until_event(p, limit=1e9)
        assert not obs.violations()
        assert len(obs.trace.select("lock.reclaim")) >= 1
        assert len(obs.trace.select("lock.revoke")) >= 1


class TestRpcChaosSanitized:
    def test_heavy_drop_at_most_once_holds(self):
        """25% loss each way against the DDSS control plane: the re-sends
        and the replays from the servers' reply windows never run a
        request twice, so rpc.execute never repeats a request id and
        the home holds at most one block per allocate issued."""
        from repro.ddss import DDSS
        from repro.errors import TimeoutError

        cluster = Cluster(n_nodes=3, seed=0)
        obs = observe_live(cluster)
        cluster.install_faults(
            FaultPlan().drop_messages(0.25, start=50.0))
        ddss = DDSS(cluster)
        client = ddss.client(cluster.nodes[1])
        keys = []

        def app(env):
            for _ in range(30):
                try:
                    keys.append((yield client.allocate(64, placement=0)))
                except TimeoutError:  # every attempt lost
                    pass

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        assert len(keys) > 20
        assert not obs.violations()
        # the chaos actually exercised the retry machinery
        assert len(obs.trace.select("rpc.retry")) > 0
        dups = obs.trace.select("rpc.dup_request")
        assert dups and len(dups) == sum(
            c.value for name, c in obs.metrics.counters.items()
            if name.startswith("rpc.dup_requests"))
        home = ddss._allocators[0]  # one 80 B block per allocate run
        assert len(keys) <= (home.capacity - home.free_bytes) // 80 <= 30


class TestScenarioChaos:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_packaged_chaos_scenario_is_clean(self, seed):
        from repro.scenarios import judged_run

        obs = judged_run("ncosed-chaos", seed)[1]
        assert not obs.violations()
        assert obs.trace.select("fault.crash")
