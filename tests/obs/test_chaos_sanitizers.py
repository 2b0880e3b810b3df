"""Chaos schedules re-run with sanitizers attached (strict mode).

Mirrors the ``tests/faults`` schedules: crashes, restarts and message
loss against the fault-tolerant lock manager and reliable RPC.  The bar:
the protocols survive the chaos *and* every online invariant holds — a
strict sanitizer raises at the first violating event, so a pass means
zero violations across the whole run.
"""

import pytest

from repro.errors import LockError
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.dlm import LockMode, NCoSEDManager

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
        every sanitizer stays silent for the entire run."""
        plan = (FaultPlan()
                .crash(2, at=3_000.0, restart_at=9_000.0)
                .crash(5, at=5_000.0, restart_at=12_000.0)
                .crash(6, at=7_000.0)          # stays down
                .drop_messages(0.01))
        cluster = Cluster(n_nodes=8, seed=seed)
        obs = cluster.observe(strict=True)
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
        assert all(not p.is_alive for p in procs), "hung actor"
        assert obs.clean
        assert obs.trace.emitted > 0

    def test_holder_crash_reclaim_is_clean(self):
        """A crashed exclusive holder's lock is reclaimed; the epoch
        advance and the forced revocation satisfy the sanitizer."""
        plan = FaultPlan().crash(1, at=2_000.0)
        cluster = Cluster(n_nodes=4, seed=7)
        obs = cluster.observe(strict=True)
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
        assert obs.clean
        assert len(obs.trace.select("lock.reclaim")) >= 1
        assert len(obs.trace.select("lock.revoke")) >= 1


class TestRpcChaosSanitized:
    def test_heavy_drop_at_most_once_holds(self):
        """40% loss each way with retries: the dedup cache absorbs the
        re-sends, so rpc.execute never repeats a request id."""
        from repro.transport import RpcClient, RpcServer, TcpEndpoint

        cluster = Cluster(n_nodes=2, seed=0)
        obs = cluster.observe(strict=True)
        cluster.install_faults(
            FaultPlan().drop_messages(0.4, start=50.0))
        served = []

        def handler(req):
            served.append(req)
            return {"echo": req}, 32, 1.0

        server = RpcServer(TcpEndpoint(cluster.nodes[0]), port=9,
                           handler=handler)
        server.start()
        client = RpcClient(TcpEndpoint(cluster.nodes[1]))
        replies = []

        def app(env):
            chan = yield client.open(0, port=9)
            for i in range(30):
                r = yield chan.call(i, size=64, timeout_us=2_000.0,
                                    retries=8)
                replies.append(r)
            return chan

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        assert replies == [{"echo": i} for i in range(30)]
        assert obs.clean
        # the chaos actually exercised the retry machinery
        assert len(obs.trace.select("rpc.retry")) > 0
        assert (len(obs.trace.select("rpc.dup_request"))
                == server.dup_requests)


class TestScenarioChaos:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_packaged_chaos_scenario_is_clean(self, seed):
        from repro.scenarios import judged_run

        obs = judged_run("ncosed-chaos", seed)[1]
        assert obs.clean
        assert obs.trace.select("fault.crash")
