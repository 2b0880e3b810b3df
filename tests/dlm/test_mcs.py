"""RDMA-MCS queue lock: queue/grant order, crash recovery, kernels.

The generic manager contract (mutual exclusion, no starvation, ...) is
covered by the parametrised suite in ``test_lock_managers.py``; these
tests pin down the MCS-specific properties — grant order equals queue
order, a crashed queue member is fenced out by an epoch bump, and the
trace is byte-identical across both simulation kernels.
"""

import pytest

from repro.dlm import LockMode, MCSManager
from repro.errors import LockError
from repro.faults import FaultPlan
from repro.net import Cluster
from repro.scenarios import lab_run, run_check
from repro.verify import LockOracle
from repro.verify.trace import TraceView, replay_fresh


def _contend(n_clients=10, seed=0, lease_us=None, plan=None,
             horizon=60_000.0, rounds=3):
    """n_clients contenders on one lock; returns (obs, manager, grants)."""
    cluster = Cluster(n_nodes=5, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    if plan is not None:
        cluster.install_faults(plan)
    kw = {"lease_us": lease_us} if lease_us is not None else {}
    manager = MCSManager(cluster, n_locks=2, **kw)
    env = cluster.env
    grants = []

    def worker(env, client, tag):
        yield env.timeout(10.0 * tag)
        for r in range(rounds):
            try:
                yield client.acquire(0, LockMode.EXCLUSIVE)
            except LockError:
                return
            grants.append((tag, env.now))
            yield env.timeout(25.0)
            try:
                yield client.release(0)
            except LockError:
                return
            yield env.timeout(200.0)

    for i in range(n_clients):
        client = manager.client(cluster.nodes[1 + i % 4])
        env.process(worker(env, client, i), name=f"mcs-{i}")
    env.run(until=horizon)
    return obs, manager, grants


class TestQueueOrder:
    def test_grant_order_equals_queue_order(self):
        """The oracle's MCS check replays clean on a contended run."""
        obs, manager, grants = _contend()
        assert len(grants) == 30
        view = TraceView.from_obs(obs).require_complete()
        _oracles, violations = replay_fresh(view, [LockOracle])
        assert violations == []
        assert obs.violations() == []

    def test_enqueue_records_predecessor(self):
        obs, _manager, _grants = _contend(n_clients=4)
        enqs = obs.trace.select("lock.enqueue")
        assert enqs
        # at least one contender queued behind a real predecessor
        assert any(e.fields.get("prev", 0) != 0 for e in enqs)


class TestCrashDuringHandoff:
    def test_queue_member_crash_is_fenced_and_survivors_progress(self):
        # node 2 dies while its clients sit in MCS queues; the lease
        # reaper bumps the epoch and the survivors keep getting grants
        plan = FaultPlan().crash(2, at=500.0)
        obs, manager, grants = _contend(
            n_clients=10, lease_us=400.0, plan=plan, rounds=6,
            horizon=120_000.0)
        assert manager.reclaims, "crash never forced an epoch reclaim"
        post = [t for _tag, t in grants if t > 500.0 + 400.0]
        assert len(post) > 10, "survivors starved after the crash"
        view = TraceView.from_obs(obs).require_complete()
        _oracles, violations = replay_fresh(view, [LockOracle])
        assert violations == []
        # no grant was ever issued under a fenced (pre-reclaim) epoch
        reclaim_eps = {e.fields["new_ep"]
                       for e in obs.trace.select("lock.reclaim")}
        assert reclaim_eps, "no reclaim events in the trace"

    def test_acquire_on_dead_home_fails_loudly(self):
        plan = FaultPlan().crash(0, at=100.0)  # the home node
        cluster = Cluster(n_nodes=3, seed=1)
        cluster.install_faults(plan)
        manager = MCSManager(cluster, n_locks=2, lease_us=300.0,
                             max_attempts=3)
        client = manager.client(cluster.nodes[1])
        env = cluster.env
        outcome = []

        def app(env):
            yield env.timeout(200.0)
            try:
                yield client.acquire(0)
            except LockError as exc:
                outcome.append(str(exc))

        env.process(app(env), name="dead-home")
        env.run(until=20_000.0)
        assert outcome and "failed" in outcome[0]


class TestKernels:
    def test_check_green_on_fast_and_slow(self):
        for kernel in ("fast", "slow"):
            out = run_check("mcs", seed=0, kernel=kernel)
            assert out["verdict"] == "ok"
            assert out["oracles"]["locks"]["checked"] > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_cross_kernel_trace_identity(self, seed):
        shas = {lab_run("mcs", seed, kernel=kernel)["trace_sha"]
                for kernel in ("fast", "slow")}
        assert len(shas) == 1
