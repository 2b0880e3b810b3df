"""Asymmetric cohort lock: cohort discipline, budget, crash recovery.

Generic manager-contract coverage lives in ``test_lock_managers.py``;
these tests pin the ALock-specific properties — cohort classification,
pass-off runs bounded by the cohort budget, FIFO within a pass-off run,
tournament fairness across cohorts, crash-during-handoff recovery, and
cross-kernel byte identity.
"""

import pytest

from repro.dlm import ALockManager, LockMode
from repro.dlm.alock import COHORT_LOCAL, COHORT_REMOTE
from repro.errors import LockError
from repro.faults import FaultPlan
from repro.net import Cluster
from repro.verify import LockOracle
from repro.verify.trace import TraceView, replay_fresh

from tests.sim.reference_kernel import lab_run, run_check


def _arena(n_clients=12, seed=0, cohort_budget=3, lease_us=None,
           plan=None, horizon=80_000.0, rounds=4):
    cluster = Cluster(n_nodes=5, seed=seed)
    obs = cluster.observe(strict=False)
    if plan is not None:
        cluster.install_faults(plan)
    kw = {"lease_us": lease_us} if lease_us is not None else {}
    manager = ALockManager(cluster, n_locks=2,
                           cohort_budget=cohort_budget, **kw)
    env = cluster.env
    grants = []

    def worker(env, client, tag):
        yield env.timeout(7.0 * tag)
        for r in range(rounds):
            try:
                yield client.acquire(0, LockMode.EXCLUSIVE)
            except LockError:
                return
            grants.append((tag, env.now))
            yield env.timeout(20.0)
            try:
                yield client.release(0)
            except LockError:
                return
            yield env.timeout(150.0)

    for i in range(n_clients):
        # node 0 hosts the locks => its clients form the local cohort
        client = manager.client(cluster.nodes[i % 5])
        env.process(worker(env, client, i), name=f"alock-{i}")
    env.run(until=horizon)
    return obs, manager, grants


class TestCohorts:
    def test_cohort_classification(self):
        cluster = Cluster(n_nodes=3, seed=0)
        manager = ALockManager(cluster, n_locks=2)
        local = manager.client(cluster.nodes[0])
        remote = manager.client(cluster.nodes[1])
        assert manager.cohort_of(local, 0) == COHORT_LOCAL
        assert manager.cohort_of(remote, 0) == COHORT_REMOTE

    def test_budget_must_be_positive(self):
        cluster = Cluster(n_nodes=2, seed=0)
        with pytest.raises(LockError):
            ALockManager(cluster, n_locks=2, cohort_budget=0)


class TestCohortDiscipline:
    def test_pass_off_runs_respect_budget_and_fifo(self):
        obs, manager, grants = _arena(cohort_budget=3)
        assert len(grants) == 48
        gs = obs.trace.select("lock.grant")
        assert gs
        for g in gs:
            assert g.fields["cohort"] in (COHORT_LOCAL, COHORT_REMOTE)
            assert 0 <= g.fields["chain"] < g.fields["budget"] == 3
        # both cohorts actually won tournaments in this workload
        assert {g.fields["cohort"] for g in gs
                if g.fields["chain"] == 0} == {COHORT_LOCAL,
                                               COHORT_REMOTE}
        # the oracle re-derives budget / chain continuity / no-skip
        view = TraceView.from_obs(obs).require_complete()
        _oracles, violations = replay_fresh(view, [LockOracle])
        assert violations == []
        assert obs.violations() == []

    def test_in_budget_passes_happen(self):
        """The cheap pass-off path is actually exercised (chain > 0)."""
        obs, _manager, _grants = _arena(cohort_budget=4)
        chains = [g.fields["chain"]
                  for g in obs.trace.select("lock.grant")]
        assert max(chains) > 0

    def test_budget_one_degenerates_to_pure_tournament(self):
        obs, _manager, grants = _arena(cohort_budget=1, n_clients=8)
        assert grants
        assert all(g.fields["chain"] == 0
                   for g in obs.trace.select("lock.grant"))
        view = TraceView.from_obs(obs).require_complete()
        _oracles, violations = replay_fresh(view, [LockOracle])
        assert violations == []


class TestCrashDuringHandoff:
    def test_crash_forces_reclaim_and_survivors_progress(self):
        plan = FaultPlan().crash(2, at=400.0)
        obs, manager, grants = _arena(
            n_clients=12, cohort_budget=3, lease_us=400.0, plan=plan,
            rounds=6, horizon=150_000.0)
        assert manager.reclaims, "crash never forced an epoch reclaim"
        post = [t for _tag, t in grants if t > 400.0 + 400.0]
        assert len(post) > 10, "survivors starved after the crash"
        view = TraceView.from_obs(obs).require_complete()
        _oracles, violations = replay_fresh(view, [LockOracle])
        assert violations == []
        assert obs.violations() == []


class TestKernels:
    def test_check_green_on_fast_and_slow(self):
        for kernel in ("fast", "slow"):
            out = run_check("alock", seed=0, kernel=kernel)
            assert out["verdict"] == "ok"
            assert out["oracles"]["locks"]["checked"] > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_cross_kernel_trace_identity(self, seed):
        shas = {lab_run("alock", seed, kernel=kernel)["trace_sha"]
                for kernel in ("fast", "slow")}
        assert len(shas) == 1
