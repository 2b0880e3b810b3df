"""Chaos tests: fault-tolerant N-CoSED under crashes and message loss.

The acceptance bar (ISSUE): with a seeded schedule of several node
crashes plus background message drop, every acquire either completes or
raises :class:`LockError` (no hung waiters), no two exclusive holders
overlap within one epoch, and a crashed holder's lock is reclaimed
within one reaper period.
"""

import pytest

from repro.errors import LockError
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.dlm import LockMode, NCoSEDManager
from repro.dlm.ft import MAX_ATTEMPTS
from repro.faults.injector import DETECT_US

LEASE_US = 400.0


def build(seed=0, n_nodes=8, n_locks=4, plan=None, **mgr_kw):
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    if plan is not None:
        cluster.install_faults(plan)
    manager = NCoSEDManager(cluster, n_locks=n_locks,
                            lease_us=LEASE_US, **mgr_kw)
    return cluster, manager


def chaos_actor(env, manager, cluster, node_i, lock_i, shared, delay,
                hold, outcomes, tenures):
    """One application thread: acquire, hold, release; never hangs."""
    client = manager.client(cluster.nodes[node_i])
    mode = LockMode.SHARED if shared else LockMode.EXCLUSIVE
    yield env.timeout(delay)
    try:
        yield client.acquire(lock_i, mode)
    except LockError:
        outcomes.append(("gave-up", node_i, lock_i))
        return
    t_grant = env.now
    ep = manager.lock_epoch(lock_i)
    yield env.timeout(hold)
    try:
        yield client.release(lock_i)
    except LockError:
        pass
    outcomes.append(("done", node_i, lock_i))
    tenures.append((lock_i, mode, ep, t_grant, env.now))


def assert_epoch_exclusion(tenures):
    """No two exclusive tenures of one lock overlap within one epoch.

    Overlaps across epochs are legitimate: a lease revocation fences
    the old holder out at the reclaim instant even though its process
    only learns at release time.
    """
    excl = [t for t in tenures if t[1] is LockMode.EXCLUSIVE]
    for i, (lock_a, _, ep_a, s_a, e_a) in enumerate(excl):
        for lock_b, _, ep_b, s_b, e_b in excl[i + 1:]:
            if lock_a != lock_b or ep_a != ep_b:
                continue
            assert e_a <= s_b or e_b <= s_a, (
                f"two exclusive holders of lock {lock_a} in epoch {ep_a}")


class TestChaosSchedule:
    def run_chaos(self, seed):
        """Three crashes (one lock home among them) + 1% message drop."""
        plan = (FaultPlan()
                .crash(2, at=3_000.0, restart_at=9_000.0)
                .crash(5, at=5_000.0, restart_at=12_000.0)
                .crash(6, at=7_000.0)          # stays down
                .drop_messages(0.01))
        cluster, manager = build(seed=seed, plan=plan)
        env = cluster.env
        outcomes, tenures = [], []
        procs = []
        schedule = [
            # (node, lock, shared?, delay, hold) — spread across the
            # crash windows so grants, waits and releases all overlap
            # with failures
            (n, (n + k) % 4, (n + k) % 3 == 0,
             200.0 * k + 37.0 * n, 150.0 + 25.0 * ((n + k) % 5))
            for n in range(8) for k in range(4)
        ]
        for entry in schedule:
            procs.append(env.process(chaos_actor(
                env, manager, cluster, *entry, outcomes, tenures)))
        done = env.all_of(procs)
        env.run_until_event(done, limit=2e6)
        assert done.triggered, "chaos schedule hung"
        # liveness: every actor finished, one way or the other
        assert len(outcomes) == len(schedule)
        return cluster, manager, outcomes, tenures

    def test_liveness_and_epoch_exclusion(self):
        cluster, manager, outcomes, tenures = self.run_chaos(seed=11)
        finished = [o for o in outcomes if o[0] == "done"]
        assert len(finished) >= len(outcomes) // 2, (
            "chaos too destructive: almost nothing completed")
        assert_epoch_exclusion(tenures)
        # quiesce: locks whose home is still alive must drain; node 6
        # is permanently down, so only check locks homed elsewhere
        cluster.env.run(until=cluster.env.now + 50_000.0)
        for lock_id in range(4):
            if manager.home_node(lock_id).id == 6:
                continue
            assert len(manager.holders.get(lock_id, ())) == 0

    def test_same_seed_identical_trace(self):
        _, m1, o1, t1 = self.run_chaos(seed=11)
        _, m2, o2, t2 = self.run_chaos(seed=11)
        assert repr((o1, t1, m1.reclaims)) == repr((o2, t2, m2.reclaims))


class TestReclaim:
    def test_crashed_holder_reclaimed_within_one_period(self):
        """Holder crashes mid-hold: the reaper reclaims next scan."""
        crash_at = 2_000.0
        plan = FaultPlan().crash(3, at=crash_at)
        cluster, manager = build(seed=1, n_nodes=6, n_locks=1, plan=plan)
        env = cluster.env
        lock_home = manager.home_node(0).id
        assert lock_home != 3  # holder != home for this scenario

        holder = manager.client(cluster.nodes[3])
        waiter = manager.client(cluster.nodes[4])
        got = []

        def hold_forever(env):
            yield holder.acquire(0, LockMode.EXCLUSIVE)
            yield env.timeout(1e9)  # crashes before ever releasing

        def want(env):
            yield env.timeout(crash_at + 10.0)
            yield waiter.acquire(0, LockMode.EXCLUSIVE)
            got.append(env.now)
            yield waiter.release(0)

        env.process(hold_forever(env))
        p = env.process(want(env))
        env.run_until_event(p, limit=1e6)
        # reclaim fired within one reaper period of the crash
        assert manager.reclaims, "no reclaim happened"
        t_reclaim, lock_id, new_ep = manager.reclaims[0]
        assert lock_id == 0 and new_ep >= 1
        assert crash_at <= t_reclaim <= crash_at + manager.lease_us
        # and the waiter actually got the lock afterwards
        assert got and got[0] >= t_reclaim

    def test_home_crash_defers_reclaim_until_restart(self):
        """If the lock's *home* is down the word is unreachable; the
        reaper must not fabricate a reclaim it cannot persist."""
        cluster, manager = build(seed=2, n_nodes=4, n_locks=1)
        home_id = manager.home_node(0).id
        holder_node = cluster.nodes[(home_id + 1) % 4]
        # crash the *holder* too, while the home is down
        cluster.install_faults(
            FaultPlan().crash(home_id, at=1_000.0, restart_at=6_000.0)
            .crash(holder_node.id, at=2_000.0))
        env = cluster.env
        holder = manager.client(holder_node)

        def hold(env):
            yield holder.acquire(0, LockMode.EXCLUSIVE)
            yield env.timeout(1e9)

        env.process(hold(env))

        env.run(until=5_000.0)
        assert manager.reclaims == []  # deferred: home unreachable
        env.run(until=10_000.0)
        assert manager.reclaims, "reclaim should fire after home restart"
        assert manager.reclaims[0][0] >= 6_000.0

    def test_crash_during_release_handoff_unblocks_successor(self):
        """Releaser crashes after winning the word but before its xgrant
        reaches the announced successor: the undeliverable hand-off must
        flag the lock for reclaim, or the live successor waits forever.

        (Regression: the dead node's ledger/active records are all gone
        by then, so none of the dead-token reaper rules fire — recovery
        rides on the suspect-lock flag alone.)
        """
        plan = FaultPlan().crash(3, at=1_000.0)
        cluster, manager = build(seed=42, n_nodes=6, n_locks=1, plan=plan)
        env = cluster.env
        assert manager.home_node(0).id != 3

        first = manager.client(cluster.nodes[3])   # crashes mid-release
        second = manager.client(cluster.nodes[4])  # waits on the chain
        got = []

        def holder(env):
            yield first.acquire(0, LockMode.EXCLUSIVE)
            yield env.timeout(1_005.0)  # release just after the crash
            yield first.release(0)

        def waiter(env):
            yield env.timeout(50.0)  # enqueue behind `first`
            yield second.acquire(0, LockMode.EXCLUSIVE)
            got.append(env.now)
            yield second.release(0)

        env.process(holder(env))
        p = env.process(waiter(env))
        env.run_until_event(p, limit=1e6)
        assert got, "successor hung on a lost hand-off"
        assert manager.reclaims and manager.reclaims[0][1] == 0
        assert got[0] >= manager.reclaims[0][0]

    def test_fault_free_ft_mode_never_reclaims(self):
        """Without faults, FT mode must behave exactly like the base
        protocol: all grants FIFO, zero reclaims, word retires to 0."""
        cluster, manager = build(seed=3, n_nodes=6, n_locks=2)
        env = cluster.env
        outcomes, tenures = [], []
        procs = [env.process(chaos_actor(
            env, manager, cluster, n, n % 2, n % 3 == 0,
            50.0 * n, 100.0, outcomes, tenures)) for n in range(6)]
        done = env.all_of(procs)
        env.run_until_event(done, limit=1e6)
        assert done.triggered
        assert all(o[0] == "done" for o in outcomes)
        assert manager.reclaims == []
        env.run(until=env.now + 10_000.0)
        for lock_id in range(2):
            assert len(manager.holders.get(lock_id, ())) == 0
            assert manager.raw_word(lock_id) >> 48 == 0  # epoch never moved


class TestConfig:
    @pytest.mark.parametrize("kwargs,named", [
        ({"lease_us": -1.0}, "lease_us"),
        ({"lease_us": 0}, "lease_us"),
        ({"lease_us": float("inf")}, "lease_us"),
        ({"lease_us": float("nan")}, "lease_us"),
    ])
    def test_ft_parameter_validation(self, kwargs, named):
        cluster = Cluster(n_nodes=2, seed=0)
        with pytest.raises(LockError, match=named):
            NCoSEDManager(cluster, n_locks=1,
                          **{"lease_us": 100.0, **kwargs})

    def test_acquire_budget_follows_the_lease(self):
        """An acquire against a dead home fails after ``MAX_ATTEMPTS``
        attempts, sleeping half a lease per failed attempt (at most
        eight halves) in between: the retry budget is set by the lease
        alone."""
        plan = FaultPlan().crash(0, at=100.0)  # the lock's home
        cluster, manager = build(n_nodes=3, n_locks=1, plan=plan)
        assert manager.home_node(0).id == 0
        client = manager.client(cluster.nodes[1])
        failed = []

        def app(env):
            yield env.timeout(200.0)
            try:
                yield client.acquire(0, LockMode.EXCLUSIVE)
            except LockError as exc:
                failed.append((env.now, str(exc)))

        cluster.env.process(app(cluster.env))
        cluster.env.run(until=100_000.0)
        (t_fail, msg), = failed
        assert f"after {MAX_ATTEMPTS} attempts" in msg
        backoff = sum(LEASE_US / 2 * min(k, 8)
                      for k in range(1, MAX_ATTEMPTS))
        # each attempt itself fails after the NIC's retry budget
        start = 200.0 + backoff
        assert start < t_fail <= start + MAX_ATTEMPTS * (DETECT_US + 1.0)
