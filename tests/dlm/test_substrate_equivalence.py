"""N-CoSED on the shared epoch-fenced substrate: licence and regression.

The ``off`` exclusive and cascade numbers (the Fig. 5 path) were
recorded at the commit before N-CoSED was ported onto
:mod:`repro.dlm.ft` and have not moved since; they are compared
exactly.  PR 14 (guess-first openings: never read a word you are about
to CAS) re-recorded the rest, and collapsed the table: a fault-free
lease no longer costs a verb, so every ``lease600`` latency is asserted
*equal* to the ``off`` one instead of being pinned beside it.

The second part is the reclaim race that rule has to survive: the
reaper bumps the epoch between a client computing its guess and the CAS
landing.  The third is the regression for the ghost-predecessor wedge:
a tail CAS that lands at the home while its completion is fenced by the
home's crash used to leave a token in the word that nobody would ever
hand off from.
"""

import numpy as np
import pytest

from repro.dlm import (ALockManager, LockMode, MCSManager, NCoSEDManager,
                       cascade_latency, uncontended_latency)
from repro.dlm.tournament import lock_tournament
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.net import Cluster
from repro.verify import LockOracle
from repro.verify.trace import TraceView, replay_fresh
from repro.workloads import ZipfGenerator


class LeasedNCoSED(NCoSEDManager):
    """``NCoSEDManager(lease_us=600)`` as a scheme class for the harness."""

    def __init__(self, cluster, **kwargs):
        super().__init__(cluster, lease_us=600.0, **kwargs)


#: mode -> mean acquire+release latency, µs, unrounded
UNCONTENDED = {
    # PR 14: the shared release opens with CAS(sole reader -> free)
    # instead of read-then-CAS (was 24.1222222222221)
    LockMode.SHARED: 15.742222222222065,
    LockMode.EXCLUSIVE: 15.742222222222065,
}

#: mode -> (t_release, last_grant, grant_times) for an 8-waiter cascade
CASCADE = {
    LockMode.SHARED:
        (5007.8711111111115, 5019.811111111113,
         [11.442222222221972, 11.513333333333321, 11.58444444444467,
          11.65555555555602, 11.72666666666737, 11.79777777777872,
          11.86888888889007, 11.940000000001419]),
    LockMode.EXCLUSIVE:
        (5007.8711111111115, 5036.440000000002,
         [3.5711111111113496, 7.142222222222699, 10.713333333334049,
          14.284444444445398, 17.855555555556748, 21.426666666668098,
          24.997777777779447, 28.568888888890797]),
}

#: re-recorded in PR 14 (was 139722.29 op/s, p99 wait 155.72 µs); the
#: 64-client herd drains before the first crash at 3000 µs, so the
#: leased chaos cell now differs only in its fault-plan events
TOURNAMENT = {
    "scheme": "ncosed", "n_clients": 64, "alpha": 1.2, "seed": 0,
    "n_nodes": 8, "n_locks": 16, "grants": 384, "failures": 0,
    "jain": 1.0, "violations": 0, "sim_now_us": 400000.0,
    "chaos": "none", "ops_per_s": 143051.08549672077,
    "makespan_us": 2684.355722758934, "max_wait_us": 128.40952763920382,
    "mean_wait_us": 20.26340475003097, "p99_wait_us": 93.42750639603696,
    "max_chain": 65, "events": 4961,
    "t95_grant_us": 2366.2222657720285, "ops_per_s_t95": 154254.317221088,
    "verdict": "ok",
}


class TestPinnedAtTheForkedParent:
    @pytest.mark.parametrize("mode", list(LockMode))
    def test_uncontended_latency(self, mode):
        assert uncontended_latency(NCoSEDManager, mode) == UNCONTENDED[mode]

    @pytest.mark.parametrize("mode", list(LockMode))
    def test_cascade_latency(self, mode):
        t_release, last_grant, grant_times = CASCADE[mode]
        got = cascade_latency(NCoSEDManager, 8, mode)
        assert got["n_granted"] == 8
        assert got["t_release"] == t_release
        assert got["last_grant"] == last_grant
        assert got["cascade_us"] == grant_times[-1]
        assert got["grant_times"] == grant_times

    def test_tournament_cell(self):
        assert lock_tournament("ncosed", 64, alpha=1.2, chaos="none",
                               seed=0) == TOURNAMENT


class TestAFaultFreeLeaseIsFree:
    @pytest.mark.parametrize("mode", list(LockMode))
    def test_uncontended_latency(self, mode):
        assert uncontended_latency(LeasedNCoSED, mode) == \
            uncontended_latency(NCoSEDManager, mode)

    @pytest.mark.parametrize("mode", list(LockMode))
    def test_cascade_latency(self, mode):
        assert cascade_latency(LeasedNCoSED, 8, mode) == \
            cascade_latency(NCoSEDManager, 8, mode)

    def test_tournament_cell(self):
        # crashes at 3000/5000 µs land after the last grant: only the
        # fault-plan events tell the leased chaos cell from the plain one
        assert lock_tournament("ncosed", 64, alpha=1.2, chaos="crash",
                               seed=0) == dict(TOURNAMENT, chaos="crash",
                                               events=4964)


ARENA = {"ncosed": NCoSEDManager, "mcs": MCSManager, "alock": ALockManager}


# ---------------------------------------------------------------------
# a reclaim between computing the guess and the CAS landing
# ---------------------------------------------------------------------
def acquire_across_reclaim(scheme, reclaim_at_us):
    """One remote client acquires a free leased lock at t=0 and releases
    on grant; the home reclaims the lock ``reclaim_at_us`` later.
    Returns (grant epoch, epoch at the grant instant, enqueue epochs,
    client reads, client atomics, oracle + sanitizer violations)."""
    cluster = Cluster(n_nodes=2, seed=0)
    obs = cluster.observe(sanitize=True, strict=False)
    manager = ARENA[scheme](cluster, n_locks=1, lease_us=600.0)
    client = manager.client(cluster.nodes[1])
    granted = []

    def reaper(env):
        yield env.timeout(reclaim_at_us)
        manager._reclaim(0)

    def main(env):
        yield client.acquire(0)
        granted.append((client._grant_ep[0], manager.lock_epoch(0)))
        yield client.release(0)

    cluster.env.process(reaper(cluster.env))
    cluster.env.process(main(cluster.env))
    cluster.env.run(until=5_000.0)
    assert manager.holder_count(0) == 0
    view = TraceView.from_obs(obs).require_complete()
    _oracles, violations = replay_fresh(view, [LockOracle])
    (grant_ep, ep_then), = granted
    nic = cluster.nodes[1].nic
    return (grant_ep, ep_then,
            [e.fields["ep"] for e in obs.trace.select("lock.enqueue")],
            nic.rdma_reads, nic.atomics, violations + obs.violations())


class TestReclaimRacesTheGuess:
    @pytest.mark.parametrize("scheme", sorted(ARENA))
    def test_a_stale_guess_loses_and_the_returned_epoch_is_adopted(
            self, scheme):
        # the guess embeds epoch 0; the wipe lands first, so the CAS
        # fails, returns the epoch-1 word, and that is the next guess
        _ep, _then, _enq, reads, atomics, _v = acquire_across_reclaim(
            scheme, 10_000.0)  # baseline: no reclaim in the run
        grant_ep, ep_then, enqueued, reads_r, atomics_r, violations = \
            acquire_across_reclaim(scheme, 0.5)
        assert (grant_ep, ep_then) == (1, 1)
        assert enqueued == [1]  # never under the old epoch
        assert (reads, reads_r) == (0, 0)
        assert atomics_r == atomics + 1
        assert violations == []

    @pytest.mark.parametrize("scheme", sorted(ARENA))
    def test_wherever_the_reclaim_lands_the_grant_is_current(self, scheme):
        # sweep the wipe across the whole round: before the tail CAS
        # lands, between landing and completion, (ALock) around the
        # tournament CAS, after the grant, during the release
        for tenth_us in range(5, 300, 10):
            grant_ep, ep_then, _enq, _r, _a, violations = \
                acquire_across_reclaim(scheme, tenth_us / 10)
            assert grant_ep == ep_then, tenth_us
            assert violations == [], tenth_us


# ---------------------------------------------------------------------
# the ghost-predecessor wedge
# ---------------------------------------------------------------------


def drain_under_restarts(scheme, seed, n_clients=16, rounds=128):
    """Closed-loop Zipf(1.2) lock rounds while two homes crash and
    restart; returns (completed rounds, grants still in the ledger)."""
    rng = np.random.default_rng([seed, 1])
    shape = (n_clients, rounds)
    start = rng.uniform(0.0, 2_000.0, n_clients).tolist()
    think = rng.uniform(20.0, 200.0, shape).tolist()
    hold = rng.uniform(2.0, 10.0, shape).tolist()
    shared = (rng.random(shape) < 0.2).tolist()
    lock = ZipfGenerator(16, 1.2, rng).batch(
        n_clients * rounds).reshape(shape).tolist()
    cluster = Cluster(n_nodes=8, seed=0)
    cluster.install_faults(
        FaultPlan().crash(2, at=3000, restart_at=8000)
        .crash(7, at=5000, restart_at=10000))
    manager = ARENA[scheme](cluster, n_locks=16, lease_us=600.0)
    clients = [manager.client(cluster.nodes[i % 8])
               for i in range(n_clients)]
    done = [0]

    def client_proc(env, i):
        yield env.timeout(start[i])
        for r in range(rounds):
            mode = LockMode.SHARED if shared[i][r] else LockMode.EXCLUSIVE
            while True:
                try:
                    yield clients[i].acquire(lock[i][r], mode)
                    yield env.timeout(hold[i][r])
                    yield clients[i].release(lock[i][r])
                except ReproError as exc:
                    assert not str(exc).startswith("SAFETY"), exc
                    yield env.timeout(think[i][r])
                    continue
                break
            done[0] += 1
            yield env.timeout(think[i][r])

    for i in range(n_clients):
        cluster.env.process(client_proc(cluster.env, i))
    cluster.env.run(until=100_000.0)
    return done[0], {k: v for k, v in manager.holders.items() if v}


class TestGhostPredecessor:
    # the three cell-seeds that completed 333, 333 and 345 of 2048
    # rounds before acquire flagged a faulted attempt as suspect
    @pytest.mark.parametrize("scheme,seed", [("ncosed", 2), ("mcs", 2),
                                             ("alock", 3)])
    def test_no_waiter_is_left_behind_a_ghost(self, scheme, seed):
        done, held = drain_under_restarts(scheme, seed)
        assert done == 16 * 128
        assert held == {}
