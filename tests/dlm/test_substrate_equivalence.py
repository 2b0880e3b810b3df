"""N-CoSED on the shared epoch-fenced substrate: licence and regression.

The pinned numbers were recorded at the commit before N-CoSED was ported
onto :mod:`repro.dlm.ft` (when it still carried its own non-FT and
``_ft`` copies of every protocol method).  They are compared exactly:
the port is a refactor, so not one simulated microsecond may move, with
the lease off *and* on.

The second half is the regression for the ghost-predecessor wedge: a
tail CAS that lands at the home while its completion is fenced by the
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
from repro.workloads import ZipfGenerator


class LeasedNCoSED(NCoSEDManager):
    """``NCoSEDManager(lease_us=600)`` as a scheme class for the harness."""

    def __init__(self, cluster, **kwargs):
        super().__init__(cluster, lease_us=600.0, **kwargs)


SCHEMES = {"off": NCoSEDManager, "lease600": LeasedNCoSED}

#: (configuration, mode) -> mean acquire+release latency, µs, unrounded
UNCONTENDED = {
    ("off", LockMode.SHARED): 24.1222222222221,
    ("off", LockMode.EXCLUSIVE): 15.742222222222065,
    ("lease600", LockMode.SHARED): 24.1222222222221,
    # the lease-fenced exclusive acquire opens with read-then-CAS, the
    # plain one with the paper's optimistic CAS(0 -> me): one verb apart
    ("lease600", LockMode.EXCLUSIVE): 24.122222222222103,
}

_SHARED_GRANTS = [11.442222222221972, 11.513333333333321,
                  11.58444444444467, 11.65555555555602,
                  11.72666666666737, 11.79777777777872,
                  11.86888888889007, 11.940000000001419]
_EXCL_GRANTS = [3.5711111111113496, 7.142222222222699,
                10.713333333334049, 14.284444444445398,
                17.855555555556748, 21.426666666668098,
                24.997777777779447, 28.568888888890797]

#: (configuration, mode) -> (t_release, last_grant, grant_times) for an
#: 8-waiter cascade
CASCADE = {
    ("off", LockMode.SHARED):
        (5007.8711111111115, 5019.811111111113, _SHARED_GRANTS),
    ("off", LockMode.EXCLUSIVE):
        (5007.8711111111115, 5036.440000000002, _EXCL_GRANTS),
    ("lease600", LockMode.SHARED):
        (5016.251111111111, 5028.191111111112, _SHARED_GRANTS),
    ("lease600", LockMode.EXCLUSIVE):
        (5016.251111111111, 5044.8200000000015, _EXCL_GRANTS),
}

_CELL = {"scheme": "ncosed", "n_clients": 64, "alpha": 1.2, "seed": 0,
         "n_nodes": 8, "n_locks": 16, "grants": 384, "failures": 0,
         "jain": 1.0, "violations": 0, "sim_now_us": 400000.0}

TOURNAMENT = {
    "none": dict(
        _CELL, chaos="none", ops_per_s=139722.2904557418,
        makespan_us=2748.3087970250185, max_wait_us=203.80201567532413,
        mean_wait_us=24.86120403127136, p99_wait_us=155.71838928261195,
        max_chain=88, events=5885),
    "crash": dict(
        _CELL, chaos="crash", ops_per_s=138950.97475844805,
        makespan_us=2763.564636142671, max_wait_us=180.53178654738167,
        mean_wait_us=30.000993985518296, p99_wait_us=155.7643393895239,
        max_chain=60, events=6574),
}


class TestPinnedAtTheForkedParent:
    @pytest.mark.parametrize("config,mode", sorted(
        UNCONTENDED, key=lambda k: (k[0], k[1].value)))
    def test_uncontended_latency(self, config, mode):
        assert uncontended_latency(SCHEMES[config], mode) == \
            UNCONTENDED[config, mode]

    @pytest.mark.parametrize("config,mode", sorted(
        CASCADE, key=lambda k: (k[0], k[1].value)))
    def test_cascade_latency(self, config, mode):
        t_release, last_grant, grant_times = CASCADE[config, mode]
        got = cascade_latency(SCHEMES[config], 8, mode)
        assert got["n_granted"] == 8
        assert got["t_release"] == t_release
        assert got["last_grant"] == last_grant
        assert got["cascade_us"] == grant_times[-1]
        assert got["grant_times"] == grant_times

    @pytest.mark.parametrize("chaos", ["none", "crash"])
    def test_tournament_cell(self, chaos):
        assert lock_tournament("ncosed", 64, alpha=1.2, chaos=chaos,
                               seed=0) == TOURNAMENT[chaos]


# ---------------------------------------------------------------------
# the ghost-predecessor wedge
# ---------------------------------------------------------------------
ARENA = {"ncosed": NCoSEDManager, "mcs": MCSManager, "alock": ALockManager}


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
