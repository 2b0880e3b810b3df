"""Deterministic verb counts per lock round, per design.

*Using RDMA for Lock Management* and *ALock* rank designs by round trips
and atomics per acquire/release, and the one-sided designs here follow
one rule: never read a word you are about to CAS — CAS a guess, and let
a failed CAS's return value be the read.  These tables are that rule as
numbers, summed over every NIC in the cluster, so a read that creeps
back onto a lock path fails here by name rather than as a percent on a
benchmark.
"""

import pytest

from repro.dlm import (ALockManager, DQNLManager, LockMode, MCSManager,
                       NCoSEDManager, SRSLManager)
from repro.net import Cluster

MANAGERS = {"ncosed": NCoSEDManager, "mcs": MCSManager,
            "alock": ALockManager, "srsl": SRSLManager,
            "dqnl": DQNLManager}
FENCED = ("ncosed", "mcs", "alock")
LEASES = {"off": {}, "lease600": {"lease_us": 600.0}}

#: short of the first lease expiry, long past any fire-and-forget send
_HORIZON_US = 300.0


def verb_counts(cluster):
    """(rdma_reads, rdma_writes, atomics, sends) over all NICs."""
    return tuple(sum(getattr(node.nic, name) for node in cluster.nodes)
                 for name in ("rdma_reads", "rdma_writes", "atomics",
                              "sends"))


def uncontended_round(scheme, mode, ft_kw):
    cluster = Cluster(n_nodes=2, seed=0)
    manager = MANAGERS[scheme](cluster, n_locks=1, **ft_kw)
    client = manager.client(cluster.nodes[1])  # remote from the home

    def main(env):
        yield client.acquire(0, mode)
        yield client.release(0)

    done = cluster.env.process(main(cluster.env))
    cluster.env.run(until=_HORIZON_US)
    assert done.triggered and done._ok
    assert len(manager.holders.get(0, ())) == 0
    return verb_counts(cluster)


def simultaneous_acquires(scheme, n_clients, ft_kw):
    """``n_clients`` exclusive acquires issued at the same instant on
    one free lock, from distinct non-home nodes; nobody releases."""
    cluster = Cluster(n_nodes=n_clients + 1, seed=0)
    manager = MANAGERS[scheme](cluster, n_locks=1, **ft_kw)
    for i in range(n_clients):
        manager.client(cluster.nodes[i + 1]).acquire(0)
    cluster.env.run(until=_HORIZON_US)
    assert len(manager.holders.get(0, ())) == 1
    return verb_counts(cluster)


#: one acquire + release of a free lock: (reads, writes, atomics, sends)
ROUND = {
    # opening CAS + closing CAS
    ("ncosed", LockMode.EXCLUSIVE): (0, 0, 2, 0),
    # FAA + sole-reader CAS
    ("ncosed", LockMode.SHARED): (0, 0, 2, 0),
    # tail swap + tail close; no reader mode, shared is the same queue
    ("mcs", LockMode.EXCLUSIVE): (0, 0, 2, 0),
    ("mcs", LockMode.SHARED): (0, 0, 2, 0),
    # tail swap, flag raise (poll skipped), flag lower, tail close
    ("alock", LockMode.EXCLUSIVE): (0, 0, 4, 0),
    ("alock", LockMode.SHARED): (0, 0, 4, 0),
    # request, grant, release: three two-sided messages
    ("srsl", LockMode.EXCLUSIVE): (0, 0, 0, 3),
    ("srsl", LockMode.SHARED): (0, 0, 0, 3),
    ("dqnl", LockMode.EXCLUSIVE): (0, 0, 2, 0),
    ("dqnl", LockMode.SHARED): (0, 0, 2, 0),
}


class TestUncontendedRound:
    @pytest.mark.parametrize("scheme,mode", sorted(
        ROUND, key=lambda k: (k[0], k[1].value)))
    def test_exact_table(self, scheme, mode):
        assert uncontended_round(scheme, mode, {}) == ROUND[scheme, mode]

    @pytest.mark.parametrize("mode", list(LockMode))
    @pytest.mark.parametrize("scheme", FENCED)
    def test_a_lease_costs_no_verb(self, scheme, mode):
        assert uncontended_round(scheme, mode, LEASES["lease600"]) == \
            ROUND[scheme, mode]


#: scheme -> atomics after the sole requester's acquire (no race)
_ALONE = {"ncosed": 1, "mcs": 1, "alock": 2}


class TestLostTailRace:
    @pytest.mark.parametrize("lease", sorted(LEASES))
    @pytest.mark.parametrize("scheme", FENCED)
    def test_one_extra_atomic_per_lost_race_and_no_read(self, scheme,
                                                        lease):
        ft_kw = LEASES[lease]
        alone = simultaneous_acquires(scheme, 1, ft_kw)
        assert alone[0] == 0 and alone[2] == _ALONE[scheme]
        # the loser's guess fails once and returns the winner's word
        reads, _writes, atomics, _sends = simultaneous_acquires(
            scheme, 2, ft_kw)
        assert reads == 0
        assert atomics == _ALONE[scheme] + 2
        # three-way: the last one in loses twice, and retries from the
        # returned word each time instead of from a fresh guess
        reads, _writes, atomics, _sends = simultaneous_acquires(
            scheme, 3, ft_kw)
        assert reads == 0
        assert atomics == _ALONE[scheme] + 2 + 3
