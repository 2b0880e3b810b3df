"""The reaper sweep visits the locks that can need it — same reclaims.

Every reclaim condition (a suspect flag, a dead holder or waiter, an
orphaned tail token, ALock's orphaned tournament flag) needs a prior
attempt on the lock, and ``_acquire`` / ``_release`` note the attempt in
``_active`` before their first verb, so a sweep over the locks that ever
had an active token, a holder or a suspect flag reclaims exactly what
the full table scan did.  The full scan stays here as the reference.
"""

import pytest

from repro.dlm import LockMode, NCoSEDManager
from repro.dlm.ft import EpochFencedManager
from repro.net import Cluster
from repro.scenarios import judged_run


def _full_scan_reaper(self):
    """The sweep as it was: every lock, every period, the quorum test
    inside the loop."""
    while True:
        yield self.env.timeout(self.reap_every_us)
        for lock_id in range(self.n_locks):
            if (getattr(self.detector, "has_quorum", True)
                    and self._should_reclaim(lock_id)):
                self._reclaim(lock_id)


def _reclaims(monkeypatch, scenario, n_nodes, seed, full_scan):
    managers = []
    init = EpochFencedManager.__init__

    def logged_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        managers.append(self)

    with monkeypatch.context() as m:
        m.setattr(EpochFencedManager, "__init__", logged_init)
        if full_scan:
            m.setattr(EpochFencedManager, "_reap_proc", _full_scan_reaper)
        record, _obs = judged_run(scenario, seed, n_nodes)
    return [mgr.reclaims for mgr in managers], record["trace_sha"]


#: scenario -> (node count, seeds); None = the scenario's own size.
#: ``shard`` never reclaims (nothing to find, on either sweep); ``lab``
#: on four racks of four reclaims behind a quorum-gated detector and a
#: sharded home map.
CELLS = {"ncosed-chaos": (None, range(6)), "mcs-chaos": (None, range(6)),
         "alock-chaos": (None, range(6)), "shard": (None, range(6)),
         "lab": (16, range(2))}


@pytest.mark.parametrize("scenario", CELLS)
def test_same_reclaims_as_the_full_scan(monkeypatch, scenario):
    total = 0
    n_nodes, seeds = CELLS[scenario]
    for seed in seeds:
        swept, swept_sha = _reclaims(monkeypatch, scenario, n_nodes, seed,
                                     False)
        full, full_sha = _reclaims(monkeypatch, scenario, n_nodes, seed,
                                   True)
        assert swept == full, seed          # entry for entry, in order
        assert swept_sha == full_sha, seed
        total += sum(len(r) for r in full)
    assert total > 0 or scenario == "shard"


def test_sweep_costs_the_touched_locks_not_the_table(monkeypatch):
    calls = []
    should = EpochFencedManager._should_reclaim
    monkeypatch.setattr(
        EpochFencedManager, "_should_reclaim",
        lambda self, lock_id: calls.append(lock_id) or should(self, lock_id))
    cluster = Cluster(n_nodes=4, seed=0)
    env = cluster.env
    manager = NCoSEDManager(cluster, n_locks=1024, lease_us=100.0)
    touched = [3, 77, 130, 256, 511, 640, 900, 1023]

    def rounds(env, client, locks):
        for lock_id in locks:
            yield client.acquire(lock_id, LockMode.EXCLUSIVE)
            yield env.timeout(5.0)
            yield client.release(lock_id)

    for i in range(2):
        env.process(rounds(env, manager.client(cluster.nodes[i + 1]),
                           touched[4 * i:4 * i + 4]))
    env.run(until=1000.0)
    sweeps = 10                 # one every lease period
    assert sorted(set(calls)) == touched
    assert len(calls) <= len(touched) * sweeps
    # ascending lock order within a sweep, like the scan it replaces
    last = calls[-len(touched):]
    assert last == touched
    assert manager.reclaims == []
