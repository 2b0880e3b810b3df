"""The reaper sweeps the locks with business — same reclaims as a full scan.

Every reclaim condition (a suspect flag, a dead holder or waiter, an
orphaned tail token, ALock's orphaned tournament flag) needs a prior
attempt on the lock, and ``_acquire`` / ``_release`` note the attempt in
``_active`` before their first verb.  A sweep that finds a lock pristine
(home reachable, no holder, no attempt, no suspect flag, every tail 0,
no extra residue) drops it from ``_active`` and ``holders`` until its
next attempt notes it again; a verb of an ended attempt can land late
only with its completion fenced, and that flags the lock suspect.  So
the sweep reclaims exactly what a scan of the whole table did.  The full
scan stays here as the reference.
"""

import ast
import os
import subprocess
import sys

import pytest

from repro.dlm import LockMode, NCoSEDManager
from repro.dlm.ft import EpochFencedManager
from repro.net import Cluster
from repro.scenarios import judged_run

from tests.dlm.test_substrate_equivalence import drain_under_restarts


def _full_scan_reaper(self):
    """The sweep as it was: every lock, every period, the quorum test
    inside the loop."""
    while True:
        yield self.env.timeout(self.lease_us)
        for lock_id in range(self.n_locks):
            if (getattr(self.detector, "has_quorum", True)
                    and self._should_reclaim(lock_id)):
                self._reclaim(lock_id)


def _reclaims(monkeypatch, full_scan, run, *args):
    """``run(*args)`` under the sweep or the full scan: (every manager's
    reclaims, what ``run`` returned)."""
    managers = []
    init = EpochFencedManager.__init__

    def logged_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        managers.append(self)

    with monkeypatch.context() as m:
        m.setattr(EpochFencedManager, "__init__", logged_init)
        if full_scan:
            m.setattr(EpochFencedManager, "_reap_proc", _full_scan_reaper)
        out = run(*args)
    return [mgr.reclaims for mgr in managers], out


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
        swept, (swept_rec, _) = _reclaims(monkeypatch, False, judged_run,
                                          scenario, seed, n_nodes)
        full, (full_rec, _) = _reclaims(monkeypatch, True, judged_run,
                                        scenario, seed, n_nodes)
        assert swept == full, seed          # entry for entry, in order
        assert swept_rec["trace_sha"] == full_rec["trace_sha"], seed
        total += sum(len(r) for r in full)
    assert total > 0 or scenario == "shard"


# the ghost-predecessor rigs: two homes crash and restart under Zipf
# load, and a tail CAS lands at a home while its completion is fenced
@pytest.mark.parametrize("scheme,seed", [("ncosed", 2), ("mcs", 2),
                                         ("alock", 3)])
def test_same_reclaims_when_a_fenced_tail_cas_lands(monkeypatch, scheme,
                                                    seed):
    swept, swept_out = _reclaims(monkeypatch, False, drain_under_restarts,
                                 scheme, seed)
    full, full_out = _reclaims(monkeypatch, True, drain_under_restarts,
                               scheme, seed)
    assert swept == full                    # entry for entry, in order
    assert swept_out == full_out == (16 * 128, {})
    assert sum(len(r) for r in full) > 0


def test_a_pristine_lock_leaves_the_sweep_until_its_next_attempt(
        monkeypatch):
    calls = []
    should = EpochFencedManager._should_reclaim
    monkeypatch.setattr(
        EpochFencedManager, "_should_reclaim",
        lambda self, lock_id: calls.append(lock_id) or should(self, lock_id))
    cluster = Cluster(n_nodes=4, seed=0)
    env = cluster.env
    manager = NCoSEDManager(cluster, n_locks=1024, lease_us=100.0)
    clients = [manager.client(cluster.nodes[i + 1]) for i in range(2)]
    touched = [3, 77, 130, 256, 511, 640, 900, 1023]

    def rounds(env, client, locks, hold_us):
        for lock_id in locks:
            yield client.acquire(lock_id, LockMode.EXCLUSIVE)
            yield env.timeout(hold_us)
            yield client.release(lock_id)

    for i in range(2):
        env.process(rounds(env, clients[i], touched[4 * i:4 * i + 4], 5.0))
    env.run(until=150.0)        # rounds end near 50 us; one sweep at 100
    # that sweep saw each touched lock once, in ascending lock order,
    # pristine, and dropped it
    assert calls == touched
    assert manager._active == {} and manager.holders == {}
    calls.clear()
    env.run(until=1050.0)       # nine more sweeps
    assert calls == []
    # an attempt brings back exactly its lock: held across the sweeps at
    # 1100 and 1200 (not now), seen pristine at 1300, then gone again
    env.process(rounds(env, clients[0], [511], 230.0))
    env.run(until=1550.0)
    assert calls == [511, 511, 511]
    assert manager._active == {} and manager.holders == {}
    assert manager.reclaims == []


#: five shared holders of lock 0 on four nodes, granted in an order
#: unlike their tokens; then one reclaim: prints (grant order, revoke
#: order) as token lists
_RECLAIM_RIG = """
from repro.dlm import LockMode, NCoSEDManager
from repro.net import Cluster
cluster = Cluster(n_nodes=4, seed=0)
env = cluster.env
manager = NCoSEDManager(cluster, n_locks=1, lease_us=600.0)
granted = []
def holder(client, delay):
    yield env.timeout(delay)
    yield client.acquire(0, LockMode.SHARED)
    granted.append(client.token)
for i in range(5):
    env.process(holder(manager.client(cluster.nodes[i % 4]), 3.0 * (4 - i)))
env.run(until=100.0)
manager._reclaim(0)
print((granted, [token for _lock, token in manager._revoked]))
"""


def test_a_reclaim_revokes_in_grant_order_under_any_hash_seed():
    """The revocations (``lock.revoke`` events, ``_revoked``) follow the
    ledger's grant order, not the order of a set hashed per process."""
    env = dict(os.environ)
    docs = set()
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run([sys.executable, "-c", _RECLAIM_RIG],
                             capture_output=True, text=True, env=env,
                             check=True)
        docs.add(out.stdout.strip())
    (doc,) = docs
    granted, revoked = ast.literal_eval(doc)
    assert revoked == granted
    assert granted != sorted(granted)  # grant order is not token order
