"""Round trips per transaction, pinned (the txn twin of
``tests/dlm/test_verb_counts.py``).

A phase's verbs are independent, so they fly together: an uncontended
commit over k keys still issues 3k verbs, but waits three round trips,
not 3k.  Only the 2PL lock acquires stay one at a time (DESIGN.md §13).
"""

import gc

import pytest

from repro.ddss import DDSS, Coherence
from repro.dlm import NCoSEDManager
from repro.net import Cluster
from repro.txn import OCCTxnClient, Txn, TwoPLTxnClient
from repro.workloads.tpcc import balance, pack_balance


def _bump_all(keys):
    """Read every key, write every key."""
    return Txn(reads=tuple(keys), label="bump", compute=lambda vals: {
        k: pack_balance(balance(v) + 1, v) for k, v in vals.items()})


def _rig(k, variant="occ"):
    """A client on node 0 over k keys homed on nodes 1..k, metadata
    warmed (the init transactions ran through the same store)."""
    cluster = Cluster(n_nodes=k + 1, seed=0)
    obs = cluster.observe()
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    store = ddss.client(cluster.nodes[0])
    if variant == "2pl":
        locks = NCoSEDManager(cluster, n_locks=k).client(cluster.nodes[0])
        client = TwoPLTxnClient(store, locks)
    else:
        client = OCCTxnClient(store)
    keys = []

    def setup(env):
        for i in range(k):
            key = yield store.allocate(32, coherence=Coherence.VERSION,
                                       placement=i + 1)
            keys.append(key)
            yield OCCTxnClient(store).init(key, bytes(32))
            if variant == "2pl":
                client.map_lock(key, i)

    cluster.env.run_until_event(cluster.env.process(setup(cluster.env)))
    return cluster, obs, store, client, keys


def _commit(cluster, obs, client, keys):
    """Run one transaction; returns (latency, verb issues as
    ``[(instant, [op, ...])]`` grouped by posting instant)."""
    t0 = cluster.env.now
    ev = client.run(_bump_all(keys))
    cluster.env.run_until_event(ev, limit=1e9)
    assert ev.value.committed and ev.value.attempts == 1
    latency = cluster.env.now - t0
    posted = []
    for e in obs.trace.select("verb.issue", node=0):
        if e.t >= t0:
            if not posted or posted[-1][0] != e.t:
                posted.append((e.t, []))
            posted[-1][1].append(e.fields["op"])
    return latency, posted


def _snapshot_round_trip(cluster, store, key):
    t0 = cluster.env.now
    cluster.env.run_until_event(store.snapshot(key), limit=1e9)
    return cluster.env.now - t0


@pytest.mark.parametrize("k", [1, 2, 4])
def test_occ_commit_is_3k_verbs_in_three_round_trips(k):
    cluster, obs, _store, client, keys = _rig(k)
    _latency, posted = _commit(cluster, obs, client, keys)
    assert [ops for _t, ops in posted] == [
        ["read"] * k, ["cas"] * k, ["write"] * k]


def test_occ_latency_barely_grows_with_the_key_count():
    latency = {}
    for k in (1, 4):
        cluster, obs, store, client, keys = _rig(k)
        latency[k], _posted = _commit(cluster, obs, client, keys)
    round_trip = _snapshot_round_trip(cluster, store, keys[0])
    # sequential phases paid nine more round trips for three more keys
    assert 0 < latency[4] - latency[1] < round_trip


@pytest.mark.parametrize("k", [1, 3])
def test_2pl_acquires_in_turn_then_three_waits_then_releases_together(k):
    cluster, obs, _store, client, keys = _rig(k, variant="2pl")
    _latency, posted = _commit(cluster, obs, client, keys)
    assert [ops for _t, ops in posted] == (
        [["cas"]] * k                      # lock acquires, one at a time
        + [["read"] * k, ["cas"] * k, ["write"] * k]
        + [["cas"] * k])                   # lock releases, one instant
    assert not any(client.locks.manager.holder_count(i) for i in range(k))


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("variant", ["occ", "2pl"])
def test_attempt_cut_off_at_the_horizon_closes_quietly(variant):
    """A run that ends mid-attempt leaves a suspended generator for the
    interpreter to close, and a generator being closed must not yield:
    no unwinding, no lock release on ``GeneratorExit``."""
    for stop_us in range(2, 160, 4):
        cluster, _obs, _store, client, keys = _rig(3, variant=variant)
        ev = client.run(_bump_all(keys))
        cluster.env.run(until=cluster.env.now + stop_us)
        done = ev.triggered
        del cluster, _obs, _store, client, ev
        gc.collect()
    assert done  # the sweep ran past the end of the transaction
