"""What posting a phase's verbs together must not cost.

*Liveness*: claims posted together have no canonical order to break a
tie, so two transactions that collide retry in lockstep unless the
abort back-off is jittered.  *Ordering*: read-only validation must be
posted strictly after every claim has landed, or two crossing
transactions each validate before the other's claim lands and both
commit (write skew).  DESIGN.md §13 has both arguments.
"""

import pytest

from repro.ddss import DDSS, Coherence
from repro.net import Cluster
from repro.txn import OCCTxnClient, Txn, TxnWorker
from repro.txn.scenarios import account_sum
from repro.verify import TraceView, TxnOracle, replay_fresh
from repro.workloads.tpcc import balance, pack_balance, transfer_txn

from tests.obs.live import observe_live
from tests.txn.batch import one


def _units(cluster, ddss, homes, start):
    """One 32-byte unit per home, holding ``start``."""
    keys = []

    def setup(env):
        store = ddss.client(cluster.nodes[0])
        for home in homes:
            key = yield store.allocate(32, coherence=Coherence.VERSION,
                                       placement=home)
            keys.append(key)
            r = yield OCCTxnClient(store).init(
                key, start.to_bytes(8, "big") + bytes(24))
            assert r.committed

    cluster.env.run_until_event(cluster.env.process(setup(cluster.env)))
    return keys


def test_four_clients_hammering_two_keys_all_make_progress():
    """Every transaction writes both keys.  Without jitter the two
    clients co-located with the homes commit 1 of 20 each."""
    cluster = Cluster(n_nodes=4, seed=0)
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    a, b = _units(cluster, ddss, homes=(0, 1), start=1000)
    workers = []
    for node in cluster.nodes:
        w = TxnWorker(OCCTxnClient(ddss.client(node)),
                      name=f"w{node.id}")
        for i in range(20):
            w.add_txn(transfer_txn(a, b, 1) if i % 2
                      else transfer_txn(b, a, 1))
        w.start()
        workers.append(w)
    cluster.env.run(until=1_000_000.0)
    assert [len(w.results) for w in workers] == [20] * 4
    assert all(w.client.commits >= 18 for w in workers), \
        [w.client.commits for w in workers]
    assert account_sum(ddss, [a, b]) == 2000


def _withdraw(take_from, other):
    """Withdraw 50 from ``take_from`` if the pair keeps at least 70:
    reads both keys, writes one — the write-skew shape."""
    def compute(vals):
        x, y = balance(vals[take_from]), balance(vals[other])
        if x + y - 50 < 70:
            return {}
        return {take_from: pack_balance(x - 50, vals[take_from])}

    return Txn(reads=(take_from, other), compute=compute,
               label="withdraw")


@pytest.mark.parametrize("offset_us", [d / 2 for d in range(-24, 25)])
def test_crossing_withdrawals_are_serializable_and_live(offset_us):
    """x lives on node 0, y on node 1, 60 each; node 1's client
    withdraws from x while node 0's withdraws from y, ``offset_us``
    apart.  Exactly one withdrawal may take effect."""
    cluster = Cluster(n_nodes=2, seed=0)
    obs = observe_live(cluster)
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    x, y = _units(cluster, ddss, homes=(0, 1), start=60)
    results = []

    def actor(env, node, txn, start):
        client = OCCTxnClient(ddss.client(cluster.nodes[node]))
        for key in (x, y):  # warm the metadata cache
            yield one(env, client.store.snapshot_all([key]))
        yield env.timeout(start - env.now)
        results.append((yield client.run(txn)))

    t0 = cluster.env.now + 100.0
    cluster.env.process(actor(cluster.env, 1, _withdraw(x, y), t0))
    cluster.env.process(actor(cluster.env, 0, _withdraw(y, x),
                              t0 + offset_us))
    cluster.env.run(until=100_000.0)
    assert len(results) == 2 and all(r.committed for r in results)
    assert account_sum(ddss, [x, y]) == 70
    view = TraceView.from_obs(obs).require_complete()
    oracles, violations = replay_fresh(view, [TxnOracle])
    assert violations == [] and oracles[0].checked > 0
