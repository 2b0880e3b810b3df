"""Concurrent-update correctness: N transaction workers over shared
keys, final sums conserved under both OCC and 2PL (the lstore-style
TransactionWorker harness), plus the unit-level protocol contracts the
conservation rests on."""

import pytest

from repro.ddss import DDSS, Coherence
from repro.dlm import NCoSEDManager
from repro.errors import TxnConflict, TxnError
from repro.net import Cluster
from repro.txn import (OCCTxnClient, Txn, TwoPLTxnClient, TxnWorker,
                       build_txn_scenario)
from repro.txn import scenarios as txn_scenarios
from repro.txn.scenarios import ACCOUNT_START, account_sum, unit_state
from repro.workloads.tpcc import balance, new_order_txn, transfer_txn

from tests.txn.batch import one


N_WORKERS = 6
TXNS_PER_WORKER = 5
N_ACCOUNTS = 3  # hot: every transfer collides with somebody


def _rig(n_nodes=4, seed=0, with_locks=False):
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    ddss = DDSS(cluster, segment_bytes=256 * 1024)
    manager = (NCoSEDManager(cluster, n_locks=N_ACCOUNTS)
               if with_locks else None)
    return cluster, ddss, manager


def _setup_accounts(cluster, ddss, n=N_ACCOUNTS, start=ACCOUNT_START):
    keys = []

    def setup(env):
        store = ddss.client(cluster.nodes[0])
        init = OCCTxnClient(store)
        for i in range(n):
            key = yield store.allocate(
                32, coherence=Coherence.VERSION,
                placement=cluster.nodes[i % len(cluster.nodes)].id)
            keys.append(key)
            r = yield init.init(key, start.to_bytes(8, "big")
                                + b"\x00" * 24)
            assert r.committed

    cluster.env.run_until_event(
        cluster.env.process(setup(cluster.env), name="setup"))
    return keys


def _make_client(variant, cluster, ddss, manager, keys, i):
    node = cluster.nodes[i % len(cluster.nodes)]
    store = ddss.client(node)
    if variant == "2pl":
        return TwoPLTxnClient(store, manager.client(node),
                              lock_of={k: j for j, k in enumerate(keys)})
    return OCCTxnClient(store)


@pytest.mark.parametrize("variant", ["occ", "2pl"])
class TestConservation:
    def test_transfers_conserve_total(self, variant):
        cluster, ddss, manager = _rig(with_locks=(variant == "2pl"))
        keys = _setup_accounts(cluster, ddss)
        rng = cluster.rng.get("test-txn")
        workers = []
        for i in range(N_WORKERS):
            client = _make_client(variant, cluster, ddss, manager,
                                  keys, i)
            w = TxnWorker(client, name=f"w{i}")
            for _ in range(TXNS_PER_WORKER):
                a, b = rng.choice(len(keys), size=2, replace=False)
                w.add_txn(transfer_txn(keys[int(a)], keys[int(b)],
                                       int(rng.integers(1, 30))))
            w.start()
            workers.append(w)
        cluster.env.run(until=2_000_000.0)
        # every transaction reached a verdict, none wedged
        assert all(len(w.results) == TXNS_PER_WORKER for w in workers)
        assert all(not r.wedged for w in workers for r in w.results)
        assert account_sum(ddss, keys) == N_ACCOUNTS * ACCOUNT_START

    def test_every_version_word_is_clean_at_rest(self, variant):
        cluster, ddss, manager = _rig(with_locks=(variant == "2pl"))
        keys = _setup_accounts(cluster, ddss)
        client = _make_client(variant, cluster, ddss, manager, keys, 0)
        w = TxnWorker(client)
        w.add_txn(transfer_txn(keys[0], keys[1], 10))
        w.add_txn(transfer_txn(keys[1], keys[2], 5))
        done = w.start()
        cluster.env.run_until_event(done, limit=1e9)
        assert w.client.commits == 2
        for k in keys:
            word, _data = unit_state(ddss, k)
            assert word < (1 << 63), "busy bit must not survive commit"


class TestMixedVariants:
    def test_occ_and_2pl_interleave_safely(self):
        """OCC and 2PL workers race the same keys: both commit through
        the version-word CAS, so the sum still holds."""
        cluster, ddss, manager = _rig(with_locks=True)
        keys = _setup_accounts(cluster, ddss)
        rng = cluster.rng.get("test-mixed")
        workers = []
        for i in range(N_WORKERS):
            variant = "2pl" if i % 2 else "occ"
            client = _make_client(variant, cluster, ddss, manager,
                                  keys, i)
            w = TxnWorker(client, name=f"mix{i}")
            for _ in range(TXNS_PER_WORKER):
                a, b = rng.choice(len(keys), size=2, replace=False)
                w.add_txn(transfer_txn(keys[int(a)], keys[int(b)],
                                       int(rng.integers(1, 30))))
            w.start()
            workers.append(w)
        cluster.env.run(until=2_000_000.0)
        assert sum(w.client.commits for w in workers) > 0
        assert account_sum(ddss, keys) == N_ACCOUNTS * ACCOUNT_START

    def test_scenario_harness_conserves_for_all_variants(self):
        for variant in ("occ", "2pl", "mixed"):
            _obs, stats = build_txn_scenario(variant, seed=3, n_nodes=3,
                                             n_keys=3, n_workers=4,
                                             txns_per_worker=3)
            assert stats["conserved"], (variant, stats)
            assert stats["done"] == stats["txns"]
            assert stats["wedges"] == 0


class TestCommitRate:
    """``commit_per_s`` divided commits by the horizon, so it read 160.0
    at 300 ms and 80.0 at 600 ms for the same 48 commits, and every
    variant read the same offered-load-bound number."""

    @staticmethod
    def stats(variant, n_keys):
        return build_txn_scenario(variant, seed=0, n_nodes=4,
                                  n_keys=n_keys, n_workers=8,
                                  txns_per_worker=6)[1]

    def test_rate_does_not_depend_on_the_horizon(self, monkeypatch):
        short = self.stats("occ", 8)
        assert txn_scenarios.HORIZON_US == 300_000.0
        monkeypatch.setattr(txn_scenarios, "HORIZON_US", 600_000.0)
        long = self.stats("occ", 8)
        assert short["done"] == short["txns"]
        assert short["makespan_us"] < 300_000.0
        assert short["commit_per_s"] == long["commit_per_s"]
        assert short["commit_per_s"] == pytest.approx(
            short["commits"] / (short["makespan_us"] / 1e6))

    def test_rate_tells_the_variants_apart(self):
        occ, tpl = self.stats("occ", 2), self.stats("2pl", 2)
        assert occ["commits"] == tpl["commits"]
        assert occ["commit_per_s"] != tpl["commit_per_s"]


class TestNewOrder:
    def test_new_order_moves_counters_atomically(self):
        cluster, ddss, _ = _rig()
        keys = _setup_accounts(cluster, ddss, n=4, start=50)
        district, items = keys[0], keys[1:]
        client = _make_client("occ", cluster, ddss, None, keys, 0)
        w = TxnWorker(client)
        for _ in range(3):
            w.add_txn(new_order_txn(district, items))
        done = w.start()
        cluster.env.run_until_event(done, limit=1e9)
        assert w.client.commits == 3
        assert balance(unit_state(ddss, district)[1]) == 50 + 3
        for it in items:
            assert balance(unit_state(ddss, it)[1]) == 50 - 3


class TestTxnApi:
    def test_write_outside_read_set_rejected(self):
        cluster, ddss, _ = _rig()
        keys = _setup_accounts(cluster, ddss)
        client = _make_client("occ", cluster, ddss, None, keys, 0)
        bad = Txn(reads=(keys[0],),
                  compute=lambda vals: {keys[1]: b"\x00" * 8},
                  label="bad")
        ev = client.run(bad)
        with pytest.raises(TxnError, match="outside read set"):
            cluster.env.run_until_event(ev, limit=1e9)

    def test_empty_read_set_rejected(self):
        cluster, ddss, _ = _rig()
        _setup_accounts(cluster, ddss)
        client = _make_client("occ", cluster, ddss, None, [], 0)
        ev = client.run(Txn(reads=(), compute=lambda v: {}, label="e"))
        with pytest.raises(TxnError, match="empty read set"):
            cluster.env.run_until_event(ev, limit=1e9)

    def test_2pl_requires_mapped_locks(self):
        cluster, ddss, manager = _rig(with_locks=True)
        keys = _setup_accounts(cluster, ddss)
        node = cluster.nodes[0]
        client = TwoPLTxnClient(ddss.client(node), manager.client(node),
                                lock_of={})
        ev = client.run(transfer_txn(keys[0], keys[1], 1))
        with pytest.raises(TxnError, match="no mapped lock"):
            cluster.env.run_until_event(ev, limit=1e9)

    def test_conflict_burns_one_attempt(self):
        """A key claimed by somebody else forces TxnConflict and the
        bounded retry loop reports the attempts it used."""
        cluster, ddss, _ = _rig()
        keys = _setup_accounts(cluster, ddss)
        store = ddss.client(cluster.nodes[1])
        client = OCCTxnClient(ddss.client(cluster.nodes[2]),
                              max_attempts=2)
        held = {}

        def hold_then_release(env):
            version, _ = yield one(env, store.snapshot_all([keys[0]]))
            yield one(env, store.install_lock_all([(keys[0], version)]))
            held["v"] = version
            yield env.timeout(500.0)  # long enough to defeat attempt 1
            (ok, err), = yield from store.install_abort_all(
                ((keys[0], version),))
            assert ok, err

        cluster.env.process(hold_then_release(cluster.env), name="hold")
        ev = client.run(transfer_txn(keys[0], keys[1], 1))
        cluster.env.run_until_event(ev, limit=1e9)
        result = ev.value
        assert result.committed
        assert result.attempts == 2
        assert client.retries == 1

    def test_snapshot_conflict_after_spin_budget(self):
        """A word left busy past the spin budget surfaces TxnConflict,
        not a hang or a torn read."""
        cluster, ddss, _ = _rig()
        keys = _setup_accounts(cluster, ddss)
        store = ddss.client(cluster.nodes[1])
        reader = ddss.client(cluster.nodes[2])
        outcome = {}

        def wedge(env):
            version, _ = yield one(env, store.snapshot_all([keys[0]]))
            yield one(env, store.install_lock_all([(keys[0], version)]))
            # never released: simulates an installer that died mid-flight

        def snap(env):
            yield env.timeout(50.0)
            try:
                yield one(env, reader.snapshot_all([keys[0]]))
            except TxnConflict as exc:
                outcome["exc"] = exc

        cluster.env.process(wedge(cluster.env), name="wedge")
        p = cluster.env.process(snap(cluster.env), name="snap")
        cluster.env.run_until_event(p, limit=1e9)
        assert "exc" in outcome
