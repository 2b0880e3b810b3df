"""txn-closed: txn over ddss (+ dlm for 2PL), closed loop to saturation.

8 nodes, ``WORKERS`` closed-loop workers x ``TXNS`` TPC-C-like
transactions (``TpccMix``: transfers and new-orders over account,
district and stock units), each worker issuing its next transaction
when the previous one returns.  Throughput divides by the makespan to
the last completion, so OCC and 2PL capacity separate (an offered-load
bench reports the offered rate for both).

Cells
-----
``occ-hot 2pl-hot``    4 account keys: OCC wastes attempts on aborts,
                       2PL waits on locks.
``occ-cold 2pl-cold``  64 account keys: little conflict.

Both variants of a contention level get the same transactions.
``MAX_ATTEMPTS`` is effectively unbounded (the hot cells funnel every
new-order through one district unit, and with a budget of 64 OCC still
starved a transaction or two per run): every transaction commits,
wasted work shows in ``txn.commits_per_attempt``, and one that still
aborts or wedges counts as failed.

One worker per node: with 16 or 32 the pooled p99 sits among OCC
transactions that starved through several 400 us retry back-offs, and
whether the 99th of them needed one more is a 22 % step that one seed
in seven takes.

op = one committed transaction; latency = run -> result.
"""

from __future__ import annotations

import numpy as np

from repro.ddss import DDSS, Coherence
from repro.dlm import NCoSEDManager
from repro.net import Cluster
from repro.txn import OCCTxnClient, TwoPLTxnClient
from repro.workloads import TpccMix, balance

from perf.harness import Cell, CellResult, CheckFailed, delta, net_counters

NAME = "txn-closed"
LAYER = "txn"
CELLS = ("occ-hot", "2pl-hot", "occ-cold", "2pl-cold")

N_NODES = 8
WORKERS = 8
TXNS = 128
N_KEYS = {"hot": 4, "cold": 64}
MAX_ATTEMPTS = 1000
UNIT_BYTES = 32
ACCOUNT_START = 100
STOCK_START = 50


class TxnCell(Cell):
    def __init__(self, name, seed, rec, workers=WORKERS, txns=TXNS):
        super().__init__()
        self.name = name
        self.rec = rec
        self.variant, heat = name.split("-")
        self.n_keys = N_KEYS[heat]
        self.workers = workers
        self.txns = txns
        self.seed = [seed, 3, list(N_KEYS).index(heat)]

    def build(self):
        self.cluster = Cluster(n_nodes=N_NODES, seed=0)
        env = self.cluster.env
        self.ddss = DDSS(self.cluster, segment_bytes=256 * 1024)
        n_districts = max(1, self.n_keys // 4)
        self.accounts, districts, stock = [], [], []
        pools = ([(self.accounts, ACCOUNT_START)] * self.n_keys
                 + [(districts, 0)] * n_districts
                 + [(stock, STOCK_START)] * self.n_keys)
        env.run_until_event(env.process(self._setup(pools),
                                        name="txn-setup"))
        all_keys = self.accounts + districts + stock
        lock_of = {k: i for i, k in enumerate(all_keys)}
        self.lock_clients = []
        if self.variant == "2pl":
            manager = NCoSEDManager(self.cluster, n_locks=len(lock_of))
        self.clients = []
        self.lat = []
        self.results = []
        self.last_done = 0.0
        starts = []
        for w in range(self.workers):
            node = self.cluster.nodes[w % N_NODES]
            store = self.ddss.client(node)
            if self.variant == "2pl":
                locks = manager.client(node)
                self.lock_clients.append(locks)
                client = TwoPLTxnClient(store, locks, lock_of=lock_of,
                                        max_attempts=MAX_ATTEMPTS)
            else:
                client = OCCTxnClient(store, max_attempts=MAX_ATTEMPTS)
            rng = np.random.default_rng(self.seed + [w])
            batch = TpccMix(rng, self.accounts, districts,
                            stock).batch(self.txns)
            start = float(rng.uniform(0.0, 20.0))
            starts.append(start)
            self.clients.append(client)
            env.process(self._worker(env, client, batch, start),
                        name=f"txn-worker-{w}")
        self.t_first = env.now + min(starts)
        self.c0 = net_counters(self.cluster)

    def _setup(self, pools):
        store = self.ddss.client(self.cluster.nodes[0])
        init = OCCTxnClient(store)
        for i, (pool, start) in enumerate(pools):
            key = yield store.allocate(UNIT_BYTES,
                                       coherence=Coherence.VERSION,
                                       placement=i % N_NODES)
            pool.append(key)
            yield init.init(key, start.to_bytes(8, "big")
                            + bytes(UNIT_BYTES - 8))

    def _worker(self, env, client, batch, start):
        rec = self.rec
        yield env.timeout(start)
        for txn in batch:
            t0 = env.now
            sid = rec.begin("txn", "run", t0) if rec is not None else 0
            result = yield client.run(txn)
            t1 = env.now
            if rec is not None:
                rec.end(sid, t1)
            self.results.append(result)
            if result.committed:
                self.lat.append(t1 - t0)
                self.last_done = t1

    def drain(self):
        self.cluster.env.run()

    def _account_sum(self):
        env = self.cluster.env
        store = self.ddss.client(self.cluster.nodes[0])

        def read_all():
            total = 0
            for key in self.accounts:
                total += balance((yield store.get(key)))
            return total

        return env.run_until_event(env.process(read_all(), name="txn-sum"))

    def finish(self):
        counters = delta(net_counters(self.cluster), self.c0)
        attempted = self.workers * self.txns
        commits = sum(c.commits for c in self.clients)
        aborts = sum(c.aborts + c.wedges for c in self.clients)
        if commits + aborts != attempted or commits != len(self.lat):
            raise CheckFailed(
                "txn-accounting", f"{NAME}.{self.name}: commits {commits} "
                f"+ aborts {aborts} != {attempted} transactions")
        total = self._account_sum()
        if total != ACCOUNT_START * self.n_keys:
            raise CheckFailed(
                "txn-conservation", f"{NAME}.{self.name}: account sum "
                f"{total} != {ACCOUNT_START * self.n_keys}")
        counters["txn.commits"] = commits
        counters["txn.attempts"] = sum(r.attempts for r in self.results)
        counters["dlm.acquires"] = sum(c.acquires for c in self.lock_clients)
        counters["dlm.grants"] = sum(c.releases for c in self.lock_clients)
        return CellResult(
            ops=commits, attempted=attempted, failed=aborts,
            makespan_us=self.last_done - self.t_first,
            latencies=self.lat, counters=counters)


def make_cell(name, seed, rec):
    return TxnCell(name, seed, rec)
