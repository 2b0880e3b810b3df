"""Packaged transaction scenarios: checks, benches, and tests share them.

:func:`build_txn_scenario` stands up a cluster, a DDSS substrate, an
N-CoSED lock table (for the 2PL variant), allocates the TPC-C-like key
pools, initializes them through the transactional path, and drives N
workers over a seeded :class:`repro.workloads.TpccMix`.  It returns the
populated observability plus a stats dict (commit/abort tallies and the
account-sum conservation check).

Entry points layered on top:

* the ``txn-occ`` / ``txn-2pl`` / ``txn-mixed`` rows of
  :data:`repro.scenarios.SCENARIOS` (also behind ``repro txn run``).
* :func:`txn_bench` — the ``repro.lab`` sweep entry measuring commit
  throughput and abort rate across contention × variant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ddss.substrate import HEADER_BYTES, VERSION_OFF
from repro.errors import ConfigError

__all__ = ["build_txn_scenario", "unit_state", "account_sum",
           "txn_bench"]

UNIT_BYTES = 32
ACCOUNT_START = 100
STOCK_START = 50


def unit_state(ddss, key: int) -> Tuple[int, bytes]:
    """White-box peek at a unit's (version word, data) on its segment."""
    meta = ddss._directory[key]
    seg = ddss.segment(meta.home)
    off = meta.addr - seg.addr
    word = int.from_bytes(seg.read(off + VERSION_OFF, 8), "big")
    return word, bytes(seg.read(off + HEADER_BYTES, meta.size))


def account_sum(ddss, keys) -> int:
    from repro.workloads.tpcc import balance
    return sum(balance(unit_state(ddss, k)[1]) for k in keys)


def build_txn_scenario(variant: str, seed: int, n_nodes: int,
                       n_keys: int = 4, n_workers: Optional[int] = None,
                       txns_per_worker: int = 5,
                       horizon: float = 300_000.0,
                       p_transfer: float = 0.5,
                       max_attempts: int = 8):
    """Run one transaction scenario; returns ``(obs, stats)``.

    ``variant`` is ``occ``, ``2pl``, or ``mixed`` (workers alternate —
    safe because both protocols commit through the same CAS-install
    word).  ``n_keys`` sizes the account and stock pools: fewer keys =
    hotter keys = more aborts (OCC) or lock waits (2PL).
    """
    from repro.ddss import DDSS, Coherence
    from repro.dlm import NCoSEDManager
    from repro.net import Cluster
    from repro.txn.base import TxnClient
    from repro.txn.occ import OCCTxnClient
    from repro.txn.tpl import TwoPLTxnClient
    from repro.txn.worker import TxnWorker
    from repro.workloads.tpcc import TpccMix, balance

    if variant not in ("occ", "2pl", "mixed"):
        raise ConfigError(f"unknown txn variant {variant!r} "
                          f"(occ|2pl|mixed)")
    if n_keys < 2:
        raise ConfigError(f"n_keys must be >= 2 (a transfer needs two "
                          f"accounts), got {n_keys}")
    n_workers = n_workers or 2 * n_nodes

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    env = cluster.env
    ddss = DDSS(cluster, segment_bytes=256 * 1024)

    n_districts = max(1, n_keys // 4)
    n_units = 2 * n_keys + n_districts
    accounts: List[int] = []
    districts: List[int] = []
    stock: List[int] = []

    def setup(env):
        client = ddss.client(cluster.nodes[0])
        init = OCCTxnClient(client)
        pools = ([(accounts, ACCOUNT_START)] * n_keys
                 + [(districts, 0)] * n_districts
                 + [(stock, STOCK_START)] * n_keys)
        for i, (pool, start) in enumerate(pools):
            key = yield client.allocate(
                UNIT_BYTES, coherence=Coherence.VERSION,
                placement=cluster.nodes[i % n_nodes].id)
            pool.append(key)
            result = yield init.init(
                key, start.to_bytes(8, "big") + b"\x00" * (UNIT_BYTES - 8))
            assert result.committed, "init txn must commit unopposed"

    p = env.process(setup(env), name="txn-setup")
    env.run_until_event(p)

    lock_of = {k: i for i, k in
               enumerate(accounts + districts + stock)}
    manager = None
    if variant in ("2pl", "mixed"):
        manager = NCoSEDManager(cluster, n_locks=len(lock_of))

    def make_client(i: int) -> TxnClient:
        node = cluster.nodes[i % n_nodes]
        store = ddss.client(node)
        use_2pl = (variant == "2pl"
                   or (variant == "mixed" and i % 2 == 1))
        if use_2pl:
            return TwoPLTxnClient(store, manager.client(node),
                                  lock_of=lock_of,
                                  max_attempts=max_attempts)
        return OCCTxnClient(store, max_attempts=max_attempts)

    clients: List[TxnClient] = []
    workers: List[TxnWorker] = []
    for i in range(n_workers):
        client = make_client(i)
        mix = TpccMix(cluster.rng.get(f"txn-mix-{i}"), accounts,
                      districts, stock, p_transfer=p_transfer)
        worker = TxnWorker(client, name=f"txn-worker-{i}")
        for txn in mix.batch(txns_per_worker):
            worker.add_txn(txn)
        worker.start()
        clients.append(client)
        workers.append(worker)
    env.run(until=horizon)

    attempts = sum(r.attempts for w in workers for r in w.results)
    commits = sum(c.commits for c in clients)
    stats = {
        "variant": variant,
        "n_keys": n_keys,
        "n_workers": n_workers,
        "txns": n_workers * txns_per_worker,
        "done": sum(len(w.results) for w in workers),
        # init txns ran through a separate client, so worker counters
        # cover exactly the workload transactions
        "commits": commits,
        "aborts": sum(c.aborts for c in clients),
        "attempt_aborts": sum(c.retries + c.aborts for c in clients),
        "wedges": sum(c.wedges for c in clients),
        "attempts": attempts,
        "abort_rate": (1.0 - commits / attempts) if attempts else 0.0,
        "commit_per_s": commits / (env.now / 1e6) if env.now else 0.0,
        "account_sum": account_sum(ddss, accounts),
        "conserved": (account_sum(ddss, accounts)
                      == ACCOUNT_START * n_keys),
        "sim_now_us": env.now,
    }
    return obs, stats


# -- lab entry -----------------------------------------------------------

def txn_bench(variant: str = "occ", n_keys: int = 8, seed: int = 0,
              n_nodes: int = 4, n_workers: int = 8,
              txns_per_worker: int = 6) -> Dict[str, object]:
    """One (variant × contention) cell for the ``txn`` lab sweep."""
    obs, stats = build_txn_scenario(variant, seed, n_nodes,
                                    n_keys=n_keys, n_workers=n_workers,
                                    txns_per_worker=txns_per_worker)
    del obs  # the bench keys off aggregate outcomes, not the trace
    return stats
