"""Multi-key transactions over DDSS one-sided verbs (paper §4.1 + §4.2
composed: the data-sharing substrate supplies versioned units, the
distributed lock manager supplies N-CoSED locks, and this package
layers serializable multi-key read-modify-writes on top).

Two interchangeable concurrency-control protocols behind one API:

* :class:`OCCTxnClient` — optimistic (snapshot, CAS-validate, install).
* :class:`TwoPLTxnClient` — two-phase locking over N-CoSED exclusive
  locks in canonical key order.

Both commit through the same version-word CAS-install protocol, so the
variants are mutually safe on shared keys.  Traces are judged offline
by :class:`repro.verify.TxnOracle`.

Example::

    from repro.net import Cluster
    from repro.ddss import DDSS
    from repro.txn import OCCTxnClient, Txn

    cluster = Cluster(n_nodes=3)
    obs = cluster.observe()
    ddss = DDSS(cluster)
    client = OCCTxnClient(ddss.client(cluster.nodes[1]))

    def app(env, store):
        a = yield store.allocate(32)
        b = yield store.allocate(32)
        yield client.init(a, (100).to_bytes(8, "big"))
        yield client.init(b, (0).to_bytes(8, "big"))
        from repro.workloads.tpcc import transfer_txn
        result = yield client.run(transfer_txn(a, b, 25))
        assert result.committed

    cluster.env.process(app(cluster.env, client.store))
    cluster.env.run()
    obs.check()  # replay the trace through every oracle
"""

from repro.txn.base import Txn, TxnClient, TxnResult
from repro.txn.occ import OCCTxnClient
from repro.txn.scenarios import build_txn_scenario, txn_bench
from repro.txn.tpl import TwoPLTxnClient
from repro.txn.worker import TxnWorker

__all__ = [
    "OCCTxnClient",
    "Txn",
    "TxnClient",
    "TxnResult",
    "TwoPLTxnClient",
    "TxnWorker",
    "build_txn_scenario",
    "txn_bench",
]
