"""A verb that fails in the middle of a batch.

Under an attached fault injector every verb is a Process, and a phase
posts k of them before it waits for any: each failure has to reach the
transaction (not crash the run as an unwatched process), and the
transaction has to know which siblings landed.
"""

from repro.ddss import DDSS, Coherence
from repro.ddss.substrate import INSTALL_BIT
from repro.faults import FaultPlan
from repro.net import Cluster
from repro.txn import OCCTxnClient
from repro.txn.scenarios import unit_state
from repro.workloads.tpcc import new_order_txn

#: the home whose verbs fail; keys live on nodes 1, 2, 3, client on 0
FAULTY = 2


def _run(fault_window=None):
    """One 3-key transaction (writes all three) under an injector whose
    plan fails every verb 0 -> FAULTY inside ``fault_window``."""
    cluster = Cluster(n_nodes=4, seed=0)
    obs = cluster.observe()
    plan = FaultPlan()
    if fault_window is not None:
        plan.fail_verbs(1.0, src=0, dst=FAULTY, start=fault_window[0],
                        until=fault_window[1])
    injector = cluster.install_faults(plan)
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    store = ddss.client(cluster.nodes[0])
    keys = []

    def setup(env):
        for home in (1, 2, 3):
            key = yield store.allocate(32, coherence=Coherence.VERSION,
                                       placement=home)
            keys.append(key)
            yield OCCTxnClient(store).init(
                key, (50).to_bytes(8, "big") + bytes(24))

    cluster.env.run_until_event(cluster.env.process(setup(cluster.env)))
    client = OCCTxnClient(store)
    ev = client.run(new_order_txn(keys[0], keys[1:]))
    cluster.env.run(until=10_000.0)
    words = [unit_state(ddss, k)[0] for k in keys]
    return ev.value, client, injector, obs, keys, words


def _instant(etype):
    """When the fault-free run emits ``etype`` for the transaction under
    test: ``txn.read`` is the instant the claims are posted,
    ``txn.validate`` the instant the publishes are."""
    result, _client, _inj, obs, _keys, _words = _run()
    at = [e.t for e in obs.trace.select(etype)
          if e.fields["tid"] == result.tid]
    assert len(set(at)) == 1
    return at[0]


def test_failed_claim_restores_the_landed_claims_and_retries():
    t = _instant("txn.read")
    result, client, injector, _obs, _keys, words = _run((t, t + 0.001))
    assert injector.verbs_failed == 1
    assert result.committed and result.attempts == 2
    assert client.retries == 1 and client.wedges == 0
    assert words == [2, 2, 2]  # init, then the retry's one commit


def test_failed_publish_wedges_on_exactly_the_durable_keys():
    t = _instant("txn.validate")
    result, client, injector, _obs, keys, words = _run((t, t + 0.001))
    assert injector.verbs_failed == 1
    assert result.wedged and not result.committed
    assert client.wedges == 1
    lo, mid, hi = keys
    assert f"[{lo}, {hi}] of [{lo}, {mid}, {hi}]" in result.reason
    assert words == [2, 1 | INSTALL_BIT, 2]
