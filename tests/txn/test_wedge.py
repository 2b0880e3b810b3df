"""The publish failure windows: a publish that lands is the commit
point.  With nothing durable a transaction unwinds to a clean abort;
with part of the write set durable it wedges, leaving the unpublished
claims busy so readers conflict instead of observing a torn write
set."""

import pytest

from repro.ddss import DDSS, Coherence
from repro.ddss.substrate import INSTALL_BIT, VERSION_OFF
from repro.errors import DDSSError, TxnConflict
from repro.net import Cluster
from repro.txn import OCCTxnClient, TxnWorker
from repro.verify import TxnOracle, TraceView, replay_fresh
from repro.workloads.tpcc import transfer_txn

from tests.obs.live import observe_live
from tests.txn.batch import one


class FailingStore:
    """Delegates to a real DDSS client, but in ``install_publish_all``
    the chosen keys are never posted and report a failure, for a chosen
    number of batches; their siblings in the batch publish for real."""

    def __init__(self, inner, fail_keys, times=10 ** 9):
        self._inner = inner
        self._fail_keys = set(fail_keys)
        self._times = times

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def install_publish_all(self, installs):
        failing = self._fail_keys if self._times > 0 else set()
        self._times -= 1
        landed = iter((yield from self._inner.install_publish_all(
            [it for it in installs if it[0] not in failing])))
        return [(False, DDSSError(f"injected publish failure for key "
                                  f"{it[0]}"))
                if it[0] in failing else next(landed) for it in installs]


def _rig(observe=False):
    cluster = Cluster(n_nodes=3, seed=0)
    obs = observe_live(cluster) if observe else None
    ddss = DDSS(cluster, segment_bytes=256 * 1024)
    keys = []

    def setup(env):
        store = ddss.client(cluster.nodes[0])
        init = OCCTxnClient(store)
        for i in range(2):
            key = yield store.allocate(32, coherence=Coherence.VERSION,
                                       placement=i)
            keys.append(key)
            r = yield init.init(key, (100).to_bytes(8, "big")
                                + b"\x00" * 24)
            assert r.committed

    cluster.env.run_until_event(
        cluster.env.process(setup(cluster.env), name="setup"))
    return cluster, ddss, obs, keys


def _word(ddss, key):
    meta = ddss._directory[key]
    seg = ddss.segment(meta.home)
    return int.from_bytes(
        seg.read(meta.addr - seg.addr + VERSION_OFF, 8), "big")


class TestCleanAbortWindow:
    def test_failure_before_commit_point_unwinds_and_retries(self):
        cluster, ddss, _obs, keys = _rig()
        store = FailingStore(ddss.client(cluster.nodes[1]),
                             fail_keys=keys, times=1)
        client = OCCTxnClient(store, max_attempts=3)
        ev = client.run(transfer_txn(keys[0], keys[1], 25))
        cluster.env.run_until_event(ev, limit=1e9)
        result = ev.value
        # attempt 1 aborted cleanly, attempt 2 committed
        assert result.committed and result.attempts == 2
        assert client.retries == 1 and client.wedges == 0
        for k in keys:
            assert not _word(ddss, k) & INSTALL_BIT

    def test_exhausted_retries_leave_state_untouched(self):
        cluster, ddss, _obs, keys = _rig()
        store = FailingStore(ddss.client(cluster.nodes[1]),
                             fail_keys=keys)
        client = OCCTxnClient(store, max_attempts=2)
        ev = client.run(transfer_txn(keys[0], keys[1], 25))
        cluster.env.run_until_event(ev, limit=1e9)
        result = ev.value
        assert not result.committed and not result.wedged
        assert client.aborts == 1
        # both units still at the init version, words clean
        assert _word(ddss, keys[0]) == _word(ddss, keys[1]) == 1


class TestWedgeWindow:
    def test_partial_publish_wedges_and_blocks_readers(self):
        cluster, ddss, obs, keys = _rig(observe=True)
        lo, hi = sorted(keys)
        store = FailingStore(ddss.client(cluster.nodes[1]),
                             fail_keys=[hi])
        client = OCCTxnClient(store, max_attempts=4)
        worker = TxnWorker(client)
        worker.add_txn(transfer_txn(lo, hi, 25))
        done = worker.start()
        cluster.env.run_until_event(done, limit=1e9)
        result = worker.results[0]
        assert result.wedged and not result.committed
        assert client.wedges == 1
        # a wedged txn is neither a commit nor a clean abort
        assert client.commits == 0 and client.aborts == 0
        # the published half is durable, the unpublished claim stays busy
        assert _word(ddss, lo) == 2
        assert _word(ddss, hi) & INSTALL_BIT
        # readers of the busy word conflict rather than see torn state
        reader = ddss.client(cluster.nodes[2])
        outcome = {}

        def snap(env):
            try:
                yield one(env, reader.snapshot_all([hi]))
            except TxnConflict as exc:
                outcome["exc"] = exc

        p = cluster.env.process(snap(cluster.env), name="snap")
        cluster.env.run_until_event(p, limit=1e9)
        assert "exc" in outcome
        # the oracle treats the wedge as indeterminate, not a violation
        view = TraceView.from_obs(obs).require_complete()
        oracles, violations = replay_fresh(view, [TxnOracle])
        assert violations == []
        etypes = [ev_.etype for ev_ in view.events]
        assert "txn.wedged" in etypes
        assert oracles[0].checked > 0

    def test_wedged_result_carries_the_durable_keys(self):
        cluster, ddss, _obs, keys = _rig()
        lo, hi = sorted(keys)
        store = FailingStore(ddss.client(cluster.nodes[1]),
                             fail_keys=[hi])
        client = OCCTxnClient(store)
        ev = client.run(transfer_txn(lo, hi, 5))
        cluster.env.run_until_event(ev, limit=1e9)
        assert ev.value.wedged
        assert f"[{lo}] of [{lo}, {hi}]" in ev.value.reason

    def test_lowest_key_failing_beside_a_durable_sibling_wedges(self):
        """Publishes fly together, so the lowest key failing no longer
        means nothing is durable: its sibling landed, and that is a
        commit point (sequential publishes aborted cleanly here)."""
        cluster, ddss, _obs, keys = _rig()
        lo, hi = sorted(keys)
        store = FailingStore(ddss.client(cluster.nodes[1]),
                             fail_keys=[lo])
        client = OCCTxnClient(store)
        ev = client.run(transfer_txn(lo, hi, 5))
        cluster.env.run_until_event(ev, limit=1e9)
        assert ev.value.wedged and ev.value.attempts == 1
        assert f"[{hi}] of [{lo}, {hi}]" in ev.value.reason
        assert _word(ddss, hi) == 2
        assert _word(ddss, lo) == 1 | INSTALL_BIT
