"""Round trips per transaction, pinned (the txn twin of
``tests/dlm/test_verb_counts.py``).

A phase's verbs are independent, so they fly together: an uncontended
commit over k keys still issues 3k verbs, but waits three round trips,
not 3k, and resumes its process once per wait.  Only the 2PL lock
acquires stay one at a time (DESIGN.md §13).
"""

import gc

import pytest

from repro.ddss import DDSS, Coherence
from repro.dlm import NCoSEDManager
from repro.net import Cluster
from repro.sim import Process
from repro.txn import OCCTxnClient, Txn, TwoPLTxnClient, base
from repro.workloads.tpcc import balance, pack_balance

from tests.obs.live import observe_live
from tests.txn.batch import one


def _bump_all(keys):
    """Read every key, write every key."""
    return Txn(reads=tuple(keys), label="bump", compute=lambda vals: {
        k: pack_balance(balance(v) + 1, v) for k, v in vals.items()})


def _rig(k, variant="occ", observe=True):
    """A client on node 0 over k keys homed on nodes 1..k, metadata
    warmed (the init transactions ran through the same store)."""
    cluster = Cluster(n_nodes=k + 1, seed=0)
    obs = observe_live(cluster) if observe else None
    ddss = DDSS(cluster, segment_bytes=64 * 1024)
    store = ddss.client(cluster.nodes[0])
    if variant == "2pl":
        locks = NCoSEDManager(cluster, n_locks=k).client(cluster.nodes[0])
    keys = []

    def setup(env):
        for i in range(k):
            key = yield store.allocate(32, coherence=Coherence.VERSION,
                                       placement=i + 1)
            keys.append(key)
            yield OCCTxnClient(store).init(key, bytes(32))

    cluster.env.run_until_event(cluster.env.process(setup(cluster.env)))
    if variant == "2pl":
        client = TwoPLTxnClient(
            store, locks, lock_of={key: i for i, key in enumerate(keys)})
    else:
        client = OCCTxnClient(store)
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


def _state(proc):
    """Where a suspended process waits: its chain of generator frames
    as ``(function, line)``, outermost first."""
    frames, gen = [], proc._gen
    while gen is not None:
        frames.append((gen.gi_code.co_name, gen.gi_frame.f_lineno))
        gen = gen.gi_yieldfrom
    return tuple(frames)


def _watch(monkeypatch, client, keys):
    """Start the bump transaction with its process's resumes logged:
    returns the process and ``[(instant, state)]``, one entry per
    ``Process._resume`` call, ``state`` being :func:`_state` after the
    resume (None once the process has returned)."""
    log, started = [], []
    real = Process._resume

    def resume(self, event=None):  # the start call passes no event
        real(self, event)
        if self is started[0]:
            log.append((self.env.now,
                        _state(self) if not self.triggered else None))

    monkeypatch.setattr(Process, "_resume", resume)
    started.append(client.run(_bump_all(keys)))
    return started[0], log


def _snapshot_round_trip(cluster, store, key):
    t0 = cluster.env.now
    cluster.env.run_until_event(
        one(cluster.env, store.snapshot_all([key])), limit=1e9)
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
    assert not any(len(client.locks.manager.holders.get(i, ())) for i in range(k))


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("variant", ["occ", "2pl"])
def test_each_wait_resumes_the_process_once(variant, k, monkeypatch):
    """A phase's k verbs settle as one join: OCC resumes three times
    whatever k is; 2PL adds one resume per acquire and one for the
    release of every lock."""
    cluster, _obs, _store, client, keys = _rig(k, variant=variant)
    proc, log = _watch(monkeypatch, client, keys)
    cluster.env.run_until_event(proc, limit=1e9)
    assert proc.value.committed and proc.value.attempts == 1
    resumes = len(log) - 1  # the first resume starts the process
    assert resumes == (3 if variant == "occ" else k + 4)


@pytest.mark.parametrize("variant", ["occ", "2pl"])
def test_untraced_transactions_build_no_trace_payload(variant, monkeypatch):
    """With ``env.obs is None`` no payload fingerprint or pad is ever
    computed."""
    cluster, obs, _store, client, keys = _rig(2, variant=variant,
                                              observe=False)
    assert obs is None and cluster.env.obs is None

    def refuse(*_args):
        raise AssertionError("trace payload built with tracing off")

    monkeypatch.setattr(base, "_fingerprint", refuse)
    monkeypatch.setattr(base.TxnClient, "_pad", refuse)
    ev = client.run(_bump_all(keys))
    cluster.env.run_until_event(ev, limit=1e9)
    assert ev.value.committed


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("variant", ["occ", "2pl"])
def test_attempt_cut_off_at_the_horizon_closes_quietly(variant, monkeypatch):
    """A run that ends mid-attempt leaves a suspended generator for the
    interpreter to close, and a generator being closed must not yield:
    no unwinding, no lock release on ``GeneratorExit``.  A reference
    run lists the transaction's waits; a fresh rig is cut at every
    instant the process suspends and once inside each wait, so every
    state it is ever suspended in is closed at least once."""
    cluster, _obs, _store, client, keys = _rig(3, variant=variant)
    proc, log = _watch(monkeypatch, client, keys)
    cluster.env.run_until_event(proc, limit=1e9)
    monkeypatch.undo()
    waits = [(t, state, resumed)
             for (t, state), (resumed, _) in zip(log, log[1:])]
    cuts = sorted({cut for t, _state_, resumed in waits
                   for cut in (t, (t + resumed) / 2)})
    rigs, covered = [], set()
    for cut in cuts:
        cluster, _obs, _store, client, keys = _rig(3, variant=variant)
        proc = client.run(_bump_all(keys))
        cluster.env.run(until=cut)
        assert not proc.triggered
        covered.add(_state(proc))
        rigs.append(cluster)
    assert covered == {state for _t, state, _r in waits}
    del rigs, cluster, _obs, _store, client, proc
    gc.collect()  # closes every cut-off attempt
