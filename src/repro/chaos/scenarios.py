"""Chaos scenario builders and their HA expectations.

The builders here are named by the one scenario table
(:data:`repro.scenarios.SCENARIOS`), which also carries each one's
sampling space (horizon, fault kinds, fence).  A chaos scenario is a
workload that (a) runs under an arbitrary
sampled fault schedule, (b) never crashes the *driver* on injected
faults (actors absorb ``LockError``/``FaultError`` — giving up is a
legal outcome, dividing the lock is not), and (c) declares, from the
schedule alone, what correct recovery looks like via ``ha.expect``
trace events (:class:`repro.verify.ha.HAOracle`).

``locks`` is the flagship: fault-tolerant N-CoSED with a phi-accrual
detector behind a quorum gate, so a symmetric partition that isolates a
lock home must produce a majority-side rehome within the detection
bound, while a minority-side front must produce *none*.
``locks-nofence`` is the same builder with ``fence=False`` (no quorum
gate) — the packaged split-brain bug that campaigns are expected to
find and shrink.  ``ddss-repl`` exercises replicated coherence under the
same fault classes with no HA choreography (the data oracles carry the
verdict).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.dlm.base import LockMode
from repro.errors import (DDSSError, FaultError, LockError, RdmaError,
                          TimeoutError)

from repro.chaos.space import plan_from_schedule

__all__ = ["build_locks", "build_ddss", "build_txn", "lock_actor",
           "ha_expectations"]

#: detector probe cadence for chaos scenarios (µs)
PERIOD_US = 500.0
TIMEOUT_US = 120.0
#: quorum-gate hold window: one probe period lets a closing partition's
#: deaths be counted together before quorum arithmetic runs
HOLD_US = PERIOD_US
#: phi history warm-up before expectations are judgeable
WARMUP_US = 3_000.0
N_LOCKS = 4
#: run horizons (µs); the table's sampling spaces use the same values
HORIZON_US = 40_000.0
DDSS_HORIZON_US = 30_000.0


# ----------------------------------------------------------------------
# expectations: schedule -> declarative HA assertions (pure function)
# ----------------------------------------------------------------------

def _covers_all(groups: Sequence[Sequence[int]], n_nodes: int) -> bool:
    covered = set()
    for g in groups:
        covered.update(g)
    return covered == set(range(n_nodes))


def ha_expectations(schedule: Sequence[dict], n_nodes: int,
                    n_locks: int, bound_us: float,
                    warmup_us: float = WARMUP_US) -> List[dict]:
    """Derive conservative ``ha.expect`` declarations from a schedule.

    Only *unambiguous* situations produce expectations — a failover
    assertion is emitted only for the chronologically first partition,
    with no overlapping fault that could slow detection or change
    quorum; a no-failover assertion only when no other partition muddies
    the window.  Everything else is left to the safety oracles: a false
    "missing failover" would poison every campaign, while a skipped
    expectation merely checks less.
    """
    quorum = n_nodes // 2 + 1
    parts = [f for f in schedule if f["kind"] == "partition"]
    crashes = [f for f in schedule if f["kind"] == "crash"]
    grays = [f for f in schedule if f["kind"] in ("slow", "stall")]
    crashed = {c["node"] for c in crashes}
    expects: List[dict] = []
    for p in parts:
        if p.get("oneway") or len(p["groups"]) != 2:
            continue
        if not _covers_all(p["groups"], n_nodes):
            continue  # uncut nodes bridge both sides: reachability blurs
        g0, g1 = set(p["groups"][0]), set(p["groups"][1])
        front_side, far = (g0, g1) if 0 in g0 else (g1, g0)
        if 0 not in front_side:
            continue  # pragma: no cover - groups always cover node 0
        start, until = float(p["start"]), float(p["until"])
        others = [q for q in parts if q is not p]
        if len(front_side) >= quorum:
            # failover must happen — judged only in a clean neighbourhood
            if start < warmup_us or until < start + bound_us:
                continue
            if any(float(q["start"]) <= start + bound_us for q in others):
                continue
            if any(float(g["start"]) <= start + bound_us for g in grays):
                continue
            if any(float(c["at"]) <= start + bound_us for c in crashes):
                continue
            victims = sorted(v for v in far
                             if v < n_locks and v not in crashed)
            if victims:
                expects.append({
                    "kind": "failover", "victims": victims,
                    "after": start, "by": start + bound_us,
                    "start": start, "until": until})
        else:
            # front is in the minority: it must not evict the far side
            if any(float(q["start"]) < until
                   and float(q["until"]) > start for q in others):
                continue
            victims = sorted(v for v in far if v not in crashed)
            if victims:
                expects.append({
                    "kind": "no-failover", "victims": victims,
                    "after": start, "by": until,
                    "start": start, "until": until})
    return expects


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def lock_actor(env, client, lock_i, shared, delay, hold, tolerate=()):
    """One acquire/hold/release tenure.  Errors in ``tolerate`` end it
    quietly: giving up under faults is legal; splitting the lock is not."""
    mode = LockMode.SHARED if shared else LockMode.EXCLUSIVE
    yield env.timeout(delay)
    try:
        yield client.acquire(lock_i, mode)
    except tolerate:
        return
    yield env.timeout(hold)
    try:
        yield client.release(lock_i)
    except tolerate:
        pass


def build_locks(seed: int, n_nodes: int, schedule: Sequence[dict],
                fence: bool = True):
    """FT N-CoSED under chaos: phi detector (+ quorum gate) drives
    lock-home failover; actors tolerate bounded-retry failures."""
    from repro.net import Cluster
    from repro.monitor import PhiAccrualDetector, QuorumGate
    from repro.dlm import NCoSEDManager

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    cluster.install_faults(plan_from_schedule(schedule))
    front, backs = cluster.nodes[0], cluster.nodes[1:]
    phi = PhiAccrualDetector(front, backs, period_us=PERIOD_US,
                             timeout_us=TIMEOUT_US)
    detector = QuorumGate(phi, hold_us=HOLD_US) if fence else phi
    manager = NCoSEDManager(cluster, n_locks=N_LOCKS, lease_us=800.0,
                            detector=detector)
    # detection bound for the HA liveness assertions: phi confirmation,
    # plus the gate hold, plus two probe periods of scheduling slack
    bound = (phi.detect_bound_us() + (HOLD_US if fence else 0.0)
             + 2.0 * PERIOD_US)
    for exp in ha_expectations(schedule, n_nodes, N_LOCKS, bound):
        obs.trace.emit("ha.expect", node=-1, **exp)
    env = cluster.env
    rng = cluster.rng.get("chaos-locks")
    for i in range(3 * n_nodes):
        client = manager.client(cluster.nodes[i % n_nodes])
        env.process(lock_actor(env, client, i % N_LOCKS,
                               rng.random() < 0.4,
                               rng.uniform(0.0, 0.8) * HORIZON_US,
                               rng.uniform(500.0, 3_000.0),
                               (LockError, FaultError, RdmaError)),
                    name=f"chaos-lock-{i}")
    env.run(until=HORIZON_US)
    return obs


def build_ddss(seed: int, n_nodes: int, schedule: Sequence[dict],
               fence: bool = True):
    """Replicated DDSS coherence under chaos; data oracles judge."""
    from repro.net import Cluster
    from repro.ddss import DDSS, Coherence

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    cluster.install_faults(plan_from_schedule(schedule))
    ddss = DDSS(cluster, segment_bytes=256 * 1024)
    env = cluster.env
    rng = cluster.rng.get("chaos-ddss")
    tolerated = (DDSSError, FaultError, RdmaError, TimeoutError)

    def owner(env, client, model, replicas, keys_out):
        try:
            key = yield client.allocate(128, coherence=model, placement=0,
                                        delta=2, ttl_us=300.0,
                                        replicas=replicas)
        except tolerated:
            return
        keys_out.append(key)

    def worker(env, client, keys, stamp, delay):
        yield env.timeout(delay)
        if not keys:
            return
        key = keys[0]
        for i in range(1, 6):
            try:
                yield client.put(key, bytes([stamp]) * 96)
                yield client.get(key)
            except tolerated:
                pass
            yield env.timeout(rng.uniform(200.0, 900.0))
            try:
                yield client.get(key)
            except tolerated:
                pass

    models = [Coherence.NULL, Coherence.WRITE, Coherence.DELTA]
    for m_i, model in enumerate(models):
        keys: List[int] = []
        replicas = 1 if model is Coherence.NULL else 0
        opener = ddss.client(cluster.nodes[1 % n_nodes])
        p = env.process(owner(env, opener, model, replicas, keys),
                        name=f"chaos-ddss-alloc-{m_i}")
        env.run_until_event(p)
        for w in range(3):
            node = cluster.nodes[(1 + w) % n_nodes]
            env.process(worker(env, ddss.client(node), keys,
                               16 * (m_i + 1) + w,
                               rng.uniform(0.0, 0.3) * DDSS_HORIZON_US),
                        name=f"chaos-ddss-{m_i}-{w}")
    env.run(until=DDSS_HORIZON_US)
    return obs


def build_txn(seed: int, n_nodes: int, schedule: Sequence[dict],
              fence: bool = True):
    """Multi-key transactions under chaos: transfers over units homed
    on the protected front node (the data path never faults, so every
    outcome is determinate) while the 2PL workers' N-CoSED lock homes
    are spread across faultable nodes — failed acquires must surface
    as clean aborts, never as torn or lost writes.  Judged by the txn
    oracle plus the usual lock/HA choreography."""
    from repro.net import Cluster
    from repro.monitor import PhiAccrualDetector, QuorumGate
    from repro.dlm import NCoSEDManager
    from repro.ddss import DDSS, Coherence
    from repro.txn import OCCTxnClient, TwoPLTxnClient
    from repro.workloads.tpcc import transfer_txn

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    cluster.install_faults(plan_from_schedule(schedule))
    front, backs = cluster.nodes[0], cluster.nodes[1:]
    phi = PhiAccrualDetector(front, backs, period_us=PERIOD_US,
                             timeout_us=TIMEOUT_US)
    detector = QuorumGate(phi, hold_us=HOLD_US) if fence else phi
    manager = NCoSEDManager(cluster, n_locks=N_LOCKS, lease_us=800.0,
                            detector=detector)
    bound = (phi.detect_bound_us() + (HOLD_US if fence else 0.0)
             + 2.0 * PERIOD_US)
    for exp in ha_expectations(schedule, n_nodes, N_LOCKS, bound):
        obs.trace.emit("ha.expect", node=-1, **exp)
    env = cluster.env
    rng = cluster.rng.get("chaos-txn")
    ddss = DDSS(cluster, segment_bytes=256 * 1024)
    accounts: List[int] = []

    def setup(env):
        store = ddss.client(front)
        init = OCCTxnClient(store)
        for _ in range(N_LOCKS):
            key = yield store.allocate(32, coherence=Coherence.VERSION,
                                       placement=front.id)
            accounts.append(key)
            yield init.init(key, (100).to_bytes(8, "big")
                            + b"\x00" * 24)

    env.run_until_event(env.process(setup(env), name="chaos-txn-setup"))
    lock_of = {k: i for i, k in enumerate(accounts)}

    def actor(env, client, delay, n_txns):
        yield env.timeout(delay)
        for _ in range(n_txns):
            i, j = rng.choice(len(accounts), size=2, replace=False)
            txn = transfer_txn(accounts[int(i)], accounts[int(j)],
                               int(rng.integers(1, 20)))
            yield client.run(txn)  # aborts are absorbed into the result
            yield env.timeout(rng.uniform(100.0, 600.0))

    for i in range(2 * n_nodes):
        store = ddss.client(front)
        if i % 2:
            client = TwoPLTxnClient(store, manager.client(front),
                                    lock_of=lock_of, max_attempts=4)
        else:
            client = OCCTxnClient(store, max_attempts=4)
        env.process(actor(env, client, rng.uniform(0.0, 0.7) * HORIZON_US,
                          n_txns=3),
                    name=f"chaos-txn-{i}")
    env.run(until=HORIZON_US)
    return obs
