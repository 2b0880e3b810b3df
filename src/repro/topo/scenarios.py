"""Packaged topology scenarios: the datacenter lab and its checks.

``build_topo_scenario`` is the flagship: 100+ nodes in 4+ racks behind
oversubscribed ToR uplinks, both sharded namespaces (lock ring + DDSS
directory ring) serving a RUBiS-style session load north of a million
sessions, with a **rebalance-during-load** chaos fault — one member
crashes mid-run (ring eviction, lock rehome, unit migration) and later
restarts (ring re-admission) while the load keeps coming.  The trace
carries an ``ha.expect`` failover assertion derived from the schedule,
so the HA oracle judges recovery liveness and the lock/DDSS oracles
judge safety.

Sessions are driven in *batches*: each node's frontend models a
threaded web tier (``threads`` concurrent workers), so one batch of
``k`` sessions charges ``k * mean_cpu_us / threads`` of wall CPU —
the per-session arithmetic stays honest while the event count stays
bounded at datacenter scale.  Each batch also runs a traced sharded
lock round and a DDSS put/get, so the oracles see real cross-rack
protocol traffic, not just CPU burn.

``shard_check`` is the deterministic little sibling for the metamorphic
suite: no faults, but a timed mid-run ``migrate_off``/``ring_restore``
exercises bounce + tombstone + rebalance identically on every run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import (DDSSError, FaultError, LockError, RdmaError,
                          TimeoutError)

__all__ = ["build_topo_scenario", "shard_check", "topo_lab",
           "measure_verb_latency", "measure_lock_throughput"]

#: faults an actor absorbs: giving up under injected failure is legal
TOLERATED = (LockError, FaultError, RdmaError, DDSSError, TimeoutError)

UNIT_BYTES = 64

#: the flagship fabric: racks behind 4:1 oversubscribed ToR uplinks
RACKS = 4
SPINES = 2
OVERSUB = 4.0
#: the session load: RUBiS sessions per node, driven in batches through
#: each frontend's worker threads
SESSIONS_PER_NODE = 12_500
BATCHES = 10
THREADS = 64
#: sharded namespaces: lock ids and DDSS units
N_LOCKS = 256
N_UNITS = 128
#: the run, and the member crash and restart inside it (µs)
HORIZON_US = 50_000.0
CRASH_AT_US = 12_000.0
RESTART_AT_US = 30_000.0


def build_topo_scenario(seed: int = 0, hosts_per_rack: int = 26):
    """Run the datacenter scenario; returns ``(obs, stats)``."""
    from repro.ddss import Coherence
    from repro.faults import FaultPlan
    from repro.monitor import PhiAccrualDetector, QuorumGate
    from repro.monitor.phi import PERIOD_US
    from repro.reconfig import ReconfigManager, Service
    from repro.shard import ShardedDDSS, ShardedNCoSEDManager
    from repro.topo import TopoCluster
    from repro.workloads.rubis import RubisMix

    cluster = TopoCluster(racks=RACKS, hosts_per_rack=hosts_per_rack,
                          spines=SPINES, oversub=OVERSUB, seed=seed)
    obs = cluster.observe(ring=1 << 20)
    env = cluster.env
    n_nodes = len(cluster.nodes)
    # the victim homes ring slices of both namespaces; keep it off the
    # detector front / reconfig coordinator (node 0)
    victim = cluster.nodes[1 + hosts_per_rack]  # first host of rack 1
    cluster.install_faults(FaultPlan().crash(victim.id, at=CRASH_AT_US,
                                             restart_at=RESTART_AT_US))

    ddss = ShardedDDSS(cluster, segment_bytes=256 * 1024)
    front, backs = cluster.nodes[0], cluster.nodes[1:]
    phi = PhiAccrualDetector(front, backs)
    detector = QuorumGate(phi)
    manager = ShardedNCoSEDManager(cluster, n_locks=N_LOCKS,
                                   lease_us=800.0, detector=detector)
    svc = Service("rubis", cluster.nodes)
    reconfig = ReconfigManager(front, [svc], detector=detector,
                               ddss=ddss)
    # phi confirmation, the gate's one-period hold, two periods of slack
    bound = phi.detect_bound_us() + PERIOD_US + 2.0 * PERIOD_US
    obs.trace.emit("ha.expect", node=-1, kind="failover",
                   victims=[victim.id], after=CRASH_AT_US,
                   by=CRASH_AT_US + bound, start=CRASH_AT_US,
                   until=RESTART_AT_US)

    keys: List[int] = []

    def setup(env):
        client = ddss.client(front)
        for i in range(N_UNITS):
            key = yield client.allocate(UNIT_BYTES,
                                        coherence=Coherence.WRITE)
            yield client.put(key, i.to_bytes(8, "big"))
            keys.append(key)

    env.run_until_event(env.process(setup(env), name="topo-setup"))

    per_batch = SESSIONS_PER_NODE // BATCHES
    mean_cpu = RubisMix(cluster.rng.get("topo-mix")).mean_cpu_us()
    batch_us = per_batch * mean_cpu / THREADS
    served = [0]

    def driver(node, idx, rng):
        store = ddss.client(node)
        locks = manager.client(node)
        yield env.timeout(rng.uniform(0.0, 500.0))
        for b in range(BATCHES):
            yield node.cpu.run(batch_us, name="rubis-batch")
            served[0] += per_batch
            lock_id = int(rng.integers(0, N_LOCKS))
            try:
                yield locks.acquire(lock_id)
                yield env.timeout(5.0)
                yield locks.release(lock_id)
            except TOLERATED:
                pass
            key = keys[int(rng.integers(0, len(keys)))]
            try:
                yield store.put(key, idx.to_bytes(8, "big"))
                yield store.get(key)
            except TOLERATED:
                pass

    for idx, node in enumerate(cluster.nodes):
        env.process(driver(node, idx, cluster.rng.get(f"topo-drv-{idx}")),
                    name=f"topo-driver-{idx}")
    env.run(until=HORIZON_US)

    stats = {
        "seed": seed,
        "nodes": n_nodes,
        "racks": RACKS,
        "spines": SPINES,
        "oversub": OVERSUB,
        "sessions": served[0],
        "sessions_offered": SESSIONS_PER_NODE * n_nodes,
        "xrack_transfers": cluster.fabric.xrack_transfers,
        "xrack_bytes": cluster.fabric.xrack_bytes,
        "lock_rehomes": len(manager.rehomes),
        "ring_rebalances": (len(ddss.dir_map.rebalances)
                            + len(manager.shard_map.rebalances)),
        "units_moved": len(obs.trace.select("ddss.migrate")),
        "evictions": len(reconfig.evictions),
        "sim_now_us": env.now,
    }
    return obs, stats


def shard_check(seed: int, n_nodes: int):
    """Deterministic sharded check for the metamorphic suite.

    Two racks, both sharded services, and a *timed* mid-run rebalance:
    ``migrate_off`` drops a member from the directory ring under load
    (stale clients bounce, tombstoned units re-resolve), then
    ``ring_restore`` re-admits it.  No faults are injected, so the
    reference kernel must produce a byte-identical canonical trace.
    """
    from repro.ddss import Coherence
    from repro.dlm import LockMode
    from repro.shard import ShardedDDSS, ShardedNCoSEDManager
    from repro.topo import TopoCluster

    hosts = max(1, n_nodes // 2)
    cluster = TopoCluster(racks=2, hosts_per_rack=hosts, oversub=2.0,
                          seed=seed)
    obs = cluster.observe()
    env = cluster.env
    ddss = ShardedDDSS(cluster, segment_bytes=64 * 1024)
    manager = ShardedNCoSEDManager(cluster, n_locks=16)
    victim = cluster.nodes[-1]
    keys: List[int] = []

    def setup(env):
        client = ddss.client(cluster.nodes[0])
        for i in range(2 * len(cluster.nodes)):
            key = yield client.allocate(32, coherence=Coherence.WRITE)
            yield client.put(key, i.to_bytes(4, "big"))
            keys.append(key)

    env.run_until_event(env.process(setup(env), name="shard-setup"))

    def rebalancer(env):
        yield env.timeout(6_000.0)
        ddss.migrate_off(victim.id)
        yield env.timeout(8_000.0)
        ddss.ring_restore(victim.id)

    env.process(rebalancer(env), name="shard-rebalancer")

    rng = cluster.rng.get("shard-check")

    def actor(env, node, i, delay):
        store = ddss.client(node)
        locks = manager.client(node)
        # one key per actor, revisited every round: the pre-rebalance
        # rounds populate the client's directory-owner cache, and the
        # post-rebalance rounds must heal it through the bounce path
        key = keys[i % len(keys)]
        yield env.timeout(delay)
        for r in range(4):
            lock_id = (i + r) % manager.n_locks
            mode = (LockMode.SHARED if (i + r) % 3 == 0
                    else LockMode.EXCLUSIVE)
            yield locks.acquire(lock_id, mode)
            yield env.timeout(20.0)
            yield locks.release(lock_id)
            try:
                yield store.put(key, bytes([i % 251, r]) * 4)
                yield store.get(key)
            except DDSSError:
                pass  # mid-migration install window: a legal refusal
            yield env.timeout(float(rng.uniform(2_000.0, 8_000.0)))

    for i in range(2 * len(cluster.nodes)):
        node = cluster.nodes[i % len(cluster.nodes)]
        env.process(actor(env, node, i,
                          float(rng.uniform(0.0, 10_000.0))),
                    name=f"shard-actor-{i}")
    env.run(until=30_000.0)
    return obs


# ----------------------------------------------------------------------
# measurements (deterministic sim-time, reused by bench + lab)
# ----------------------------------------------------------------------

#: the measurement rig: seed, ToR oversubscription, and one pinger's
#: RDMA reads (count and bytes)
MEASURE_SEED = 0
MEASURE_OVERSUB = 4.0
PING_REPS = 32
PING_BYTES = 256
#: the lock-throughput workload: lock ids, and rounds per worker
THROUGHPUT_LOCKS = 64
THROUGHPUT_ROUNDS = 40


def measure_verb_latency() -> Dict[str, float]:
    """Mean RDMA-read RTT intra-rack vs cross-rack (µs)."""
    from repro.topo import TopoCluster

    cluster = TopoCluster(racks=2, hosts_per_rack=4, spines=1,
                          oversub=MEASURE_OVERSUB, seed=MEASURE_SEED)
    env = cluster.env
    src = cluster.nodes[0]
    results: Dict[str, float] = {}
    for label, dst in (("intra_rack_us", cluster.nodes[1]),
                       ("cross_rack_us", cluster.nodes[4])):
        region = dst.memory.register(4_096, name=f"ping@{dst.name}")
        times: List[float] = []

        def pinger(env, dst_id=dst.id, region=region, times=times):
            for _ in range(PING_REPS):
                t0 = env.now
                yield src.nic.rdma_read(dst_id, region.addr,
                                        region.rkey, PING_BYTES)
                times.append(env.now - t0)

        env.run_until_event(env.process(pinger(env), name="pinger"))
        results[label] = round(sum(times) / len(times), 4)
    return results


def measure_lock_throughput() -> Dict[str, float]:
    """Completed acquire/release pairs per sim-second: every lock homed
    on one node vs spread over the shard ring (same 2-rack cluster,
    same workload).

    Workers hold each lock for zero time and never contend logically
    (distinct lock ids), so the measured rate is bounded by the lock
    *homes* — a single home serializes every CAS through one NIC, while
    the ring spreads them across the membership.  The rate divides a
    fixed op count by the completion time, not by a fixed horizon.
    """
    from repro.dlm import NCoSEDManager
    from repro.shard import ShardedNCoSEDManager
    from repro.topo import TopoCluster

    def run(sharded: bool) -> float:
        cluster = TopoCluster(racks=2, hosts_per_rack=4,
                              oversub=MEASURE_OVERSUB, seed=MEASURE_SEED)
        env = cluster.env
        if sharded:
            manager = ShardedNCoSEDManager(cluster,
                                           n_locks=THROUGHPUT_LOCKS)
        else:
            manager = NCoSEDManager(cluster, n_locks=THROUGHPUT_LOCKS,
                                    member_nodes=[cluster.nodes[0]])
        ops = [0]

        def worker(env, node, i):
            client = manager.client(node)
            for r in range(THROUGHPUT_ROUNDS):
                lock_id = (i * THROUGHPUT_ROUNDS + r) % THROUGHPUT_LOCKS
                yield client.acquire(lock_id)
                yield client.release(lock_id)
                ops[0] += 1

        procs = [env.process(worker(env, n, i), name=f"lk-{i}")
                 for i, n in enumerate(cluster.nodes)]
        for p in procs:
            env.run_until_event(p)
        return ops[0] / (env.now / 1e6)

    single = run(False)
    sharded = run(True)
    return {"single_home_ops_per_s": round(single, 1),
            "sharded_ops_per_s": round(sharded, 1),
            "speedup": round(sharded / single, 3) if single else 0.0}


def topo_lab(racks: int = 2, oversub: float = 1.0,
             seed: int = 0) -> Dict[str, float]:
    """One 16-node lab grid point: cross-rack cost at a topology."""
    from repro.topo import TopoCluster

    hosts = 16 // racks
    cluster = TopoCluster(racks=racks, hosts_per_rack=hosts,
                          oversub=oversub, seed=seed)
    env = cluster.env

    def blaster(env, src, dst):
        for _ in range(8):
            yield cluster.fabric.transfer(src.id, dst.id, 8_192)

    procs = []
    for i, src in enumerate(cluster.nodes):
        dst = cluster.nodes[(i + hosts) % len(cluster.nodes)]
        procs.append(env.process(blaster(env, src, dst),
                                 name=f"blast-{i}"))
    for p in procs:
        env.run_until_event(p)
    return {
        "racks": racks,
        "oversub": oversub,
        "sim_now_us": round(env.now, 3),
        "xrack_transfers": cluster.fabric.xrack_transfers,
        "xrack_bytes": cluster.fabric.xrack_bytes,
    }
