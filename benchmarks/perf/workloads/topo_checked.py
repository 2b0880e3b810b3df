"""topo-checked: the harness layers (obs recording, oracle replay, sha,
export) plus topo/shard/monitor/reconfig/faults.

The benchmark's own version of the rack/spine flagship, scaled to fit a
round: ``RACKS`` x ``HOSTS`` nodes behind 4:1 oversubscribed uplinks,
sharded N-CoSED + sharded DDSS, phi-accrual + quorum detector driving
reconfiguration, one lock-shard home crashing at ``CRASH_US`` and
restarting at ``RESTART_US``, every other node driving ``BATCHES``
RUBiS batches (CPU burn, then a sharded lock round held for a seeded
5-45 us, then a DDSS put and get).

Departures from the packaged scenario, all so that no operation fails
and the simulated results are steady from seed to seed:

* The victim hosts no driver and is not a DDSS member.  DDSS has no
  recovery for an op cut off mid-flight (a put that dies holding the
  unit's lock word, a directory request whose reply is lost), so a
  crash touching it wedges whoever comes next.
* The crash lands while the units are still being set up, so
  detection, eviction and lock rehoming run during the drivers' first
  CPU burn and no lock round meets a dead home.  With the crash
  mid-load one to seven rounds per run stalled for 1.3 or 2.5 ms, and
  whether any did moved throughput by 12 % and p99 by 2x from one seed
  to the next.  The restart and ring re-admission are mid-load.
* 1024 locks: at 256 the rare two-drivers-one-lock collisions decided
  p99.
* An op that raises is retried after ``RETRY_US``; a failed op is one
  that did not complete by the horizon.

Cells
-----
``lab``       obs on with sanitizers; after the run the trace is
              replayed through every oracle, hashed and exported — all
              inside the timed region, each phase timed separately.
``lab-bare``  same driver, obs off: the difference is the recording
              overhead.

op = one driver operation (batch, lock round, put, get); latency = one
lock round, request -> release acknowledged, hold included (request ->
grant alone is the same constant for every uncontended acquire).
"""

from __future__ import annotations

import time

from repro.ddss import Coherence
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.monitor import PhiAccrualDetector, QuorumGate
from repro.reconfig import ReconfigManager, Service
from repro.shard import ShardedDDSS, ShardedNCoSEDManager
from repro.topo import TopoCluster
from repro.verify import (ALL_ORACLES, TraceView, canonical_trace_sha,
                          replay_fresh)
from repro.workloads import RubisMix

from perf.harness import Cell, CellResult, CheckFailed, delta, net_counters

NAME = "topo-checked"
LAYER = "topo"
CELLS = ("lab", "lab-bare")

RACKS = 4
HOSTS = 13
BATCHES = 10
SESSIONS_PER_NODE = 5_000
THREADS = 64
N_LOCKS = 1024
HOLD_US = (5.0, 45.0)
N_UNITS = 64
UNIT_BYTES = 64
HORIZON_US = 26_000.0
CRASH_US = 4_000.0
RESTART_US = 14_000.0
RETRY_US = 200.0
PERIOD_US = 500.0
TIMEOUT_US = 120.0
QUORUM_HOLD_US = PERIOD_US


class TopoCell(Cell):
    def __init__(self, name, seed, rec, racks=RACKS, hosts=HOSTS,
                 batches=BATCHES, horizon_us=HORIZON_US,
                 crash_us=CRASH_US, restart_us=RESTART_US):
        super().__init__()
        self.name = name
        self.rec = rec
        self.seed = seed
        self.racks, self.hosts, self.batches = racks, hosts, batches
        self.horizon_us = horizon_us
        self.crash_us, self.restart_us = crash_us, restart_us

    def build(self):
        cluster = self.cluster = TopoCluster(
            racks=self.racks, hosts_per_rack=self.hosts, spines=2,
            oversub=4.0, seed=self.seed)
        env = cluster.env
        self.obs = (cluster.observe(sanitize=True, strict=False,
                                    ring=1 << 20)
                    if self.name == "lab" else None)
        # the victim homes ring slices of both namespaces; node 0 is the
        # detector front and reconfiguration coordinator
        victim = cluster.nodes[1 + self.hosts]
        cluster.install_faults(FaultPlan().crash(
            victim.id, at=self.crash_us, restart_at=self.restart_us))
        self.drivers = [n for n in cluster.nodes if n is not victim]
        self.ddss = ShardedDDSS(cluster, member_nodes=self.drivers,
                                segment_bytes=256 * 1024)
        front, backs = cluster.nodes[0], cluster.nodes[1:]
        phi = PhiAccrualDetector(front, backs, period_us=PERIOD_US,
                                 timeout_us=TIMEOUT_US)
        detector = QuorumGate(phi, hold_us=QUORUM_HOLD_US)
        self.manager = ShardedNCoSEDManager(
            cluster, n_locks=N_LOCKS, lease_us=800.0, detector=detector)
        self.reconfig = ReconfigManager(
            front, [Service("rubis", cluster.nodes)], detector=detector,
            ddss=self.ddss)
        if self.obs is not None:
            bound = phi.detect_bound_us() + QUORUM_HOLD_US + 2.0 * PERIOD_US
            self.obs.trace.emit(
                "ha.expect", node=-1, kind="failover", victims=[victim.id],
                after=self.crash_us, by=self.crash_us + bound,
                start=self.crash_us, until=self.restart_us)
        self.keys = []
        env.run_until_event(env.process(self._setup(front),
                                        name="topo-setup"))
        self.per_batch = SESSIONS_PER_NODE // self.batches
        mean_cpu = RubisMix(cluster.rng.get("topo-mix")).mean_cpu_us()
        self.batch_us = self.per_batch * mean_cpu / THREADS
        self.served = 0
        self.done = 0
        self.raised = 0
        self.last_done = 0.0
        self.lat = []
        self.bad = []
        self.stores, self.lockers = [], []
        for idx, node in enumerate(self.drivers):
            rng = cluster.rng.get(f"topo-drv-{idx}")
            start = float(rng.uniform(0.0, 500.0))
            draws = [(int(rng.integers(0, N_LOCKS)),
                      float(rng.uniform(*HOLD_US)),
                      int(rng.integers(0, len(self.keys))))
                     for _ in range(self.batches)]
            env.process(self._driver(env, node, idx, start, draws),
                        name=f"topo-driver-{idx}")
        self.t_first = env.now
        self.c0 = net_counters(cluster)

    def _setup(self, front):
        client = self.ddss.client(front)
        for i in range(N_UNITS):
            key = yield client.allocate(UNIT_BYTES,
                                        coherence=Coherence.WRITE)
            yield client.put(key, i.to_bytes(8, "big"))
            self.keys.append(key)

    def _retry(self, env, make_event):
        """Issue ``make_event()`` until it completes without raising."""
        while True:
            try:
                return (yield make_event())
            except ReproError:
                self.raised += 1
                yield env.timeout(RETRY_US)

    def _driver(self, env, node, idx, start, draws):
        store = self.ddss.client(node)
        locks = self.manager.client(node)
        self.stores.append(store)
        self.lockers.append(locks)
        rec = self.rec
        word = idx.to_bytes(8, "big")
        n_nodes = len(self.cluster.nodes)
        yield env.timeout(start)
        for lock_id, hold, k in draws:
            bid = rec.begin("topo", "batch", env.now) if rec is not None else 0
            yield node.cpu.run(self.batch_us, name="rubis-batch")
            self.served += self.per_batch
            self.done += 1
            t0 = env.now
            sid = (rec.begin("shard", "lock-round", t0, bid)
                   if rec is not None else 0)
            yield from self._retry(env, lambda: locks.acquire(lock_id))
            yield env.timeout(hold)
            yield from self._retry(env, lambda: locks.release(lock_id))
            self.lat.append(env.now - t0)
            if rec is not None:
                rec.end(sid, env.now)
                sid = rec.begin("ddss", "put", env.now, bid)
            key = self.keys[k]
            yield from self._retry(env, lambda: store.put(key, word))
            if rec is not None:
                rec.end(sid, env.now)
                sid = rec.begin("ddss", "get", env.now, bid)
            data = yield from self._retry(env, lambda: store.get(key))
            value = int.from_bytes(data[:8], "big")
            if value != k and value >= n_nodes:
                self.bad.append((idx, k, value))
            if rec is not None:
                rec.end(sid, env.now)
                rec.end(bid, env.now)
            self.done += 3
            self.last_done = env.now

    def _phase(self, name, fn):
        rec, env = self.rec, self.cluster.env
        sid = rec.begin(LAYER, name, env.now) if rec is not None else 0
        t0 = time.process_time()
        out = fn()
        self.phases[name] = time.process_time() - t0
        if rec is not None:
            rec.end(sid, env.now)
        return out

    def drain(self):
        self._phase("run", lambda: self.cluster.env.run(
            until=self.horizon_us))
        if self.obs is None:
            return
        obs = self.obs
        self.view = TraceView.from_obs(obs)
        self.violations = self._phase(
            "replay", lambda: replay_fresh(self.view, ALL_ORACLES)[1]
            if self.view.complete else [])
        self.sha = self._phase(
            "sha", lambda: canonical_trace_sha(obs.trace_dict()))
        self.export_bytes = len(self._phase("export",
                                            obs.export_trace_json))

    def finish(self):
        where = f"{NAME}.{self.name}"
        if self.bad:
            raise CheckFailed(
                "ddss-payload", f"{where}: driver/unit/value {self.bad[0]}: "
                f"a get returned a payload no put wrote")
        cluster = self.cluster
        attempted = 4 * self.batches * len(self.drivers)
        counters = delta(net_counters(cluster), self.c0)
        counters["dlm.grants"] = len(self.lat)
        counters["dlm.acquires"] = sum(c.acquires for c in self.lockers)
        counters["ddss.gets"] = sum(s.gets for s in self.stores)
        counters["ddss.hits"] = sum(s.cache_hits for s in self.stores)
        facts = {
            "sessions": self.served,
            "raised": self.raised,
            "lock_rehomes": len(self.manager.rehomes),
            "ring_rebalances": (len(self.ddss.dir_map.rebalances)
                                + len(self.manager.shard_map.rebalances)),
            "evictions": len(self.reconfig.evictions),
            "xrack_bytes": cluster.fabric.xrack_bytes,
            "xrack_transfers": cluster.fabric.xrack_transfers,
        }
        if self.obs is not None:
            if not self.view.complete:
                raise CheckFailed(
                    "trace-complete", f"{where}: {self.view.emitted} events "
                    f"emitted, {len(self.view)} kept: raise the obs ring")
            bad = self.violations or self.obs.violations()
            if bad:
                raise CheckFailed(
                    "oracle-violations", f"{where}: {len(bad)} oracle or "
                    f"sanitizer violation(s) (an unmet ha.expect is one); "
                    f"first: {bad[0]}")
            counters["obs.events"] = len(self.view)
            facts["trace_sha"] = self.sha
            facts["export_bytes"] = self.export_bytes
        return CellResult(
            ops=self.done, attempted=attempted,
            failed=attempted - self.done,
            makespan_us=self.last_done - self.t_first,
            latencies=self.lat, counters=counters, facts=facts)


def make_cell(name, seed, rec):
    return TopoCell(name, seed, rec)


#: simulated results that must not depend on whether obs is recording
_SHARED_FACTS = ("sessions", "raised", "lock_rehomes", "ring_rebalances",
                 "evictions", "xrack_bytes", "xrack_transfers")


def cross_check(results):
    lab, bare = results["lab"], results["lab-bare"]
    same = (lab.ops == bare.ops and lab.makespan_us == bare.makespan_us
            and lab.latencies == bare.latencies
            and all(lab.facts[f] == bare.facts[f] for f in _SHARED_FACTS))
    if not same:
        raise CheckFailed(
            "obs-changes-results", f"{NAME}: lab and lab-bare disagree on "
            f"simulated results: {lab.facts} vs {bare.facts}")


def phase_metrics(rounds):
    """Harness phases of ``lab`` (host clock, min over rounds)."""
    events = rounds[0]["lab"]["result"].counters["obs.events"]

    def best(cell, phase):
        return min(rnd[cell]["phases"][phase] for rnd in rounds)

    return {
        "verify.replay_host_us_per_event": best("lab", "replay") / events * 1e6,
        "verify.sha_host_us_per_event": best("lab", "sha") / events * 1e6,
        "obs.export_host_us_per_event": best("lab", "export") / events * 1e6,
        "obs.record_overhead_ratio": best("lab", "run") / best("lab-bare", "run"),
    }
