"""The scenario table and the judged run.

Everything the harness can run by name — the correctness checks, the
chaos scenarios, the flow-control demo and the datacenter lab — is one
row of :data:`SCENARIOS`, and every way of running a row goes through
:func:`judged_run`: build the workload under observability, replay
the full trace through every oracle (:func:`repro.verify.judge`), and
return one record::

    scenario, seed, n_nodes, trace_sha,
    events, sim_now_us, oracles{name: {checked, violations}},
    violations, violation_msgs[:4], stats{},
    verdict  (violation > vacuous > ok)

``repro check|chaos run`` and the lab sweeps
(:func:`repro.verify.metamorphic_sweep`,
:func:`repro.chaos.run_campaign`) are callers that add their own keys
(``repro`` reproducer, ``schedule``/``faults``/``fence``/``index``).

A builder is ``build(seed, n_nodes)``, or — for a row with a fault
space (``horizon_us`` set) — ``build(seed, n_nodes, schedule, fence)``;
it returns the populated :class:`~repro.obs.Observability`, optionally
with a stats dict.  All randomness comes from the cluster's seeded
streams, so a row run twice from one seed yields one ``trace_sha``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos import scenarios as chaos
from repro.chaos.space import ChaosSpace, schedule_key
from repro.dlm import (ALockManager, DQNLManager, MCSManager,
                       NCoSEDManager, SRSLManager)
from repro.errors import ConfigError, LockError
from repro.topo.scenarios import build_topo_scenario, shard_check
from repro.txn.scenarios import build_txn_scenario
from repro.verify import (TraceView, add_reproducer, canonical_trace_sha,
                          judge)

__all__ = ["SCENARIOS", "Scenario", "VERDICTS", "lookup", "worst",
           "judged_run", "run_check", "run_suite", "run_schedule",
           "lab_run", "lab_sweep"]

#: verdicts, mildest first; an aggregate reports the worst it contains
VERDICTS = ("ok", "vacuous", "violation")


@dataclass(frozen=True)
class Scenario:
    """One packaged scenario: builder, defaults, and what judges it."""

    name: str
    build: Callable
    n_nodes: int
    #: NAME of the oracle that must see traffic
    primary: str
    description: str = ""
    #: fault-schedule sampling space; ``horizon_us=None`` means the
    #: scenario takes no schedule
    horizon_us: Optional[float] = None
    kinds: Sequence[str] = ("partition", "crash", "slow", "drop")
    max_faults: int = 4
    fence: bool = True
    #: False for seeded-bug scenarios: campaigns count their failures
    #: as *findings* (expected), not campaign violations
    expect_clean: bool = True

    def space(self) -> ChaosSpace:
        if self.horizon_us is None:
            raise ConfigError(f"scenario {self.name!r} takes no fault "
                              f"schedule; try: repro chaos list")
        return ChaosSpace(self.n_nodes, self.horizon_us,
                          max_faults=self.max_faults, kinds=self.kinds)


# -- builders -------------------------------------------------------------

def _lock_traffic(manager_cls, seed: int, n_nodes: int, **mgr_kw):
    """Fault-free shared/exclusive mix over four locks."""
    from repro.net import Cluster

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe()
    manager = manager_cls(cluster, n_locks=4, **mgr_kw)
    env = cluster.env
    rng = cluster.rng.get("check-locks")
    for i in range(4 * n_nodes):
        client = manager.client(cluster.nodes[i % n_nodes])
        env.process(chaos.lock_actor(env, client, i % 4,
                                     rng.random() < 0.5,
                                     rng.uniform(0.0, 400.0),
                                     rng.uniform(5.0, 60.0)),
                    name=f"check-lock-{i}")
    env.run(until=80_000.0)
    return obs


def _lock_chaos(manager_cls, shared_frac: float, seed: int, n_nodes: int,
                **mgr_kw):
    """Leased lock traffic through two crashes: the reclaims make the
    oracle exercise epoch fencing, revocation, and zombies.  Holds are
    long so some tenures straddle the crash times."""
    from repro.faults import FaultPlan
    from repro.net import Cluster

    plan = (FaultPlan()
            .crash(2 % n_nodes or 1, at=3_000.0, restart_at=9_000.0)
            .crash((n_nodes - 1) or 1, at=5_000.0))
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe()
    cluster.install_faults(plan)
    manager = manager_cls(cluster, n_locks=4, lease_us=400.0, **mgr_kw)
    env = cluster.env
    rng = cluster.rng.get("check-chaos")
    for i in range(3 * n_nodes):
        client = manager.client(cluster.nodes[i % n_nodes])
        env.process(chaos.lock_actor(env, client, i % 4,
                                     rng.random() < shared_frac,
                                     rng.uniform(0.0, 8_000.0),
                                     rng.uniform(500.0, 4_000.0),
                                     (LockError,)),
                    name=f"check-chaos-{i}")
    env.run(until=30_000.0)
    return obs


def _ddss(seed: int, n_nodes: int):
    """Every coherence model, multiple writers per key, repeat reads so
    DELTA/TEMPORAL client caches serve hits the oracle can bound."""
    from repro.ddss import DDSS, Coherence
    from repro.net import Cluster

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe()
    ddss = DDSS(cluster, segment_bytes=256 * 1024)
    env = cluster.env
    rng = cluster.rng.get("check-ddss")

    def owner(env, client, model, keys_out):
        key = yield client.allocate(128, coherence=model, placement=0,
                                    delta=2, ttl_us=300.0)
        keys_out.append(key)

    def worker(env, client, key, stamp, delay):
        yield env.timeout(delay)
        for i in range(1, 5):
            yield client.put(key, bytes([stamp]) * 96)
            yield client.get(key)
            yield env.timeout(float(i))
            yield client.get(key)  # repeat read: may hit a client cache

    for m_i, model in enumerate(Coherence):
        keys: List[int] = []
        opener = ddss.client(cluster.nodes[1 % n_nodes])
        p = env.process(owner(env, opener, model, keys),
                        name=f"check-ddss-alloc-{m_i}")
        env.run_until_event(p)
        for w in range(3):
            node = cluster.nodes[(1 + w) % n_nodes]
            env.process(worker(env, ddss.client(node), keys[0],
                               16 * (m_i + 1) + w,
                               rng.uniform(0.0, 50.0)),
                        name=f"check-ddss-{m_i}-{w}")
    env.run(until=200_000.0)
    return obs


def _cache(scheme_name: str, seed: int, n_nodes: int):
    """Zipf-ish accesses over a fileset sized to force evictions, so
    residency intervals open and close under the oracle's feet."""
    from repro.cache import SCHEMES as CACHE_SCHEMES
    from repro.net import Cluster
    from repro.workloads import FileSet

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe()
    n_proxies = max(2, n_nodes - 1)
    proxies = cluster.nodes[:n_proxies]
    extra = cluster.nodes[n_proxies:]
    fileset = FileSet(30, 1000, seed=seed)
    scheme = CACHE_SCHEMES[scheme_name](proxies, fileset, 4000,
                                        extra_nodes=extra)
    env = cluster.env
    rng = cluster.rng.get("check-cache")

    def client(env, proxy, accesses, delay):
        yield env.timeout(delay)
        for doc in accesses:
            source, _token = yield scheme.fetch(proxy, doc)
            if source == "miss":
                yield scheme.admit(proxy, doc)
                yield scheme.fetch(proxy, doc)

    for i, proxy in enumerate(proxies):
        accesses = [min(int(rng.random() * rng.random() * 30), 29)
                    for _ in range(40)]
        env.process(client(env, proxy, accesses, rng.uniform(0.0, 20.0)),
                    name=f"check-cache-{i}")
    env.run(until=300_000.0)
    return obs


def _flow(seed: int, n_nodes: int):
    """Credit-based vs packetized flow control streams, side by side."""
    from repro.net import Cluster
    from repro.transport import (CreditFlowSender, FlowReceiver,
                                 PacketizedFlowSender)

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe()
    env = cluster.env
    rx_credit = FlowReceiver(cluster.nodes[1])
    rx_packed = FlowReceiver(cluster.nodes[2])
    env.process(CreditFlowSender(cluster.nodes[0], rx_credit)
                .stream(60, 512), name="obs-flow-credit")
    env.process(PacketizedFlowSender(cluster.nodes[0], rx_packed)
                .stream(60, 512), name="obs-flow-packed")
    env.run(until=200_000.0)
    return obs


def _txn(variant: str, seed: int, n_nodes: int):
    """Contended multi-key transactions (OCC / 2PL / a mix of both) over
    the TPC-C-like transfer + new-order workload, on four hot keys."""
    return build_txn_scenario(variant, seed, n_nodes, n_keys=4,
                              n_workers=6, txns_per_worker=4)


def _lab(seed: int, n_nodes: int):
    """The datacenter lab: four racks of ``n_nodes // 4`` hosts."""
    return build_topo_scenario(seed=seed, hosts_per_rack=n_nodes // 4)


# -- the table ------------------------------------------------------------

def _index(rows: Sequence[Scenario]) -> Dict[str, Scenario]:
    table: Dict[str, Scenario] = {}
    for sc in rows:
        if sc.name in table:
            raise ConfigError(f"duplicate scenario name {sc.name!r}")
        table[sc.name] = sc
    return table


SCENARIOS: Dict[str, Scenario] = _index((
    # one fault-free cell per lock design
    Scenario("ncosed", partial(_lock_traffic, NCoSEDManager), 6, "locks",
             "N-CoSED shared/exclusive mix over four locks"),
    Scenario("dqnl", partial(_lock_traffic, DQNLManager), 6, "locks",
             "DQNL distributed-queue locks, same mix"),
    Scenario("srsl", partial(_lock_traffic, SRSLManager), 6, "locks",
             "SRSL server-based locks, same mix"),
    Scenario("mcs", partial(_lock_traffic, MCSManager), 6, "locks",
             "RDMA-MCS queue locks, same mix"),
    Scenario("alock", partial(_lock_traffic, ALockManager,
                              cohort_budget=3), 6, "locks",
             "ALock cohort locks (budget 3), same mix"),
    # the lease-fenced designs through two crashes
    Scenario("ncosed-chaos", partial(_lock_chaos, NCoSEDManager, 0.4), 8,
             "locks", "leased N-CoSED through two crashes: reclaim, "
                      "epoch fencing, zombies"),
    Scenario("mcs-chaos", partial(_lock_chaos, MCSManager, 0.2), 8,
             "locks", "leased RDMA-MCS through two crashes"),
    Scenario("alock-chaos", partial(_lock_chaos, ALockManager, 0.2,
                                    cohort_budget=3), 8, "locks",
             "leased ALock through two crashes"),
    Scenario("ddss", _ddss, 4, "ddss",
             "every coherence model, three writers per key, repeat "
             "reads"),
    Scenario("cache-bcc", partial(_cache, "BCC"), 5, "cache",
             "BCC cooperative cache under eviction pressure"),
    Scenario("cache-ccwr", partial(_cache, "CCWR"), 5, "cache",
             "CCWR cooperative cache under eviction pressure"),
    Scenario("cache-mtacc", partial(_cache, "MTACC"), 5, "cache",
             "MTACC cooperative cache under eviction pressure"),
    Scenario("cache-hybcc", partial(_cache, "HYBCC"), 5, "cache",
             "HYBCC cooperative cache under eviction pressure"),
    Scenario("txn-occ", partial(_txn, "occ"), 4, "txn",
             "contended TPC-C-like transactions, OCC"),
    Scenario("txn-2pl", partial(_txn, "2pl"), 4, "txn",
             "contended TPC-C-like transactions, 2PL over N-CoSED"),
    Scenario("txn-mixed", partial(_txn, "mixed"), 4, "txn",
             "contended TPC-C-like transactions, OCC and 2PL workers "
             "interleaved"),
    Scenario("shard", shard_check, 8, "locks",
             "2-rack sharded DDSS + locks with a live ring rebalance"),
    Scenario("flow", _flow, 3, "flow",
             "credit vs packetized flow-control streams"),
    Scenario("lab", _lab, 104, "locks",
             "100+ nodes / 4 racks / 1M+ RUBiS sessions with a "
             "rebalance-during-load crash fault"),
    # scenarios with a fault-schedule space (repro chaos)
    Scenario("locks", chaos.build_locks, 5, "locks",
             "FT N-CoSED + phi detector + quorum gate: failover within "
             "bound, no split-brain", horizon_us=chaos.HORIZON_US),
    Scenario("locks-nofence", chaos.build_locks, 5, "locks",
             "seeded bug: same scenario without the quorum gate; "
             "minority partitions evict the majority",
             horizon_us=chaos.HORIZON_US, kinds=("partition",),
             max_faults=3, fence=False, expect_clean=False),
    Scenario("ddss-repl", chaos.build_ddss, 5, "ddss",
             "replicated DDSS coherence contracts under partitions, "
             "crashes, gray failures, message loss and duplication",
             horizon_us=chaos.DDSS_HORIZON_US,
             kinds=("partition", "crash", "slow", "stall", "drop", "dup")),
    Scenario("txn", chaos.build_txn, 5, "txn",
             "OCC + 2PL transfers under chaos: committed txns stay "
             "serializable, failed lock acquires abort cleanly, "
             "failover choreography holds",
             horizon_us=chaos.HORIZON_US, max_faults=3),
))


def lookup(name: str) -> Scenario:
    sc = SCENARIOS.get(name)
    if sc is None:
        raise ConfigError(f"unknown scenario {name!r}; available: "
                          f"{', '.join(sorted(SCENARIOS))}")
    return sc


def worst(records: Sequence[dict]) -> str:
    """The most severe verdict among ``records`` (``ok`` if none)."""
    return max((r["verdict"] for r in records), key=VERDICTS.index,
               default="ok")


# -- the judged run and its callers ---------------------------------------

def judged_run(scenario, seed: int = 0, n_nodes: Optional[int] = None,
               schedule: Sequence[dict] = ()) -> Tuple[dict, object]:
    """Build one scenario (a name or a :class:`Scenario`) and judge its
    trace; returns ``(record, obs)``."""
    sc = scenario if isinstance(scenario, Scenario) else lookup(scenario)
    n = n_nodes or sc.n_nodes
    args = (seed, n)
    if sc.horizon_us is not None:
        args += ([dict(f) for f in schedule], sc.fence)
    elif schedule:
        raise ConfigError(f"scenario {sc.name!r} takes no fault schedule")
    built = sc.build(*args)
    obs, stats = built if isinstance(built, tuple) else (built, {})
    view = TraceView.from_obs(obs).require_complete()
    record = {"scenario": sc.name, "seed": int(seed), "n_nodes": n,
              "trace_sha": canonical_trace_sha(obs.trace_dict())}
    record.update(judge(view, stats, sc.primary))
    return record, obs


def run_check(name: str, seed: int = 0, shrink: bool = True,
              export: Optional[str] = None) -> dict:
    """One judged run, its record with the run's ``agenda`` entries; on
    an oracle violation and ``shrink=True`` it carries a ``repro`` entry
    (the shrunk failing event list).  ``export`` names a file for one
    document: the ``repro-trace-v1`` trace plus the run's ``metrics``
    and its ``record``."""
    record, obs = judged_run(name, seed)
    record["agenda"] = obs.env._seq
    if shrink:
        add_reproducer(record, obs.trace.snapshot())
    if export is not None:
        obs.export_trace_json(export, metrics=obs.metrics.to_dict(),
                              record=record)
    return record


def run_suite(names: Optional[Sequence[str]] = None, seed: int = 0,
              shrink: bool = True, export: Optional[str] = None) -> dict:
    """:func:`run_check` over names (default: the whole table); the
    suite's verdict is the worst of its results.  With ``export``,
    exactly one row."""
    names = list(names) if names else sorted(SCENARIOS)
    for name in names:
        lookup(name)  # fail fast on typos
    if export is not None and len(names) != 1:
        raise ConfigError(f"--export writes one run's document: name one "
                          f"scenario, not {len(names)}")
    results = [run_check(name, seed=seed, shrink=shrink, export=export)
               for name in names]
    return {
        "seed": seed,
        "results": results,
        "failed": [{k: r[k] for k in ("scenario", "verdict")}
                   for r in results if r["verdict"] != "ok"],
        "verdict": worst(results),
    }


def run_schedule(scenario: str, schedule: Sequence[dict],
                 seed: int) -> dict:
    """One judged run under a fault schedule; the record also names the
    schedule, its fault labels, and the row's fence setting."""
    sc = lookup(scenario)
    record, _obs = judged_run(sc, seed, schedule=schedule)
    record.update(fence=bool(sc.fence),
                  schedule=[dict(f) for f in schedule],
                  faults=[schedule_key(f) for f in schedule])
    return record


def lab_run(scenario: str = "ncosed", seed: int = 0, n_nodes: int = 0,
            index: Optional[int] = None) -> dict:
    """The lab entry point (``repro.scenarios:lab_run``).

    Without ``index``: a fault-free judged run (``n_nodes=0`` means the
    scenario's default).  With it: fault schedule ``(seed, index)`` is
    sampled *inside* the worker, so results are identical no matter how
    the grid is sharded.
    """
    if index is None:
        return judged_run(scenario, seed, n_nodes or None)[0]
    schedule = lookup(scenario).space().sample(int(seed), int(index))
    record = run_schedule(scenario, schedule, int(seed))
    record["index"] = int(index)
    return record


def lab_sweep(name: str, grid: Dict[str, list], seeds: Sequence[int],
              workers: int = 0, store_path: Optional[str] = None
              ) -> Tuple[List[dict], dict]:
    """Fan :func:`lab_run` over ``grid`` × ``seeds`` through
    :mod:`repro.lab`; returns ``(records, runner summary)``."""
    from repro.lab import ResultStore, Runner, Sweep

    sweep = Sweep(name=name, scenario="repro.scenarios:lab_run",
                  grid=grid, seeds=[int(s) for s in seeds])
    store = ResultStore(store_path)
    summary = Runner(sweep, store=store, workers=workers).run()
    return store.records(), summary
