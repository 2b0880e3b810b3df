"""Packaged lab scenarios, sweeps and table folds.

A **scenario** is any importable callable ``fn(seed=..., **params)``
returning a JSON-serializable dict; the runner invokes it by dotted name
inside worker processes, so everything here is module-level.  The
single-point scenarios below are the per-grid-point bodies of the
ablation sweeps behind the ``ablation-*`` rows of
:data:`repro.bench.figures.FIGURES`, plus wrappers around rows of the
scenario table and around the txn, topology and lock-arena
measurements.

A **fold** is a ``records -> List[BenchTable]`` callable named by the
sweep's ``fold`` field; the merge step resolves it by dotted path so
``repro lab show`` can rebuild tables from a store alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..bench.harness import BenchTable
from .spec import Sweep

__all__ = ["SWEEPS", "packaged_sweep",
           "hybcc_threshold", "monitor_period", "lock_backoff",
           "obs_export", "smoke", "txn_point",
           "topo_point", "locks_point", "fold_by_param", "fold_locks",
           "fold_hybcc", "fold_period", "fold_backoff", "fold_obs",
           "fold_txn", "fold_topo"]


# ---------------------------------------------------------------------------
# single-point scenarios (ablation grid bodies)
# ---------------------------------------------------------------------------

def hybcc_threshold(threshold: int, seed: int = 1) -> Dict[str, Any]:
    """TPS of one HYBCC datacenter run at a given small/large threshold."""
    from ..cache import HybridCache
    from ..cache import schemes as schemes_mod
    from ..datacenter import DataCenter

    class Tuned(HybridCache):
        def __init__(self, proxies, fileset, capacity, extra_nodes=(),
                     threshold=threshold):
            super().__init__(proxies, fileset, capacity,
                             extra_nodes=extra_nodes, threshold=threshold)

    original = schemes_mod.SCHEMES["HYBCC"]
    schemes_mod.SCHEMES["HYBCC"] = Tuned
    try:
        dc = DataCenter(n_proxies=2, n_app=2, scheme="HYBCC",
                        n_docs=1_200, doc_bytes=16_384,
                        cache_bytes=8 * 1024 * 1024,
                        n_sessions=48, seed=seed)
        tps = dc.run_tps(warmup_us=80_000, measure_us=120_000)
    finally:
        schemes_mod.SCHEMES["HYBCC"] = original
    return {"tps": round(tps)}


def monitor_period(period_us: float, seed: int = 0) -> Dict[str, Any]:
    """RDMA-async monitoring accuracy at one poll period."""
    from ..monitor.experiments import accuracy_trace

    r = accuracy_trace("rdma-async", duration_us=200_000.0,
                       seed=seed, period_us=period_us)
    return {"mean_abs_dev": round(r.mean_abs_deviation, 2),
            "max_dev": r.max_deviation}


def lock_backoff(backoff_cap_us: float, seed: int = 0) -> Dict[str, Any]:
    """DDSS unit-lock contention at one spin-backoff cap."""
    import repro.ddss.client as client_mod
    from ..ddss import DDSS, Coherence
    from ..net import Cluster

    original = client_mod._BACKOFF
    client_mod._BACKOFF = (2.0, 2.0, backoff_cap_us)
    try:
        cluster = Cluster(n_nodes=5, seed=seed)
        ddss = DDSS(cluster)
        key_holder = {}

        def setup(env):
            c = ddss.client(cluster.nodes[0])
            key_holder["key"] = yield c.allocate(
                16, coherence=Coherence.NULL, placement=0)

        p = cluster.env.process(setup(cluster.env))
        cluster.env.run_until_event(p)

        def contender(env, node):
            c = ddss.client(node)
            for _ in range(5):
                yield c.acquire(key_holder["key"])
                yield env.timeout(30.0)
                yield c.release(key_holder["key"])

        procs = [cluster.env.process(contender(cluster.env, n))
                 for n in cluster.nodes[1:]]
        done = cluster.env.all_of(procs)
        cluster.env.run_until_event(done, limit=1e9)
        makespan = cluster.env.now
        atomics = sum(n.nic.atomics for n in cluster.nodes)
    finally:
        client_mod._BACKOFF = original
    return {"makespan_us": round(makespan), "atomics": atomics}


# ---------------------------------------------------------------------------
# chunky deterministic scenarios (determinism material)
# ---------------------------------------------------------------------------

def obs_export(scenario: str = "ddss", seed: int = 0,
               sim_us: float = 0.0) -> Dict[str, Any]:
    """Run a packaged scenario, return its deterministic obs summary
    (the whole export is seed-determined, so serial and pool execution
    must agree byte for byte)."""
    from ..scenarios import judged_run

    obs = judged_run(scenario, seed)[1]
    summary = obs.to_dict()
    return {
        "scenario": scenario,
        "sim_now_us": summary["sim_now_us"],
        "events": summary["events"]["emitted"],
        "violations": len(obs.violations()),
        "counters": summary["metrics"]["counters"],
    }


def txn_point(variant: str = "occ", n_keys: int = 8,
              seed: int = 0) -> Dict[str, Any]:
    """One (variant × contention) cell of the OCC-vs-2PL txn sweep."""
    from ..txn.scenarios import txn_bench

    stats = txn_bench(variant=variant, n_keys=n_keys, seed=seed)
    return {
        "commits": stats["commits"],
        "aborts": stats["aborts"],
        "attempt_aborts": stats["attempt_aborts"],
        "wedges": stats["wedges"],
        "abort_rate": round(stats["abort_rate"], 4),
        "commit_per_s": round(stats["commit_per_s"], 1),
        "conserved": stats["conserved"],
    }


def topo_point(racks: int = 2, oversub: float = 1.0,
               seed: int = 0) -> Dict[str, Any]:
    """One (racks × oversub) cell of the 16-node topology lab sweep."""
    from ..topo.scenarios import topo_lab

    return topo_lab(racks=racks, oversub=oversub, seed=seed)


def locks_point(scheme: str = "ncosed", n_clients: int = 64,
                alpha: float = 1.2, chaos: str = "none",
                seed: int = 0) -> Dict[str, Any]:
    """One (scheme × contention × chaos) cell of the lock tournament."""
    from ..dlm.tournament import lock_tournament

    stats = lock_tournament(scheme, n_clients=n_clients, alpha=alpha,
                            chaos=chaos, seed=seed)
    return {
        "grants": stats["grants"],
        "failures": stats["failures"],
        "ops_per_s": round(float(stats["ops_per_s"]), 1),
        "p99_wait_us": round(float(stats["p99_wait_us"]), 3),
        "jain": round(float(stats["jain"]), 4),
        "max_chain": stats["max_chain"],
        "violations": stats["violations"],
    }


def smoke(x: int = 1, seed: int = 0) -> Dict[str, Any]:
    """Tiny deterministic scenario for tests and CI smoke sweeps."""
    from ..sim import Environment, RngStreams

    env = Environment()
    rng = RngStreams(seed).get("lab-smoke")

    def proc(env):
        total = 0.0
        for _ in range(10 * x):
            d = float(rng.exponential(5.0))
            yield env.timeout(d)
            total += d
        return total

    p = env.process(proc(env))
    env.run()
    return {"sim_us": round(env.now, 6), "total": round(p.value, 6)}


# ---------------------------------------------------------------------------
# folds: records -> paper-style tables
# ---------------------------------------------------------------------------

def _sorted_records(records: List[Dict[str, Any]],
                    *keys: str) -> List[Dict[str, Any]]:
    return sorted(records,
                  key=lambda r: tuple(r["params"].get(k) for k in keys)
                  + (r["seed"], r["repeat"]))


def fold_by_param(records: List[Dict[str, Any]],
                  title: str = "lab sweep") -> List[BenchTable]:
    """Generic fold: one row per run, param columns then result columns."""
    if not records:
        return [BenchTable(title, ["(empty)"])]
    params = sorted({k for r in records for k in r["params"]})
    res_keys = sorted({k for r in records
                       for k, v in r["result"].items()
                       if isinstance(v, (int, float, str))})
    table = BenchTable(title, params + ["seed", "rep"] + res_keys)
    for r in _sorted_records(records, *params):
        row = [r["params"].get(k, "") for k in params]
        row += [r["seed"], r["repeat"]]
        row += [r["result"].get(k, "") for k in res_keys]
        table.add(*row)
    return [table]


def fold_hybcc(records: List[Dict[str, Any]]) -> List[BenchTable]:
    table = BenchTable(
        "HYBCC threshold ablation (16KB docs, 2 proxies)",
        ["threshold", "tps"],
        paper_ref="design choice: duplication/capacity crossover")
    for r in _sorted_records(records, "threshold"):
        table.add(r["params"]["threshold"], r["result"]["tps"])
    return [table]


def fold_period(records: List[Dict[str, Any]]) -> List[BenchTable]:
    table = BenchTable(
        "RDMA-async poll-period ablation",
        ["period_us", "mean_abs_dev"],
        paper_ref="design choice: millisecond-granularity polling")
    for r in _sorted_records(records, "period_us"):
        table.add(int(r["params"]["period_us"]),
                  r["result"]["mean_abs_dev"])
    return [table]


def fold_backoff(records: List[Dict[str, Any]]) -> List[BenchTable]:
    table = BenchTable(
        "DDSS spin-lock backoff ablation (4 contenders)",
        ["backoff_cap_us", "makespan_us", "atomics"],
        paper_ref="design choice: exponential backoff on CAS failure")
    for r in _sorted_records(records, "backoff_cap_us"):
        table.add(int(r["params"]["backoff_cap_us"]),
                  r["result"]["makespan_us"], r["result"]["atomics"])
    return [table]


def fold_txn(records: List[Dict[str, Any]]) -> List[BenchTable]:
    table = BenchTable(
        "OCC vs 2PL commit throughput across contention",
        ["variant", "n_keys", "seed", "commits", "attempt_aborts",
         "abort_rate", "commit_per_s", "conserved"],
        paper_ref="§4.1 + §4.2 composed: DDSS versioned units + "
                  "N-CoSED locks as transaction substrates")
    for r in _sorted_records(records, "variant", "n_keys"):
        table.add(r["params"]["variant"], r["params"]["n_keys"],
                  r["seed"], r["result"]["commits"],
                  r["result"]["attempt_aborts"],
                  r["result"]["abort_rate"],
                  r["result"]["commit_per_s"],
                  r["result"]["conserved"])
    return [table]


def fold_topo(records: List[Dict[str, Any]]) -> List[BenchTable]:
    table = BenchTable(
        "rack/spine topology: completion time vs oversubscription",
        ["racks", "oversub", "seed", "sim_now_us", "xrack_transfers",
         "xrack_bytes"],
        paper_ref="§2 data-center fabric: oversubscribed ToR uplinks "
                  "stretch cross-rack transfers")
    for r in _sorted_records(records, "racks", "oversub"):
        table.add(r["params"]["racks"], r["params"]["oversub"],
                  r["seed"], r["result"]["sim_now_us"],
                  r["result"]["xrack_transfers"],
                  r["result"]["xrack_bytes"])
    return [table]


def fold_locks(records: List[Dict[str, Any]]) -> List[BenchTable]:
    table = BenchTable(
        "lock-design arena: grant throughput vs contention",
        ["scheme", "n_clients", "chaos", "seed", "grants", "failures",
         "ops_per_s", "p99_wait_us", "jain", "violations"],
        paper_ref="§4.2 Fig. 5 extended: N-CoSED/DQNL/SRSL vs the "
                  "ALock cohort lock and RDMA-MCS under Zipf contention")
    for r in _sorted_records(records, "scheme", "n_clients", "chaos"):
        table.add(r["params"]["scheme"], r["params"]["n_clients"],
                  r["params"].get("chaos", "none"), r["seed"],
                  r["result"]["grants"], r["result"]["failures"],
                  r["result"]["ops_per_s"], r["result"]["p99_wait_us"],
                  r["result"]["jain"], r["result"]["violations"])
    return [table]


def fold_obs(records: List[Dict[str, Any]]) -> List[BenchTable]:
    table = BenchTable("obs scenario sweep",
                       ["scenario", "seed", "sim_now_us", "events",
                        "violations"])
    for r in _sorted_records(records, "scenario"):
        table.add(r["params"]["scenario"], r["seed"],
                  r["result"]["sim_now_us"], r["result"]["events"],
                  r["result"]["violations"])
    return [table]


# ---------------------------------------------------------------------------
# packaged sweeps
# ---------------------------------------------------------------------------

_HERE = "repro.lab.scenarios"


def _ablation_hybcc() -> Sweep:
    return Sweep(name="ablation-hybcc",
                 scenario=f"{_HERE}:hybcc_threshold",
                 grid={"threshold": [4_096, 8_192, 16_384, 32_768]},
                 seeds=(1,), fold=f"{_HERE}:fold_hybcc")


def _ablation_period() -> Sweep:
    return Sweep(name="ablation-period",
                 scenario=f"{_HERE}:monitor_period",
                 grid={"period_us": [500.0, 1_000.0, 5_000.0, 20_000.0]},
                 seeds=(0,), fold=f"{_HERE}:fold_period")


def _ablation_backoff() -> Sweep:
    return Sweep(name="ablation-backoff",
                 scenario=f"{_HERE}:lock_backoff",
                 grid={"backoff_cap_us": [5.0, 50.0, 400.0]},
                 seeds=(0,), fold=f"{_HERE}:fold_backoff")


def _obs4() -> Sweep:
    """Four packaged scenarios' obs exports at one seed."""
    return Sweep(name="obs4", scenario=f"{_HERE}:obs_export",
                 grid={"scenario": ["ncosed-chaos", "ddss", "flow",
                                    "ncosed"]},
                 seeds=(0,), fold=f"{_HERE}:fold_obs")


def _txn() -> Sweep:
    """OCC vs 2PL across three contention levels (hot -> cold keys)."""
    return Sweep(name="txn", scenario=f"{_HERE}:txn_point",
                 grid={"variant": ["occ", "2pl"],
                       "n_keys": [2, 8, 32]},
                 seeds=(0,), fold=f"{_HERE}:fold_txn")


def _topo16() -> Sweep:
    """Bounded 16-node topology grid: rack count × oversubscription."""
    return Sweep(name="topo16", scenario=f"{_HERE}:topo_point",
                 grid={"racks": [2, 4], "oversub": [1.0, 4.0]},
                 seeds=(0,), fold=f"{_HERE}:fold_topo")


def _locks() -> Sweep:
    """Bounded lock-arena grid: all five designs × two contention
    levels (the full crossover is the ``lock-arena`` figure)."""
    return Sweep(name="locks", scenario=f"{_HERE}:locks_point",
                 grid={"scheme": ["srsl", "dqnl", "ncosed", "mcs",
                                  "alock"],
                       "n_clients": [64, 256]},
                 seeds=(0,), fold=f"{_HERE}:fold_locks")


def _smoke8() -> Sweep:
    """8 fast runs — CI wiring checks, not performance."""
    return Sweep(name="smoke8", scenario=f"{_HERE}:smoke",
                 grid={"x": [1, 2]}, seeds=(0, 1), repeats=2)


SWEEPS: Dict[str, Callable[[], Sweep]] = {
    "ablation-hybcc": _ablation_hybcc,
    "ablation-period": _ablation_period,
    "ablation-backoff": _ablation_backoff,
    "obs4": _obs4,
    "smoke8": _smoke8,
    "txn": _txn,
    "topo16": _topo16,
    "locks": _locks,
}


def packaged_sweep(name: str) -> Sweep:
    from ..errors import ConfigError

    factory = SWEEPS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown sweep {name!r}; available: "
            f"{', '.join(sorted(SWEEPS))}")
    return factory()
