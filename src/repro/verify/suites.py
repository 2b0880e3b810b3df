"""Packaged correctness checks: scenario + oracles + verdict.

Each check drives a seeded workload against one subsystem with
observability attached, exports the full trace, and replays it through
every oracle.  ``run_check`` produces a machine-readable verdict;
``check_scenario`` is the dotted-path entry the metamorphic sweeps
dispatch through :mod:`repro.lab`.

A check is only meaningful if the oracles saw traffic, so every verdict
carries per-oracle ``checked`` counts and ``run_suite`` fails a check
whose primary oracle consumed zero events (a vacuous pass is a bug in
the scenario, not a clean protocol).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigError
from .cache import CacheOracle
from .ddss import DDSSOracle
from .ha import HAOracle
from .locks import LockOracle
from .shrink import shrink as _shrink
from .trace import TraceView, replay
from .txn import TxnOracle

__all__ = ["CHECKS", "ALL_ORACLES", "run_check", "run_suite",
           "check_scenario", "check_trace", "canonical_trace_sha"]

#: every oracle; each consumes only the event prefixes it declares, so
#: running all of them over any trace is safe and catches cross-talk.
ALL_ORACLES: Sequence[Callable] = (LockOracle, DDSSOracle, CacheOracle,
                                   HAOracle, TxnOracle)


#: the event kernels every cross-kernel check diffs: the product and
#: the naive reference (``REPRO_SLOW_KERNEL=1``).
KERNELS = ("fast", "slow")


@contextmanager
def _kernel(mode: str):
    """Pin the event kernel for Environments built inside.

    ``fast`` is the product kernel (heap + same-instant deque, net-layer
    shortcuts on); ``slow`` is the naive reference (``REPRO_SLOW_KERNEL=1``).
    """
    if mode not in KERNELS:
        raise ConfigError(f"unknown kernel {mode!r} ({'|'.join(KERNELS)})")
    prev = os.environ.get("REPRO_SLOW_KERNEL")
    os.environ["REPRO_SLOW_KERNEL"] = "1" if mode == "slow" else "0"
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_SLOW_KERNEL", None)
        else:
            os.environ["REPRO_SLOW_KERNEL"] = prev


# -- scenario builders ---------------------------------------------------
# Each takes (seed, n_nodes) and returns a populated Observability.

def _lock_traffic(manager_cls, seed: int, n_nodes: int, n_actors: int,
                  n_locks: int = 4, horizon: float = 80_000.0, **mgr_kw):
    from ..net import Cluster
    from ..dlm import LockMode

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    manager = manager_cls(cluster, n_locks=n_locks, **mgr_kw)
    env = cluster.env
    rng = cluster.rng.get("check-locks")

    def actor(env, client, lock_i, shared, delay, hold):
        mode = LockMode.SHARED if shared else LockMode.EXCLUSIVE
        yield env.timeout(delay)
        yield client.acquire(lock_i, mode)
        yield env.timeout(hold)
        yield client.release(lock_i)

    for i in range(n_actors):
        client = manager.client(cluster.nodes[i % n_nodes])
        env.process(actor(env, client, i % n_locks, rng.random() < 0.5,
                          rng.uniform(0.0, 400.0),
                          rng.uniform(5.0, 60.0)),
                    name=f"check-lock-{i}")
    env.run(until=horizon)
    return obs


def _ncosed(seed: int, n_nodes: int):
    from ..dlm import NCoSEDManager
    return _lock_traffic(NCoSEDManager, seed, n_nodes, n_actors=4 * n_nodes)


def _dqnl(seed: int, n_nodes: int):
    from ..dlm import DQNLManager
    return _lock_traffic(DQNLManager, seed, n_nodes, n_actors=4 * n_nodes)


def _srsl(seed: int, n_nodes: int):
    from ..dlm import SRSLManager
    return _lock_traffic(SRSLManager, seed, n_nodes, n_actors=4 * n_nodes)


def _mcs(seed: int, n_nodes: int):
    from ..dlm import MCSManager
    return _lock_traffic(MCSManager, seed, n_nodes, n_actors=4 * n_nodes)


def _alock(seed: int, n_nodes: int):
    from ..dlm import ALockManager
    return _lock_traffic(ALockManager, seed, n_nodes,
                         n_actors=4 * n_nodes, cohort_budget=3)


def _lock_chaos(manager_cls, seed: int, n_nodes: int, shared_frac: float,
                **mgr_kw):
    """Fault-tolerant lock traffic: crashes force lease reclaims, so
    the oracle exercises epoch fencing, revocation, and zombies."""
    from ..net import Cluster
    from ..faults import FaultPlan
    from ..dlm import LockMode
    from ..errors import LockError

    crash_a = 2 % n_nodes or 1
    crash_b = (n_nodes - 1) or 1
    plan = (FaultPlan()
            .crash(crash_a, at=3_000.0, restart_at=9_000.0)
            .crash(crash_b, at=5_000.0))
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    cluster.install_faults(plan)
    manager = manager_cls(cluster, n_locks=4, lease_us=400.0, **mgr_kw)
    env = cluster.env
    rng = cluster.rng.get("check-chaos")

    def actor(env, client, lock_i, shared, delay, hold):
        mode = LockMode.SHARED if shared else LockMode.EXCLUSIVE
        yield env.timeout(delay)
        try:
            yield client.acquire(lock_i, mode)
        except LockError:
            return
        yield env.timeout(hold)
        try:
            yield client.release(lock_i)
        except LockError:
            pass

    for i in range(3 * n_nodes):
        client = manager.client(cluster.nodes[i % n_nodes])
        env.process(actor(env, client, i % 4, rng.random() < shared_frac,
                          rng.uniform(0.0, 8_000.0),
                          rng.uniform(500.0, 4_000.0)),
                    name=f"check-chaos-{i}")
    env.run(until=30_000.0)
    return obs


def _ncosed_chaos(seed: int, n_nodes: int):
    from ..dlm import NCoSEDManager
    return _lock_chaos(NCoSEDManager, seed, n_nodes, shared_frac=0.4)


def _mcs_chaos(seed: int, n_nodes: int):
    from ..dlm import MCSManager
    return _lock_chaos(MCSManager, seed, n_nodes, shared_frac=0.2)


def _alock_chaos(seed: int, n_nodes: int):
    from ..dlm import ALockManager
    return _lock_chaos(ALockManager, seed, n_nodes, shared_frac=0.2,
                       cohort_budget=3)


def _ddss(seed: int, n_nodes: int):
    """Every coherence model, multiple writers per key, repeat reads so
    DELTA/TEMPORAL client caches serve hits the oracle can bound."""
    from ..net import Cluster
    from ..ddss import DDSS, Coherence

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
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
    from ..net import Cluster
    from ..cache import SCHEMES
    from ..workloads import FileSet

    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    n_proxies = max(2, n_nodes - 1)
    proxies = cluster.nodes[:n_proxies]
    extra = cluster.nodes[n_proxies:]
    fileset = FileSet(30, 1000, seed=seed)
    scheme = SCHEMES[scheme_name](proxies, fileset, 4000,
                                  extra_nodes=extra)
    env = cluster.env
    rng = cluster.rng.get("check-cache")

    def client(env, proxy, accesses, delay):
        yield env.timeout(delay)
        for doc in accesses:
            result = yield scheme.fetch(proxy, doc)
            if result.source == "miss":
                yield scheme.admit(proxy, doc)
                yield scheme.fetch(proxy, doc)

    for i, proxy in enumerate(proxies):
        accesses = [min(int(rng.random() * rng.random() * 30), 29)
                    for _ in range(40)]
        env.process(client(env, proxy, accesses, rng.uniform(0.0, 20.0)),
                    name=f"check-cache-{i}")
    env.run(until=300_000.0)
    return obs


def _cache_check(scheme_name: str):
    def fn(seed: int, n_nodes: int):
        return _cache(scheme_name, seed, n_nodes)
    fn.__name__ = f"_cache_{scheme_name.lower()}"
    return fn


def _shard(seed: int, n_nodes: int):
    """Sharded DDSS + sharded N-CoSED on a two-rack topology with a
    live ring rebalance (migrate off / restore) under client load:
    exercises directory bounces, tombstone re-resolution, and rehoming."""
    from ..topo.scenarios import shard_check
    return shard_check(seed, n_nodes)


def _txn_check(variant: str):
    """Contended multi-key transactions (OCC / 2PL / a mix of both) over
    the TPC-C-like transfer + new-order workload."""
    def fn(seed: int, n_nodes: int):
        from ..txn.scenarios import build_txn_scenario
        return build_txn_scenario(variant, seed, n_nodes, n_keys=4,
                                  n_workers=6, txns_per_worker=4)[0]
    fn.__name__ = f"_txn_{variant}"
    return fn


#: name -> (builder, default n_nodes, primary oracle NAME)
CHECKS: Dict[str, tuple] = {
    "ncosed": (_ncosed, 6, "locks"),
    "dqnl": (_dqnl, 6, "locks"),
    "srsl": (_srsl, 6, "locks"),
    "mcs": (_mcs, 6, "locks"),
    "alock": (_alock, 6, "locks"),
    "ncosed-chaos": (_ncosed_chaos, 8, "locks"),
    "mcs-chaos": (_mcs_chaos, 8, "locks"),
    "alock-chaos": (_alock_chaos, 8, "locks"),
    "ddss": (_ddss, 4, "ddss"),
    "cache-bcc": (_cache_check("BCC"), 5, "cache"),
    "cache-ccwr": (_cache_check("CCWR"), 5, "cache"),
    "cache-mtacc": (_cache_check("MTACC"), 5, "cache"),
    "cache-hybcc": (_cache_check("HYBCC"), 5, "cache"),
    "txn-occ": (_txn_check("occ"), 4, "txn"),
    "txn-2pl": (_txn_check("2pl"), 4, "txn"),
    "txn-mixed": (_txn_check("mixed"), 4, "txn"),
    "shard": (_shard, 8, "locks"),
}


# -- drivers -------------------------------------------------------------

def _lookup(name: str):
    spec = CHECKS.get(name)
    if spec is None:
        raise ConfigError(f"unknown check {name!r}; available: "
                          f"{', '.join(sorted(CHECKS))}")
    return spec


def _verdict(view: TraceView, oracles, violations, sanitizers):
    ok = not violations and not sanitizers
    return {
        "sim_now_us": view.meta.get("sim_now_us"),
        "events": len(view),
        "oracles": {o.NAME: o.to_dict() for o in oracles},
        "sanitizers": list(sanitizers),
        "verdict": "ok" if ok else "violation",
    }


def run_check(name: str, seed: int = 0, n_nodes: Optional[int] = None,
              kernel: str = "fast", shrink: bool = True) -> dict:
    """Run one packaged check end to end; returns the verdict dict.

    On violation and ``shrink=True`` the verdict carries a ``repro``
    entry: the shrunk failing event list plus the violation it still
    reproduces.
    """
    builder, default_nodes, _primary = _lookup(name)
    n = n_nodes or default_nodes
    with _kernel(kernel):
        obs = builder(seed, n)
    view = TraceView.from_obs(obs).require_complete()
    oracles = [f() for f in ALL_ORACLES]
    violations = replay(view, oracles)
    out = _verdict(view, oracles, violations, obs.violations())
    out.update({"check": name, "seed": seed, "n_nodes": n,
                "kernel": kernel})
    if violations and shrink:
        report = _shrink(view.events, ALL_ORACLES)
        if report is not None:
            out["repro"] = {
                "violation": report["violation"],
                "original_events": report["original_events"],
                "kept_events": report["kept_events"],
                "probes": report["probes"],
                "events": [[ev.t, ev.node, ev.etype, ev.fields]
                           for ev in report["events"]],
            }
    return out


def run_suite(checks: Optional[Sequence[str]] = None, seed: int = 0,
              kernels: Sequence[str] = ("fast",),
              shrink: bool = True) -> dict:
    """Run a set of checks under one or both kernels; aggregate."""
    names = list(checks) if checks else sorted(CHECKS)
    results = []
    for name in names:
        _builder, _n, primary = _lookup(name)
        for kern in kernels:
            r = run_check(name, seed=seed, kernel=kern, shrink=shrink)
            if (r["verdict"] == "ok"
                    and r["oracles"][primary]["checked"] == 0):
                r["verdict"] = "vacuous"
            results.append(r)
    bad = [r for r in results if r["verdict"] != "ok"]
    return {
        "seed": seed,
        "kernels": list(kernels),
        "checks": results,
        "failed": [{"check": r["check"], "kernel": r["kernel"],
                    "verdict": r["verdict"]} for r in bad],
        "verdict": "ok" if not bad else "violation",
    }


def check_trace(path: str, shrink: bool = True) -> dict:
    """Replay an exported ``repro-trace-v1`` file through every oracle."""
    view = TraceView.load(path)
    oracles = [f() for f in ALL_ORACLES]
    violations = replay(view, oracles)
    out = _verdict(view, oracles, violations, ())
    out["trace"] = path
    if violations and shrink:
        report = _shrink(view.events, ALL_ORACLES)
        if report is not None:
            out["repro"] = {
                "violation": report["violation"],
                "original_events": report["original_events"],
                "kept_events": report["kept_events"],
                "probes": report["probes"],
            }
    return out


def canonical_trace_sha(doc: dict) -> str:
    """Digest of a trace quotiented by same-instant *cross-node* order.

    The agenda breaks same-time ties by insertion sequence, and the
    fast event kernel collapses a transfer's multi-event cascade into
    fewer (earlier-inserted) entries than the naive kernel — so two
    causally *independent* chains landing at one simulated instant may
    pop in either order depending on the kernel, with no
    observable-state difference.  A stable sort by ``(t, node)`` keeps
    every node's own event order (and all timestamps, fields, and
    counts) byte-exact while erasing only that tie-break, which is the
    strongest cross-kernel equivalence the trace actually carries.
    """
    events = sorted(doc["events"], key=lambda e: (e[0], e[1]))
    blob = json.dumps({"sim_now_us": doc["sim_now_us"],
                       "emitted": doc["emitted"], "events": events},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def check_scenario(check: str = "ncosed", seed: int = 0,
                   n_nodes: Optional[int] = None,
                   kernel: str = "fast") -> dict:
    """Lab-dispatchable check runner (``repro.verify.suites:check_scenario``).

    Returns a flat, canonical-JSON-able record; ``trace_sha`` is the
    canonical trace digest (:func:`canonical_trace_sha`), which the
    metamorphic driver diffs across kernels and permuted seeds.
    """
    builder, default_nodes, _primary = _lookup(check)
    n = n_nodes or default_nodes
    with _kernel(kernel):
        obs = builder(seed, n)
    doc = obs.trace_dict()
    view = TraceView.from_obs(obs).require_complete()
    oracles = [f() for f in ALL_ORACLES]
    violations = replay(view, oracles)
    sanitizers = obs.violations()
    return {
        "check": check,
        "kernel": kernel,
        "n_nodes": n,
        "events": len(view),
        "sim_now_us": view.meta.get("sim_now_us"),
        "violations": len(violations) + len(sanitizers),
        "trace_sha": canonical_trace_sha(doc),
        "verdict": "ok" if not violations and not sanitizers
                   else "violation",
    }
