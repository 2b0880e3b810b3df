"""Lock-design tournament: Zipf-skewed contention × chaos × scheme.

One tournament cell runs ``n_clients`` contending clients against one
lock scheme: each client loops picking a lock from a Zipf distribution
(``alpha`` skew — the contention knob: at high alpha everyone piles
onto lock 0), holds it briefly, releases, thinks, repeats.  The run is
observed end to end; afterwards the full trace is replayed through the
extended :class:`~repro.verify.locks.LockOracle` (plus the live
sanitizers) and the :class:`~repro.obs.FairnessTracker` summary is
folded into the stats, so every reported number comes from a run whose
mutual-exclusion / FIFO / cohort / queue-order / epoch invariants were
machine-checked.

``chaos="crash"`` adds the standard two-crash fault plan (one node
restarts, one stays dead) and switches the lease-fenced schemes
(N-CoSED, MCS, ALock) into fault-tolerant mode; SRSL and DQNL run the
same workload and simply eat the failures.

Deterministic: same arguments, same seed => identical stats dict.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError, FaultError, LockError, RdmaError
from repro.net.cluster import Cluster
from repro.net.params import NetworkParams
from repro.obs import FairnessTracker
from repro.verify.locks import LockOracle
from repro.verify.trace import TraceView, replay_fresh
from repro.workloads.zipf import ZipfGenerator

from repro.dlm.base import LockMode

__all__ = ["SCHEMES", "lock_tournament", "rate_at_quantile"]

#: lease for the fault-tolerant schemes under chaos (µs)
_CHAOS_LEASE_US = 600.0

#: chaos crash plan (µs): absolute, early enough to land while the
#: contention herd is still draining (makespans run 3-40 ms); one node
#: restarts, the other stays dead
_CRASH_A_US = 3_000.0
_RESTART_US = 8_000.0
_CRASH_B_US = 5_000.0


def _make_manager(scheme: str, cluster: Cluster, n_locks: int,
                  chaos: str):
    """Build a manager; lease-fenced schemes get a lease under chaos."""
    from repro.dlm import (ALockManager, DQNLManager, MCSManager,
                          NCoSEDManager, SRSLManager)
    ft_kw = ({"lease_us": _CHAOS_LEASE_US} if chaos != "none" else {})
    if scheme == "srsl":
        return SRSLManager(cluster, n_locks=n_locks)
    if scheme == "dqnl":
        return DQNLManager(cluster, n_locks=n_locks)
    if scheme == "ncosed":
        return NCoSEDManager(cluster, n_locks=n_locks, **ft_kw)
    if scheme == "mcs":
        return MCSManager(cluster, n_locks=n_locks, **ft_kw)
    if scheme == "alock":
        return ALockManager(cluster, n_locks=n_locks, **ft_kw)
    raise LockError(f"unknown scheme {scheme!r}; "
                    f"available: {', '.join(SCHEMES)}")


SCHEMES = ("srsl", "dqnl", "ncosed", "mcs", "alock")


def rate_at_quantile(grant_times_us: Sequence[float], q: float = 0.95
                     ) -> Tuple[float, float]:
    """``(t, grants/s up to t)``, ``t`` being when a fraction ``q`` of
    the grants had landed: unlike ``grants / last_grant_time``, one
    grant landing after a recovery instead of never cannot halve it."""
    times = sorted(grant_times_us)
    k = math.ceil(q * len(times))
    if k == 0 or times[k - 1] <= 0:
        return 0.0, 0.0
    return times[k - 1], k / (times[k - 1] / 1e6)


def lock_tournament(scheme: str, n_clients: int = 256,
                    alpha: float = 0.9, chaos: str = "none",
                    seed: int = 0, n_nodes: int = 8, n_locks: int = 16,
                    rounds: int = 6, horizon_us: float = 400_000.0,
                    shared_frac: float = 0.2, ring: int = 1 << 21,
                    params: Optional[NetworkParams] = None
                    ) -> Dict[str, object]:
    """Run one tournament cell; returns a flat, JSON-able stats dict.

    Raises :class:`LockError` if the replayed trace has any oracle or
    sanitizer violation — a tournament number from an unsafe run is
    worse than no number.  ``verdict`` is ``vacuous`` for a cell that
    granted nothing: the oracle then judged an empty history.
    """
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    if chaos not in ("none", "crash"):
        raise LockError(f"unknown chaos mode {chaos!r} (none|crash)")
    cluster = Cluster(n_nodes=n_nodes,
                      params=params or NetworkParams.infiniband(),
                      seed=seed)
    obs = cluster.observe(ring=ring, sanitize=True, strict=False)
    fairness = FairnessTracker().attach(obs)
    if chaos == "crash":
        from repro.faults import FaultPlan
        crash_a = 2 % n_nodes or 1
        crash_b = (n_nodes - 1) or 1
        cluster.install_faults(
            FaultPlan()
            .crash(crash_a, at=_CRASH_A_US, restart_at=_RESTART_US)
            .crash(crash_b, at=_CRASH_B_US))
    manager = _make_manager(scheme, cluster, n_locks, chaos)
    env = cluster.env
    zipf = ZipfGenerator(n_locks, alpha, cluster.rng.get("locks-arena"))
    rng = cluster.rng.get("locks-arena-times")
    grant_times = []
    failures = [0]

    def client_proc(env, client, think0, thinks, holds, shareds, locks):
        yield env.timeout(think0)
        for r in range(rounds):
            mode = (LockMode.SHARED if shareds[r] else LockMode.EXCLUSIVE)
            lock_i = locks[r]
            try:
                yield client.acquire(lock_i, mode)
            except (LockError, FaultError, RdmaError):
                failures[0] += 1
                yield env.timeout(thinks[r])
                continue
            grant_times.append(env.now)
            yield env.timeout(holds[r])
            try:
                yield client.release(lock_i)
            except (LockError, FaultError, RdmaError):
                failures[0] += 1
                return
            yield env.timeout(thinks[r])

    for i in range(n_clients):
        client = manager.client(cluster.nodes[i % n_nodes])
        # draw every random choice up front so the offered schedule is
        # identical across schemes for a given seed — the measured
        # difference is purely how fast each design drains it; short
        # thinks + a tight arrival window keep the hot locks saturated
        env.process(
            client_proc(env, client,
                        rng.uniform(0.0, 2_000.0),
                        [rng.uniform(20.0, 200.0) for _ in range(rounds)],
                        [rng.uniform(2.0, 10.0) for _ in range(rounds)],
                        [bool(rng.random() < shared_frac)
                         for _ in range(rounds)],
                        [int(zipf.next()) for _ in range(rounds)]),
            name=f"arena-{i}")
    env.run(until=horizon_us)

    view = TraceView.from_obs(obs).require_complete()
    _oracles, violations = replay_fresh(view, [LockOracle])
    sanitizer_violations = obs.violations()
    n_viol = len(violations) + len(sanitizer_violations)
    if n_viol:
        first = (violations or sanitizer_violations)[0]
        raise LockError(
            f"tournament run {scheme}/{n_clients}c/a{alpha}/{chaos} is "
            f"UNSAFE: {n_viol} violation(s); first: {first}")

    fsum = fairness.finish().get(manager.obs_name, {})
    makespan_us = grant_times[-1] if grant_times else env.now
    t95_us, ops_per_s_t95 = rate_at_quantile(grant_times)
    return {
        "scheme": scheme,
        "n_clients": n_clients,
        "alpha": alpha,
        "chaos": chaos,
        "seed": seed,
        "n_nodes": n_nodes,
        "n_locks": n_locks,
        "grants": len(grant_times),
        "failures": failures[0],
        "ops_per_s": (len(grant_times) / (makespan_us / 1e6)
                      if makespan_us > 0 else 0.0),
        "makespan_us": makespan_us,
        "t95_grant_us": t95_us,
        "ops_per_s_t95": ops_per_s_t95,
        "jain": fsum.get("jain", 1.0),
        "max_wait_us": fsum.get("max_wait_us", 0.0),
        "mean_wait_us": fsum.get("mean_wait_us", 0.0),
        "p99_wait_us": fsum.get("p99_wait_us", 0.0),
        "max_chain": fsum.get("max_chain", 0),
        "violations": n_viol,
        "events": len(view),
        "sim_now_us": env.now,
        "verdict": "ok" if grant_times else "vacuous",
    }
