"""Lock-design tournament: Zipf-skewed contention × chaos × scheme.

One tournament cell runs ``n_clients`` contending clients against one
lock scheme: each client loops picking a lock from a Zipf distribution
(``alpha`` skew — the contention knob: at high alpha everyone piles
onto lock 0), holds it briefly, releases, thinks, repeats.  The run is
observed end to end; afterwards the :class:`~repro.obs.FairnessTracker`
summary is folded into the stats and the full trace is judged by
:func:`repro.verify.judge` (every oracle, one replay), so every
reported number comes from a run whose mutual-exclusion / FIFO / cohort
/ queue-order / epoch invariants were machine-checked.

The designs are :data:`repro.dlm.DESIGNS`.  ``chaos="crash"`` adds the
standard two-crash fault plan (one node restarts, one stays dead) and
gives the epoch-fenced designs (N-CoSED, MCS, ALock) a lease; SRSL and
DQNL run the same workload and simply eat the failures.

Deterministic: same arguments, same seed => identical stats dict.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigError, FaultError, LockError, RdmaError
from repro.net.cluster import Cluster
from repro.net.params import NetworkParams
from repro.obs import FairnessTracker
from repro.verify import TraceView, judge
from repro.workloads.zipf import ZipfGenerator

from repro.dlm import DESIGNS
from repro.dlm.base import LockMode
from repro.dlm.ft import EpochFencedManager

__all__ = ["lock_tournament", "rate_at_quantile"]

#: lease for the fault-tolerant schemes under chaos (µs)
_CHAOS_LEASE_US = 600.0

#: chaos crash plan (µs): absolute, early enough to land while the
#: contention herd is still draining (makespans run 3-40 ms); one node
#: restarts, the other stays dead
_CRASH_A_US = 3_000.0
_RESTART_US = 8_000.0
_CRASH_B_US = 5_000.0

#: the arena: nodes, lock ids, acquire/release rounds per client, and
#: the run's horizon (µs)
N_NODES = 8
N_LOCKS = 16
ROUNDS = 6
HORIZON_US = 400_000.0
#: share of acquires in shared mode
SHARED_FRAC = 0.2
#: trace ring, events
RING = 1 << 21
#: the fraction of grants :func:`rate_at_quantile` reads the rate at
GRANT_QUANTILE = 0.95


def rate_at_quantile(grant_times_us: Sequence[float]
                     ) -> Tuple[float, float]:
    """``(t, grants/s up to t)``, ``t`` being when a fraction
    :data:`GRANT_QUANTILE` of the grants had landed: unlike ``grants /
    last_grant_time``, one grant landing after a recovery instead of
    never cannot halve it."""
    times = sorted(grant_times_us)
    k = math.ceil(GRANT_QUANTILE * len(times))
    if k == 0 or times[k - 1] <= 0:
        return 0.0, 0.0
    return times[k - 1], k / (times[k - 1] / 1e6)


def lock_tournament(scheme: str, n_clients: int = 256,
                    alpha: float = 0.9, chaos: str = "none",
                    seed: int = 0) -> Dict[str, object]:
    """Run one tournament cell; returns a flat, JSON-able stats dict.

    Raises :class:`LockError` if the judged trace has any oracle
    violation — a tournament number from an unsafe run is
    worse than no number.  ``verdict`` is ``vacuous`` for a cell that
    granted nothing: the oracle then judged an empty history.
    """
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    if scheme not in DESIGNS:
        raise LockError(f"unknown scheme {scheme!r}; "
                        f"available: {', '.join(DESIGNS)}")
    if chaos not in ("none", "crash"):
        raise LockError(f"unknown chaos mode {chaos!r} (none|crash)")
    cluster = Cluster(n_nodes=N_NODES, params=NetworkParams.infiniband(),
                      seed=seed)
    obs = cluster.observe(ring=RING)
    fairness = FairnessTracker().attach(obs)
    if chaos == "crash":
        from repro.faults import FaultPlan
        crash_a = 2 % N_NODES or 1
        crash_b = (N_NODES - 1) or 1
        cluster.install_faults(
            FaultPlan()
            .crash(crash_a, at=_CRASH_A_US, restart_at=_RESTART_US)
            .crash(crash_b, at=_CRASH_B_US))
    manager_cls = DESIGNS[scheme].manager
    fenced = chaos != "none" and issubclass(manager_cls, EpochFencedManager)
    manager = manager_cls(cluster, n_locks=N_LOCKS,
                          **({"lease_us": _CHAOS_LEASE_US} if fenced else {}))
    env = cluster.env
    zipf = ZipfGenerator(N_LOCKS, alpha, cluster.rng.get("locks-arena"))
    rng = cluster.rng.get("locks-arena-times")
    grant_times = []
    failures = [0]

    def client_proc(env, client, think0, thinks, holds, shareds, locks):
        yield env.timeout(think0)
        for r in range(ROUNDS):
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
        client = manager.client(cluster.nodes[i % N_NODES])
        # draw every random choice up front so the offered schedule is
        # identical across schemes for a given seed — the measured
        # difference is purely how fast each design drains it; short
        # thinks + a tight arrival window keep the hot locks saturated
        env.process(
            client_proc(env, client,
                        rng.uniform(0.0, 2_000.0),
                        [rng.uniform(20.0, 200.0) for _ in range(ROUNDS)],
                        [rng.uniform(2.0, 10.0) for _ in range(ROUNDS)],
                        [bool(rng.random() < SHARED_FRAC)
                         for _ in range(ROUNDS)],
                        [int(zipf.next()) for _ in range(ROUNDS)]),
            name=f"arena-{i}")
    env.run(until=HORIZON_US)

    fsum = fairness.finish().get(manager.obs_name, {})
    makespan_us = grant_times[-1] if grant_times else env.now
    t95_us, ops_per_s_t95 = rate_at_quantile(grant_times)
    stats = {
        "scheme": scheme,
        "n_clients": n_clients,
        "alpha": alpha,
        "chaos": chaos,
        "seed": seed,
        "n_nodes": N_NODES,
        "n_locks": N_LOCKS,
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
        "sim_now_us": env.now,
    }
    record = judge(TraceView.from_obs(obs).require_complete(), stats,
                   "locks")
    if record["verdict"] == "violation":
        raise LockError(
            f"tournament run {scheme}/{n_clients}c/a{alpha}/{chaos} is "
            f"UNSAFE: {record['violations']} violation(s); first: "
            f"{record['violation_msgs'][0]}")
    stats.update(violations=record["violations"], events=record["events"],
                 verdict=record["verdict"] if grant_times else "vacuous")
    return stats
