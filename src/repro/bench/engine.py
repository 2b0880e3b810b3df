"""Wall-clock engine benchmarks + the CI perf gate.

Unlike the figure runners (which report *simulated* microseconds), this
suite measures how fast the simulator itself executes on the host:

* ``events``       — raw kernel throughput (agenda entries / second) on
                     an interleaved-timer workload.
* ``small_verbs``  — one-sided small-verb round trips / second on a
                     2-node InfiniBand cluster; also re-runs the same
                     workload with the naive kernel paths
                     (``REPRO_SLOW_KERNEL=1`` semantics) to report
                     ``speedup_vs_slow`` and assert both modes agree on
                     the final simulated clock.
* ``lock_ops``     — N-CoSED exclusive acquire/release pairs / second.
* ``scenario_ddss``— wall seconds for one judged run of the scenario
                     table's ``ddss`` row (build under tracing and
                     sanitizers, oracle replay, digest); informational,
                     not gated.

``run_suite`` returns a JSON-ready dict; the ``repro bench`` subcommand
writes it to ``BENCH_engine.json`` plus a timestamped copy under
``benchmarks/results/`` (:func:`repro.bench.harness.write_report`), and
gates ``GUARDED_RATES`` through
:func:`repro.bench.harness.check_regression`: fail when a guarded rate
drops more than 25 % below the committed baseline (missing baseline ⇒
gate skipped).
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict

__all__ = ["run_suite", "GUARDED_RATES", "DEFAULT_RESULT", "RESULTS_DIR"]

#: canonical result file (repo root) — doubles as the committed baseline
DEFAULT_RESULT = "BENCH_engine.json"
#: per-run archive directory
RESULTS_DIR = os.path.join("benchmarks", "results")

#: ``results.<bench>.<key>`` rates the CI gate guards against regression
GUARDED_RATES = (
    ("events", "events_per_sec"),
    ("small_verbs", "verbs_per_sec"),
    ("lock_ops", "ops_per_sec"),
    ("agenda", "uniform_entries_per_sec"),
    ("agenda", "narrow_band_entries_per_sec"),
    ("agenda", "burst_entries_per_sec"),
)


# ---------------------------------------------------------------------------
# individual benchmarks
# ---------------------------------------------------------------------------

def _bench_events(n_events: int) -> Dict[str, object]:
    """Kernel-only: four interleaved timer processes, no net layer."""
    from repro.sim import Environment

    env = Environment()
    per_proc = n_events // 4

    def ticker(env, period):
        for _ in range(per_proc):
            yield env.timeout(period)

    for period in (1.0, 2.5, 3.0, 7.0):
        env.process(ticker(env, period))
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    fired = 4 * per_proc
    return {
        "n": fired,
        "wall_s": round(wall, 4),
        "events_per_sec": round(fired / wall, 1),
    }


def _verb_workload(n_iters: int, slow: bool):
    """The small-verb loop: cas + faa + read + write per iteration."""
    from repro.net import Cluster
    from repro.sim import pin_kernel

    with pin_kernel("slow" if slow else "fast"):
        cluster = Cluster(n_nodes=2, seed=0)
    region = cluster.nodes[1].memory.register(4096, name="bench")
    key = region.remote_key()
    nic = cluster.nodes[0].nic
    env = cluster.env

    def client(env):
        for _ in range(n_iters):
            yield nic.cas_key(key, 0, 0, 1)
            yield nic.faa_key(key, 8, 1)
            yield nic.read_key(key, 16, 8)
            yield nic.write_key(key, b"12345678", 24)

    env.process(client(env))
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return 4 * n_iters / wall, env.now


def _bench_small_verbs(n_iters: int) -> Dict[str, object]:
    """Verb round trips per second, fast kernel vs naive kernel.

    ``REPRO_SLOW_KERNEL`` is read per Environment at construction, so
    both modes run in this process; ``sim_now_match`` certifies they
    finished at the identical simulated instant (the cheap half of the
    equivalence bar — the byte-identical-export half lives in
    ``tests/sim/test_fastpath.py``).
    """
    fast_rate, fast_now = _verb_workload(n_iters, slow=False)
    slow_rate, slow_now = _verb_workload(n_iters, slow=True)
    return {
        "n": 4 * n_iters,
        "verbs_per_sec": round(fast_rate, 1),
        "verbs_per_sec_slow": round(slow_rate, 1),
        "speedup_vs_slow": round(fast_rate / slow_rate, 2),
        "sim_now_match": fast_now == slow_now,
    }


def _agenda_workload(mix: str, n_entries: int) -> float:
    """Raw agenda entries/s: ``_schedule_call`` noop chains, no processes.

    Measures the agenda itself (heap pushes/pops and the same-instant
    batch of ``Environment.run``) without generator-resume overhead.
    ``mix`` shapes the delay distribution; the timed mixes keep 4096
    entries outstanding.
    """
    import random

    from repro.sim import Environment

    env = Environment()
    sched = env._schedule_call
    rng = random.Random(0xA6E2DA).random
    fired = [0]
    left = [n_entries]

    if mix in ("uniform", "narrow_band"):
        lo, span = (0.0, 1000.0) if mix == "uniform" else (0.5, 1.5)

        def fire():
            fired[0] += 1
            left[0] -= 1
            if left[0] > 0:
                sched(env._now + lo + rng() * span, fire)

        for _ in range(4096):
            sched(lo + rng() * span, fire)
    elif mix == "burst":
        # 64 completions at one shared instant per round — the
        # same-instant batch-dispatch shape of the NIC fast verbs.
        def fire():
            fired[0] += 1
            left[0] -= 1

        def round_end():
            fired[0] += 1
            left[0] -= 1
            if left[0] > 0:
                t = env._now + 5.0
                for _ in range(63):
                    sched(t, fire)
                sched(t, round_end)

        for _ in range(63):
            sched(5.0, fire)
        sched(5.0, round_end)
    else:  # pragma: no cover - caller passes a fixed mix list
        raise ValueError(f"unknown agenda mix: {mix!r}")

    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return fired[0] / wall


def _bench_agenda(n_entries: int) -> Dict[str, object]:
    """Agenda microbenchmark: entries/s on three delay mixes."""
    out: Dict[str, object] = {"n": n_entries}
    for mix in ("uniform", "narrow_band", "burst"):
        out[f"{mix}_entries_per_sec"] = round(
            _agenda_workload(mix, n_entries), 1)
    return out


def _bench_lock_ops(n_ops: int) -> Dict[str, object]:
    """N-CoSED exclusive acquire/release pairs per second (4 clients)."""
    from repro.net import Cluster, NetworkParams
    from repro.dlm import LockMode, NCoSEDManager

    cluster = Cluster(n_nodes=5, params=NetworkParams.infiniband(),
                      seed=0)
    manager = NCoSEDManager(cluster, n_locks=16)
    env = cluster.env
    per_client = n_ops // 4

    def worker(env, client, lock_id):
        for _ in range(per_client):
            yield client.acquire(lock_id, LockMode.EXCLUSIVE)
            yield client.release(lock_id)

    for i in range(4):
        # distinct locks: measures the uncontended verb path, not
        # queueing policy (cascades are Fig 5's subject)
        env.process(worker(env, manager.client(cluster.nodes[i + 1]), i))
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    done = 4 * per_client
    return {
        "n": done,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(done / wall, 1),
    }


def _bench_scenario() -> Dict[str, object]:
    """End-to-end wall time of one judged run of the ``ddss`` row."""
    from repro.scenarios import judged_run

    t0 = time.perf_counter()
    record, _obs = judged_run("ddss")
    wall = time.perf_counter() - t0
    return {
        "wall_s": round(wall, 4),
        "sim_us": record["sim_now_us"],
        "trace_events": record["events"],
    }


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_suite(quick: bool = False, workers: int = 0) -> Dict[str, object]:
    """Run every engine benchmark; returns the JSON-ready report.

    The suite dispatches through the lab runner (an ephemeral in-memory
    store): ``workers=0`` executes in-process exactly as before, while
    ``workers=N`` fans the four benchmarks out over a process pool.
    Wall-clock rates measured with concurrent workers share the host
    with each other — only compare runs at the same ``workers`` setting
    (the CI gate always uses 0).
    """
    from repro.lab import Runner, Sweep

    sweep = Sweep(
        name="engine", scenario="repro.lab.scenarios:engine_bench",
        grid={"bench": ["events", "agenda", "small_verbs", "lock_ops",
                        "scenario_ddss"]},
        base={"scale": 1 if quick else 4})
    runner = Runner(sweep, workers=workers)
    report = runner.run()
    if report["failed"]:
        raise RuntimeError(
            f"engine benchmarks failed: {report['failures']}")
    results = {r["params"]["bench"]: r["result"]
               for r in runner.store.records()}
    return {
        "schema": 1,
        "suite": "engine",
        "quick": quick,
        "workers": workers,
        "python": platform.python_version(),
        "results": {
            "events": results["events"],
            "agenda": results["agenda"],
            "small_verbs": results["small_verbs"],
            "lock_ops": results["lock_ops"],
            "scenario_ddss": results["scenario_ddss"],
        },
    }
