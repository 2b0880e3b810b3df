"""Round loop, correctness gate and metric assembly for one workload.

A workload module provides ``NAME``, ``LAYER`` (prefix of its per-cell
metrics), ``CELLS`` (names, in run order), ``make_cell(name, seed,
rec)`` and optionally ``cross_check(results)``.  A *round* builds and
drains every cell once; the timed rounds run with tracing off, then one
counting round runs under cProfile with spans on.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perf.stats import percentile, spread, sum_of_mins
from perf.trace import LAYERS, SpanRecorder, bucket_profile

__all__ = ["CheckFailed", "CellResult", "Cell", "net_counters",
           "run_workload", "K_MIN"]

#: fewest timed rounds, however short ``--seconds`` is
K_MIN = 3

HERE = os.path.dirname(os.path.abspath(__file__))
REPRO_ROOT = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                          "src", "repro")


class CheckFailed(Exception):
    """A correctness check did not hold; ``check`` is its stable name."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass
class CellResult:
    """What one drained cell reports; everything here is on the sim or
    count clock and must repeat exactly from round to round."""

    ops: int                  #: completed in the measured window
    attempted: int
    failed: int
    makespan_us: float        #: first issue -> last completion
    latencies: List[float]    #: exact per-op simulated µs
    counters: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)

    def digest(self) -> str:
        lat = self.latencies
        blob = json.dumps(
            [self.ops, self.attempted, self.failed, repr(self.makespan_us),
             len(lat), repr(sum(lat)), repr(max(lat, default=0.0)),
             sorted((k, repr(v)) for k, v in self.counters.items()),
             sorted((k, repr(v)) for k, v in self.facts.items())])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Cell:
    """One cluster + one fixed closed-loop schedule.

    ``build`` (cluster, schedule, warm-up) is charged to ``setup_s``;
    only ``drain`` is inside the timed region; ``finish`` runs the
    cell's correctness checks and collects its counters.
    """

    name = ""

    def __init__(self):
        #: host CPU seconds of named phases inside ``drain``
        self.phases: Dict[str, float] = {}

    def build(self) -> None:
        raise NotImplementedError

    def drain(self) -> None:
        raise NotImplementedError

    def finish(self) -> CellResult:
        raise NotImplementedError


def net_counters(cluster) -> Dict[str, float]:
    """Snapshot of the public per-cluster counters (cumulative)."""
    nics = [n.nic for n in cluster.nodes]
    fabric = cluster.fabric
    return {
        "net.verbs": sum(n.rdma_reads + n.rdma_writes + n.atomics
                         for n in nics),
        "net.atomics": sum(n.atomics for n in nics),
        "net.sends": sum(n.sends for n in nics),
        "net.transfers": fabric.transfers,
        "net.bytes": fabric.bytes_moved,
        "topo.xrack": getattr(fabric, "xrack_transfers", 0),
        # the one private read: no public agenda counter exists yet
        "sim.agenda": getattr(cluster.env, "_seq", None) or 0,
    }


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

def _run_round(mod, seed: int, rec: Optional[SpanRecorder],
               prof: Optional[cProfile.Profile]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for name in mod.CELLS:
        gc.collect()
        if rec is not None:
            rec.cell = name
        t0 = time.process_time()
        cell = mod.make_cell(name, seed, rec)
        cell.build()
        t1 = time.process_time()
        if prof is not None:
            prof.enable()
        cell.drain()
        if prof is not None:
            prof.disable()
        t2 = time.process_time()
        out[name] = {"build_s": t1 - t0, "drain_s": t2 - t1,
                     "phases": dict(cell.phases), "result": cell.finish()}
    if hasattr(mod, "cross_check"):
        mod.cross_check({n: c["result"] for n, c in out.items()})
    return out


def _same_as_first(mod, first: Dict[str, str], rnd: Dict[str, dict],
                   which: str) -> None:
    """Check a later round against round 1, then drop its results: the
    latency lists of k rounds would make peak RSS grow with k."""
    for name in mod.CELLS:
        if rnd[name].pop("result").digest() != first[name]:
            raise CheckFailed(
                "deterministic-rounds",
                f"{mod.NAME}.{name}: sim/count results of {which} differ "
                f"from round 1")


def run_workload(mod, seed: int, seconds: float, import_s: float,
                 spans_path: Optional[str] = None) -> dict:
    """Timed rounds for ``seconds`` (at least :data:`K_MIN`), then the
    counting round; returns the JSON-able result for this workload."""
    start = time.perf_counter()
    rounds = [_run_round(mod, seed, None, None)]
    first = {n: rounds[0][n]["result"].digest() for n in mod.CELLS}
    while len(rounds) < K_MIN or time.perf_counter() - start < seconds:
        rounds.append(_run_round(mod, seed, None, None))
        _same_as_first(mod, first, rounds[-1], f"round {len(rounds)}")
    timed_wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rec = SpanRecorder(mod.NAME)
    prof = cProfile.Profile()
    counting = _run_round(mod, seed, rec, prof)
    _same_as_first(mod, first, counting, "the counting round")
    if spans_path:
        rec.write_jsonl(spans_path)

    return _assemble(mod, seed, rounds, counting, first, prof, len(rec),
                     import_s, peak_rss_mb, timed_wall_s)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

#: per-layer ratio metrics: name -> (numerator, denominator) over the
#: summed cell counters; "ops" is the workload's op count.  A layer the
#: workload does not exercise reads 0.
RATIOS = {
    "net.verbs_per_op": ("net.verbs", "ops"),
    "net.atomics_per_op": ("net.atomics", "ops"),
    "net.sends_per_op": ("net.sends", "ops"),
    "net.fabric_transfers_per_op": ("net.transfers", "ops"),
    "net.fabric_bytes_per_op": ("net.bytes", "ops"),
    "topo.xrack_transfers_per_op": ("topo.xrack", "ops"),
    "sim.agenda_entries_per_op": ("sim.agenda", "ops"),
    "dlm.grants_per_acquire": ("dlm.grants", "dlm.acquires"),
    "ddss.cache_hit_ratio": ("ddss.hits", "ddss.gets"),
    "txn.commits_per_attempt": ("txn.commits", "txn.attempts"),
    "cache.hit_ratio": ("cache.hits", "cache.lookups"),
    "datacenter.backend_requests_per_op": ("datacenter.backend", "ops"),
    "obs.trace_events_per_op": ("obs.events", "ops"),
}

#: cells whose p99 grant/commit latency is a per-layer metric
P99_LAYERS = ("dlm", "txn")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _assemble(mod, seed, rounds, counting, digests, prof, n_spans,
              import_s, peak_rss_mb, timed_wall_s) -> dict:
    cells = mod.CELLS
    res = {n: rounds[0][n]["result"] for n in cells}
    ops = sum(r.ops for r in res.values())
    attempted = sum(r.attempted for r in res.values())
    failed = sum(r.failed for r in res.values())
    if ops <= 0:
        raise CheckFailed("no-ops", f"{mod.NAME}: no operation completed")

    build = {n: [rnd[n]["build_s"] for rnd in rounds] for n in cells}
    drain = {n: [rnd[n]["drain_s"] for rnd in rounds] for n in cells}
    drain_min = sum_of_mins(drain.values())
    lat = sorted(x for r in res.values() for x in r.latencies)
    makespan_s = sum(r.makespan_us for r in res.values()) / 1e6

    stats = pstats.Stats(prof)
    buckets = bucket_profile(stats.stats, REPRO_ROOT, HERE)
    profiled_s = sum(b[1] for b in buckets.values())
    counting_drain_s = sum(counting[n]["drain_s"] for n in cells)

    end_to_end = {
        "setup_s": import_s + sum_of_mins(build.values()),
        "ops_per_host_s": ops / drain_min,
        "py_calls_per_op": stats.total_calls / ops,
        "peak_rss_mb": peak_rss_mb,
        "sim_ops_per_s": ops / makespan_s,
        "sim_lat_p50_us": percentile(lat, 50.0),
        "sim_lat_p99_us": percentile(lat, 99.0),
        "fail_ratio": failed / attempted,
    }

    per_layer: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        calls, self_s = buckets[layer]
        per_layer[f"{layer}.py_calls_per_op"] = calls / ops
        per_layer[f"{layer}.host_self_share"] = _ratio(self_s, profiled_s)
    totals: Dict[str, float] = {"ops": ops}
    for r in res.values():
        for key, val in r.counters.items():
            if key == "datacenter.queue_peak":
                totals[key] = max(totals.get(key, 0), val)
            else:
                totals[key] = totals.get(key, 0) + val
    for name, (num, den) in RATIOS.items():
        per_layer[name] = _ratio(totals.get(num, 0), totals.get(den, 0))
    per_layer["datacenter.queue_peak"] = totals.get(
        "datacenter.queue_peak", 0)
    per_layer["trace_overhead_ratio"] = counting_drain_s / drain_min
    for n in cells:
        r = res[n]
        prefix = f"{mod.LAYER}.{n}"
        per_layer[f"{prefix}.host_us_per_op"] = (
            min(drain[n]) / r.ops * 1e6 if r.ops else 0.0)
        per_layer[f"{prefix}.sim_ops_per_s"] = _ratio(
            r.ops, r.makespan_us / 1e6)
        if mod.LAYER in P99_LAYERS:
            per_layer[f"{prefix}.sim_lat_p99_us"] = percentile(
                sorted(r.latencies), 99.0)
    if hasattr(mod, "phase_metrics"):
        per_layer.update(mod.phase_metrics(rounds))

    per_round = [sum(rnd[n]["drain_s"] for n in cells) for rnd in rounds]
    per_round_build = [sum(rnd[n]["build_s"] for n in cells)
                       for rnd in rounds]
    return {
        "workload": mod.NAME,
        "seed": seed,
        "k": len(rounds),
        "timed_wall_s": timed_wall_s,
        "attempted": attempted,
        "failed": failed,
        "lat_samples": len(lat),
        "spans": n_spans,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        # ungated context for the host-clock numbers
        "host_spread": {
            "drain_s_per_round": spread(per_round),
            "build_s_per_round": spread(per_round_build),
            "import_s": import_s,
        },
        "cells": {
            n: {"ops": res[n].ops, "attempted": res[n].attempted,
                "failed": res[n].failed,
                "makespan_us": res[n].makespan_us,
                "lat_samples": len(res[n].latencies),
                "digest": digests[n],
                "drain_s": spread(drain[n]) | {"min": min(drain[n])},
                "build_s": spread(build[n]) | {"min": min(build[n])},
                "counters": res[n].counters,
                "facts": res[n].facts}
            for n in cells},
    }
