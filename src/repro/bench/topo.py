"""Topology benchmarks + their CI regression gate.

Unlike :mod:`repro.bench.engine` (host wall-clock), these report
*simulated* figures of merit for the rack/spine fabric, so the numbers
are fully deterministic for a given seed:

* ``verb_latency``     — one-sided read RTT within a rack vs across the
                         oversubscribed spine (microseconds, plus the
                         derived ops/s rates the gate guards).
* ``lock_throughput``  — N-CoSED acquire/release throughput with every
                         lock homed on one node vs consistent-hash
                         sharded across the membership.

``run_topo_suite`` returns a JSON-ready dict; ``repro topo bench``
writes it to ``BENCH_topo.json`` plus a timestamped copy under
``benchmarks/results/``, and gates ``GUARDED_TOPO_RATES`` through
:func:`repro.bench.harness.check_regression` (the same 25 % drop rule
as the engine suite).
"""

from __future__ import annotations

import platform
from typing import Dict

__all__ = ["run_topo_suite", "GUARDED_TOPO_RATES", "DEFAULT_TOPO_RESULT"]

#: canonical result file (repo root) — doubles as the committed baseline
DEFAULT_TOPO_RESULT = "BENCH_topo.json"

#: ``results.<bench>.<key>`` rates the CI gate guards against regression
#: (latencies are guarded through their inverted ops/s forms so "lower
#: rate = regression" holds uniformly)
GUARDED_TOPO_RATES = (
    ("verb_latency", "intra_rack_ops_per_s"),
    ("verb_latency", "cross_rack_ops_per_s"),
    ("lock_throughput", "single_home_ops_per_s"),
    ("lock_throughput", "sharded_ops_per_s"),
)


def run_topo_suite(seed: int = 0) -> Dict[str, object]:
    """Run both topology benchmarks; returns a JSON-ready report."""
    from ..topo.scenarios import measure_lock_throughput, measure_verb_latency

    verbs = dict(measure_verb_latency(seed=seed))
    for k in ("intra_rack", "cross_rack"):
        us = verbs[f"{k}_us"]
        verbs[f"{k}_ops_per_s"] = round(1e6 / us, 1) if us > 0 else 0.0
    verbs["cross_over_intra"] = round(
        verbs["cross_rack_us"] / verbs["intra_rack_us"], 3)
    locks = dict(measure_lock_throughput(seed=seed))
    return {
        "suite": "topo",
        "seed": seed,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "results": {"verb_latency": verbs, "lock_throughput": locks},
    }
