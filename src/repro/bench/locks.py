"""Lock-design tournament benchmark + its CI regression gate.

Like :mod:`repro.bench.topo` these are *simulated* figures of merit —
fully deterministic for a given seed.  ``run_locks_suite`` runs the
five-design tournament (:func:`repro.dlm.tournament.lock_tournament`)
at each Zipf-skewed contention level, once more under crash chaos at
the middle level, and folds the results into a crossover table: which
design wins (highest grant throughput) at which contention level.

Every cell is replayed through the extended
:class:`~repro.verify.locks.LockOracle` inside ``lock_tournament`` —
a cell with any violation raises instead of reporting a number.

``repro locks bench`` writes ``BENCH_locks.json`` plus a timestamped
copy under ``benchmarks/results/``, and gates each scheme's throughput
at the top contention level (``GUARDED_LOCKS_RATES``) through
:func:`repro.bench.harness.check_regression`, the same 25 % drop rule
as the engine and topo suites.
"""

from __future__ import annotations

import platform
from typing import Dict, Optional, Sequence

from ..dlm.tournament import SCHEMES, lock_tournament

__all__ = ["run_locks_suite", "GUARDED_LOCKS_RATES",
           "DEFAULT_LOCKS_RESULT", "CONTENTION_LEVELS"]

#: canonical result file (repo root) — doubles as the committed baseline
DEFAULT_LOCKS_RESULT = "BENCH_locks.json"

#: Zipf-skewed contending-client counts (the contention axis)
CONTENTION_LEVELS = (64, 256, 1024)

#: Zipf skew for the lock-choice distribution
DEFAULT_ALPHA = 1.2

#: ``results.rates.<key>`` rates the CI gate guards against regression
GUARDED_LOCKS_RATES = tuple(
    ("rates", f"{scheme}_ops_per_s") for scheme in SCHEMES)

#: per-cell stats copied into the report (the full dict stays in the
#: tournament return value; the report keeps the comparable core)
_CELL_KEYS = ("grants", "failures", "ops_per_s", "p99_wait_us",
              "mean_wait_us", "max_wait_us", "jain", "max_chain",
              "violations", "events", "sim_now_us")


def _cell(stats: Dict[str, object], extra=()) -> Dict[str, object]:
    out = {k: stats[k] for k in _CELL_KEYS}
    for k in ("ops_per_s", *extra):
        out[k] = round(float(stats[k]), 1)
    for k in ("p99_wait_us", "mean_wait_us", "max_wait_us", "jain"):
        out[k] = round(float(stats[k]), 3)
    return out


def run_locks_suite(seed: int = 0,
                    levels: Sequence[int] = CONTENTION_LEVELS,
                    alpha: float = DEFAULT_ALPHA,
                    chaos_level: Optional[int] = None
                    ) -> Dict[str, object]:
    """Run the full tournament; returns a JSON-ready report.

    ``chaos_level`` picks the client count for the chaos column
    (default: the middle entry of ``levels``).
    """
    levels = tuple(int(n) for n in levels)
    if not levels:
        raise ValueError("need at least one contention level")
    if chaos_level is None:
        chaos_level = levels[len(levels) // 2]
    tournament: Dict[str, dict] = {}
    for n_clients in levels:
        for scheme in SCHEMES:
            stats = lock_tournament(scheme, n_clients=n_clients,
                                    alpha=alpha, chaos="none", seed=seed)
            tournament[f"{scheme}@{n_clients}"] = _cell(stats)
    chaos: Dict[str, dict] = {}
    for scheme in SCHEMES:
        stats = lock_tournament(scheme, n_clients=int(chaos_level),
                                alpha=alpha, chaos="crash", seed=seed)
        # one straggler must not halve this column: carry the t95 rate
        chaos[scheme] = _cell(stats, ("t95_grant_us", "ops_per_s_t95"))
    winners = {
        str(n): max(SCHEMES,
                    key=lambda s: tournament[f"{s}@{n}"]["ops_per_s"])
        for n in levels}
    top = levels[-1]
    rates = {f"{scheme}_ops_per_s": tournament[f"{scheme}@{top}"]
             ["ops_per_s"] for scheme in SCHEMES}
    return {
        "suite": "locks",
        "seed": seed,
        "alpha": alpha,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "results": {
            "tournament": tournament,
            "chaos": chaos,
            "crossover": {"levels": list(levels), "winners": winners},
            "rates": rates,
        },
    }
