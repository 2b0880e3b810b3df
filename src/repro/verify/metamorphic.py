"""Metamorphic check driver: every scenario under permuted parameters.

The oracles judge one configuration at a time; this driver checks
**parameter robustness**: every packaged scenario must replay clean
under permuted seeds and node counts, not just the defaults.  It
expands the (scenario × n_nodes × seed) grid through :mod:`repro.lab`
— reusing its process pool and resumable store — and every cell must
report verdict ``ok``.  (Kernel equivalence, the other determinism
claim, is checked against the test-side reference kernel:
``tests/verify/test_kernel_fold.py``.)
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

__all__ = ["metamorphic_sweep"]


def metamorphic_sweep(checks: Optional[Sequence[str]] = None,
                      seeds: Sequence[int] = (0, 1),
                      node_counts: Sequence[int] = (0,),
                      workers: int = 0) -> Dict[str, Any]:
    """Run the metamorphic grid; returns the fold report.

    ``node_counts`` may include 0, meaning "each scenario's default".
    ``workers=0`` runs serially in-process (deterministic, test
    friendly); higher values dispatch through the lab process pool.
    """
    from ..scenarios import SCENARIOS, lab_sweep, lookup

    names = sorted(checks) if checks else sorted(SCENARIOS)
    for name in names:
        lookup(name)  # fail fast on typos
    node_counts = [int(n) for n in node_counts]
    records, summary = lab_sweep(
        "verify-meta", {"scenario": names, "n_nodes": node_counts},
        seeds, workers)
    violations = [{"scenario": rec["params"]["scenario"],
                   "n_nodes": rec["params"]["n_nodes"],
                   "seed": rec["seed"], "verdict": rec["result"]["verdict"],
                   "violations": rec["result"]["violations"]}
                  for rec in sorted(records, key=lambda r: (
                      r["params"]["scenario"], r["params"]["n_nodes"],
                      r["seed"]))
                  if rec["result"]["verdict"] != "ok"]
    ok = not violations and not summary.get("failed", 0)
    return {
        "checks": names,
        "seeds": [int(s) for s in seeds],
        "node_counts": node_counts,
        "runs": summary.get("completed", 0) + summary.get("skipped", 0),
        "run_failures": summary.get("failed", 0),
        "violations": violations,
        "verdict": "ok" if ok else "violation",
    }
