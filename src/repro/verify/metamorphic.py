"""Metamorphic check driver: same scenario, equivalent configurations.

The simulator makes two strong determinism claims the oracles alone
cannot test:

1. **kernel equivalence** — the fast kernel and the naive reference
   kernel (``REPRO_SLOW_KERNEL=1``) must produce *byte-identical*
   trace exports for the same (check, seed, n_nodes);
2. **parameter robustness** — every packaged check must replay clean
   under permuted seeds and node counts, not just the defaults.

This driver expands the (check × kernel × n_nodes × seed) grid through
:mod:`repro.lab` — reusing its process pool, retry, and resumable
store — then folds the records: each (check, n_nodes, seed) cell must
have one ``trace_sha`` across both kernels, and every cell must
report zero violations.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from .suites import CHECKS, KERNELS, _lookup

__all__ = ["metamorphic_sweep"]

SCENARIO = "repro.verify.suites:check_scenario"


def metamorphic_sweep(checks: Optional[Sequence[str]] = None,
                      seeds: Sequence[int] = (0, 1),
                      node_counts: Sequence[int] = (0,),
                      workers: int = 0,
                      store_path: Optional[str] = None,
                      progress: bool = False) -> Dict[str, Any]:
    """Run the metamorphic grid; returns the fold report.

    ``node_counts`` may include 0, meaning "each check's default".
    ``workers=0`` runs serially in-process (deterministic, test
    friendly); higher values dispatch through the lab process pool.
    """
    from ..lab import ResultStore, Runner, Sweep

    names = sorted(checks) if checks else sorted(CHECKS)
    for name in names:
        _lookup(name)  # fail fast on typos

    sweep = Sweep(
        name="verify-meta",
        scenario=SCENARIO,
        grid={
            "check": list(names),
            "kernel": list(KERNELS),
            "n_nodes": [int(n) for n in node_counts],
        },
        seeds=[int(s) for s in seeds],
    )
    store = ResultStore(store_path)
    runner = Runner(sweep, store=store, workers=workers,
                    progress=progress)
    summary = runner.run()

    # fold: group the kernels per cell, diff the trace digests
    cells: Dict[tuple, Dict[str, dict]] = {}
    for rec in store.records():
        p, res = rec["params"], rec["result"]
        key = (p["check"], p["n_nodes"], rec["seed"])
        cells.setdefault(key, {})[p["kernel"]] = res

    kernels = list(sweep.grid["kernel"])
    mismatches = []
    violations = []
    pairs = 0
    for (check, n_nodes, seed), by_kernel in sorted(cells.items()):
        for kern, res in sorted(by_kernel.items()):
            if res["verdict"] != "ok":
                violations.append({"check": check, "n_nodes": n_nodes,
                                   "seed": seed, "kernel": kern,
                                   "violations": res["violations"]})
        if any(k not in by_kernel for k in kernels):
            continue  # a failed run; already in summary.failures
        pairs += 1
        shas = {k: by_kernel[k]["trace_sha"] for k in kernels}
        if len(set(shas.values())) != 1:
            mismatches.append({
                "check": check, "n_nodes": n_nodes, "seed": seed,
                "shas": shas,
                "events": {k: by_kernel[k]["events"] for k in kernels},
            })

    ok = (not mismatches and not violations
          and not summary.get("failed", 0))
    return {
        "checks": names,
        "kernels": kernels,
        "seeds": list(sweep.seeds),
        "node_counts": list(sweep.grid["n_nodes"]),
        "runs": summary.get("completed", 0) + summary.get("skipped", 0),
        "run_failures": summary.get("failed", 0),
        "pairs": pairs,
        "kernel_mismatches": mismatches,
        "violations": violations,
        "verdict": "ok" if ok else "violation",
    }
