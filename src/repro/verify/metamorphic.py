"""Metamorphic check driver: same scenario, equivalent configurations.

The simulator makes two strong determinism claims the oracles alone
cannot test:

1. **kernel equivalence** — the fast kernel and the naive reference
   kernel (``REPRO_SLOW_KERNEL=1``) must produce *byte-identical*
   trace exports for the same (scenario, seed, n_nodes);
2. **parameter robustness** — every packaged scenario must replay
   clean under permuted seeds and node counts, not just the defaults.

This driver expands the (scenario × kernel × n_nodes × seed) grid
through :mod:`repro.lab` — reusing its process pool, retry, and
resumable store — then folds the records: each (scenario, n_nodes,
seed) cell must have one ``trace_sha`` across both kernels, and every
cell must report verdict ``ok``.

A FIFO in the library *observes* the order of two same-instant
events, which the kernels are free to break differently: an egress
link serves two same-instant injections from one node in pop order, a
receive queue hands two same-instant arrivals to its server in pop
order, and every instant downstream of such a pair may move
(DESIGN.md §9).  Cells where that happens are listed in
:data:`KNOWN_TIES` rather than dodged by seed choice; the fold checks
the list both ways.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["metamorphic_sweep", "KNOWN_TIES"]

#: ``(scenario, n_nodes, seed)`` cells (``n_nodes`` 0 = the scenario's
#: default) whose digests differ across kernels because a FIFO saw two
#: same-instant events in either order.  Each entry is proven to start
#: at such a pair — of the kind its reason names before the colon — by
#: ``tests/verify/test_known_ties.py``; a differing cell not listed
#: here fails the sweep, and so does a listed cell that now matches.
KNOWN_TIES: Dict[Tuple[str, int, int], str] = {
    ("cache-hybcc", 0, 1):
        "link tie: node 0 injects a write ack and a host-posted write "
        "at t=317.2279726955068, the run's first same-instant pair",
    ("txn-mixed", 0, 0):
        "receiver tie: requests from nodes 1 and 3 reach node 0's "
        "server queue together at t=262.57777777777807; it answers "
        "them 2 us apart in pop order",
}


def metamorphic_sweep(checks: Optional[Sequence[str]] = None,
                      seeds: Sequence[int] = (0, 1),
                      node_counts: Sequence[int] = (0,),
                      workers: int = 0,
                      store_path: Optional[str] = None,
                      progress: bool = False) -> Dict[str, Any]:
    """Run the metamorphic grid; returns the fold report.

    ``node_counts`` may include 0, meaning "each scenario's default".
    ``workers=0`` runs serially in-process (deterministic, test
    friendly); higher values dispatch through the lab process pool.
    """
    from ..scenarios import SCENARIOS, fold_kernels, lab_sweep, lookup
    from ..sim import KERNELS

    names = sorted(checks) if checks else sorted(SCENARIOS)
    for name in names:
        lookup(name)  # fail fast on typos
    node_counts = [int(n) for n in node_counts]
    records, summary = lab_sweep(
        "verify-meta",
        {"scenario": names, "kernel": list(KERNELS),
         "n_nodes": node_counts},
        seeds, workers, store_path, progress)

    cells: Dict[tuple, Dict[str, dict]] = {}
    for rec in records:
        p = rec["params"]
        cells.setdefault((p["scenario"], p["n_nodes"], rec["seed"]),
                         {})[p["kernel"]] = rec["result"]
    violations = [{"scenario": name, "n_nodes": n_nodes, "seed": seed,
                   "kernel": kern, "verdict": res["verdict"],
                   "violations": res["violations"]}
                  for (name, n_nodes, seed), by_kernel
                  in sorted(cells.items())
                  for kern, res in sorted(by_kernel.items())
                  if res["verdict"] != "ok"]
    pairs, diffs = fold_kernels(cells, KERNELS)
    mismatches, ties = [], []
    for key, shas in diffs:
        (ties if key in KNOWN_TIES else mismatches).append(
            {"scenario": key[0], "n_nodes": key[1], "seed": key[2],
             "shas": shas,
             "events": {k: cells[key][k]["events"] for k in KERNELS}})
    differing = {key for key, _shas in diffs}
    stale = [{"scenario": key[0], "n_nodes": key[1], "seed": key[2]}
             for key in sorted(KNOWN_TIES)
             if key not in differing
             and all(k in cells.get(key, ()) for k in KERNELS)]

    ok = (not mismatches and not stale and not violations
          and not summary.get("failed", 0))
    return {
        "checks": names,
        "kernels": list(KERNELS),
        "seeds": [int(s) for s in seeds],
        "node_counts": node_counts,
        "runs": summary.get("completed", 0) + summary.get("skipped", 0),
        "run_failures": summary.get("failed", 0),
        "pairs": pairs,
        "kernel_mismatches": mismatches,
        "kernel_ties": ties,
        "stale_ties": stale,
        "violations": violations,
        "verdict": "ok" if ok else "violation",
    }
