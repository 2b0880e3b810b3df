"""Chaos campaigns: sample fault schedules, run, judge, fold.

One *run* = one ``(scenario, schedule, seed, kernel)`` tuple, judged by
:func:`repro.scenarios.run_schedule` (the one judged run plus the
schedule it ran under).  A *campaign* fans a grid of sampled schedules
through :mod:`repro.lab` (resumable store, optional worker pool) and
folds the records into a single verdict:

* violations on an ``expect_clean`` scenario fail the campaign (so does
  a ``vacuous`` run: a schedule that silenced the workload proved
  nothing);
* violations on a seeded-bug scenario (``locks-nofence``) are
  *findings* — the campaign is checking the pipeline can catch them;
* the same ``(scenario, index)`` run under both kernels must export the
  same canonical digest, or the kernels themselves diverged.

Everything keys off ``(seed, index)`` so a verdict names exactly the
schedules that failed and ``repro chaos replay``/``shrink`` can revisit
them without re-sampling the whole campaign.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["run_campaign"]


def run_campaign(scenarios: Sequence[str] = ("locks",), seed: int = 0,
                 n_schedules: int = 10,
                 kernels: Sequence[str] = ("fast",),
                 workers: int = 0,
                 store_path: Optional[str] = None,
                 progress: bool = False) -> dict:
    """Sample+run ``n_schedules`` per scenario per kernel; fold verdict."""
    from repro.scenarios import fold_kernels, lab_sweep, lookup

    names = list(scenarios)
    for name in names:
        lookup(name).space()  # fail fast, before any workers spin
    records, summary = lab_sweep(
        f"chaos-{seed}",
        {"scenario": names, "index": list(range(int(n_schedules))),
         "kernel": list(kernels)},
        [seed], workers, store_path, progress)

    cells: Dict[Tuple[str, int], Dict[str, dict]] = {}
    for rec in records:
        p = rec["params"]
        cells.setdefault((p["scenario"], int(p["index"])),
                         {})[p["kernel"]] = rec["result"]
    results = [(name, index, kernel, res)
               for (name, index), by_kernel in sorted(cells.items())
               for kernel, res in sorted(by_kernel.items())]

    violations: List[dict] = []
    findings: List[dict] = []
    for name, index, kernel, res in results:
        if res["verdict"] == "ok":
            continue
        entry = {"scenario": name, "index": index, "kernel": kernel,
                 "verdict": res["verdict"],
                 "violations": res["violations"],
                 "msgs": res["violation_msgs"],
                 "faults": res["faults"],
                 "schedule": res["schedule"]}
        if lookup(name).expect_clean:
            violations.append(entry)
        else:
            findings.append(entry)
    mismatches = [{"scenario": name, "index": index, "shas": shas}
                  for (name, index), shas
                  in fold_kernels(cells, kernels)[1]]

    ok = (not violations and not mismatches
          and not summary.get("failed", 0) and results)
    return {
        "format": "repro-chaos-v1",
        "seed": int(seed),
        "scenarios": names,
        "kernels": list(kernels),
        "n_schedules": int(n_schedules),
        "runs": len(results),
        "run_errors": summary.get("failed", 0),
        "violations": violations,
        "findings": findings,
        "kernel_mismatches": mismatches,
        "records": [res for _name, _index, _kernel, res in results],
        "verdict": "ok" if ok else "violation",
    }
