"""Chaos campaigns: sample fault schedules, run, judge, fold.

One *run* = one ``(scenario, schedule, seed)`` tuple, judged by
:func:`repro.scenarios.run_schedule` (the one judged run plus the
schedule it ran under).  A *campaign* fans a grid of sampled schedules
through :mod:`repro.lab` (resumable store, optional worker pool, one
attempt per run) and folds the records into a single verdict:

* violations on an ``expect_clean`` scenario fail the campaign (so does
  a ``vacuous`` run: a schedule that silenced the workload proved
  nothing);
* violations on a seeded-bug scenario (``locks-nofence``) are
  *findings* — the campaign is checking the pipeline can catch them;
* a run that raises is a ``run_error`` and fails the campaign: a
  seeded run would raise again, so it is not retried.

Everything keys off ``(seed, index)`` so a verdict names exactly the
schedules that failed and ``repro chaos replay``/``shrink`` can revisit
them without re-sampling the whole campaign.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["run_campaign"]


def run_campaign(scenarios: Sequence[str] = ("locks",), seed: int = 0,
                 n_schedules: int = 10,
                 workers: int = 0,
                 store_path: Optional[str] = None) -> dict:
    """Sample+run ``n_schedules`` per scenario; fold verdict."""
    from repro.scenarios import lab_sweep, lookup

    names = list(scenarios)
    for name in names:
        lookup(name).space()  # fail fast, before any workers spin
    records, summary = lab_sweep(
        f"chaos-{seed}",
        {"scenario": names, "index": list(range(int(n_schedules)))},
        [seed], workers, store_path)
    results = sorted((rec["params"]["scenario"], int(rec["params"]["index"]),
                      rec["result"]) for rec in records)

    violations: List[dict] = []
    findings: List[dict] = []
    for name, index, res in results:
        if res["verdict"] == "ok":
            continue
        entry = {"scenario": name, "index": index,
                 "verdict": res["verdict"],
                 "violations": res["violations"],
                 "msgs": res["violation_msgs"],
                 "faults": res["faults"],
                 "schedule": res["schedule"]}
        if lookup(name).expect_clean:
            violations.append(entry)
        else:
            findings.append(entry)

    ok = not violations and not summary.get("failed", 0) and results
    return {
        "format": "repro-chaos-v1",
        "seed": int(seed),
        "scenarios": names,
        "n_schedules": int(n_schedules),
        "runs": len(results),
        "run_errors": summary.get("failed", 0),
        "violations": violations,
        "findings": findings,
        "records": [res for _name, _index, res in results],
        "verdict": "ok" if ok else "violation",
    }
