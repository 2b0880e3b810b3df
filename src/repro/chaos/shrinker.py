"""Shrink a failing fault schedule to a minimal reproducer.

Greedy delta-debugging over the schedule's *structure*, in three
passes, each preserved only if the shrunk candidate still fails:

1. **drop faults** — remove one fault at a time, to a fixpoint;
2. **narrow windows** — repeatedly halve each windowed fault's
   duration (and pull crash restarts earlier);
3. **shrink groups** — remove nodes from partition groups, keeping at
   least one node per side.

Expectations are *re-derived* from the candidate schedule on every
probe (the scenario builder computes them from the schedule it is
given), so shrinking stays self-consistent: a narrowed partition is
judged against its own narrowed window, never the original's.

Probes are capped; the shrinker returns the smallest failing schedule
found within the budget, which is still a valid reproducer even when
the cap bites mid-pass.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.space import schedule_key
from repro.errors import ConfigError

__all__ = ["find_failing", "schedule_fails", "shrink_schedule"]


def schedule_fails(scenario: str, schedule: Sequence[dict],
                   seed: int) -> Tuple[bool, dict]:
    """Run one schedule; True when any oracle flags it.

    A ``vacuous`` run is not a failure: a probe must not "succeed" by
    shrinking to a schedule that merely silences the workload.
    """
    from repro.scenarios import run_schedule

    record = run_schedule(scenario, schedule, seed)
    return record["verdict"] == "violation", record


def _halved(fault: Dict) -> Optional[Dict]:
    """One window-narrowing step for a fault, or None if not narrowable."""
    f = copy.deepcopy(fault)
    if f["kind"] == "crash":
        r = f.get("restart_at")
        if r is None:
            return None
        gap = r - f["at"]
        if gap <= 200.0:
            return None
        f["restart_at"] = round(f["at"] + gap / 2.0, 1)
        return f
    start, until = float(f["start"]), float(f["until"])
    dur = until - start
    if dur <= 400.0:
        return None  # below any detection bound; stop narrowing
    f["until"] = round(start + dur / 2.0, 1)
    return f


def shrink_schedule(scenario: str, schedule: Sequence[dict], seed: int, *,
                    max_probes: int = 64) -> dict:
    """Reduce ``schedule`` to a (locally) minimal failing reproducer."""
    from repro.scenarios import lookup

    lookup(scenario)  # validate name before burning probes
    if max_probes < 1:
        # with no probe the original cannot be shown to fail, and a
        # "does not fail" report would be a lie
        raise ConfigError(f"max_probes must be >= 1, got {max_probes}")
    probes = 0

    def fails(candidate: Sequence[dict]) -> bool:
        nonlocal probes
        if probes >= max_probes:
            return False  # budget exhausted: treat as "can't shrink"
        probes += 1
        bad, _record = schedule_fails(scenario, candidate, seed)
        return bad

    original = [copy.deepcopy(f) for f in schedule]
    if not fails(original):
        return {"failed": False, "probes": probes,
                "scenario": scenario, "seed": int(seed),
                "schedule": original,
                "labels": [schedule_key(f) for f in original]}

    current = [copy.deepcopy(f) for f in original]

    # pass 1: drop whole faults, to a fixpoint
    changed = True
    while changed and len(current) > 1:
        changed = False
        i = 0
        while i < len(current) and len(current) > 1:
            candidate = current[:i] + current[i + 1:]
            if fails(candidate):
                current = candidate
                changed = True
            else:
                i += 1

    # pass 2: narrow windows (halve durations while still failing)
    for i in range(len(current)):
        while True:
            narrowed = _halved(current[i])
            if narrowed is None:
                break
            candidate = current[:i] + [narrowed] + current[i + 1:]
            if fails(candidate):
                current = candidate
            else:
                break

    # pass 3: shrink partition groups node by node
    for i, fault in enumerate(list(current)):
        if fault["kind"] != "partition":
            continue
        for g in range(len(fault["groups"])):
            for node in list(current[i]["groups"][g]):
                groups = [list(grp) for grp in current[i]["groups"]]
                if len(groups[g]) <= 1:
                    break
                groups[g] = [n for n in groups[g] if n != node]
                candidate = copy.deepcopy(current)
                candidate[i]["groups"] = groups
                if fails(candidate):
                    current = candidate

    return {
        "failed": True,
        "scenario": scenario,
        "seed": int(seed),
        "original_faults": len(original),
        "kept_faults": len(current),
        "probes": probes,
        "schedule": current,
        "labels": [schedule_key(f) for f in current],
    }


def find_failing(scenario: str, seed: int,
                 n_schedules: int = 20) -> Optional[dict]:
    """Scan sampled schedules; return the first failing one (or None)."""
    from repro.scenarios import lookup

    space = lookup(scenario).space()
    for index in range(int(n_schedules)):
        schedule = space.sample(int(seed), index)
        bad, record = schedule_fails(scenario, schedule, int(seed))
        if bad:
            return {"index": index, "schedule": schedule,
                    "record": record}
    return None
