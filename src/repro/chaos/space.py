"""Seeded generative space of fault schedules.

A *schedule* is the campaign's unit of work: a JSON-able list of fault
dicts sampled from :class:`ChaosSpace`.  Keeping the schedule as plain
data (rather than a built :class:`~repro.faults.FaultPlan`) is what
makes the rest of the pipeline work: schedules hash into stable run
ids, replay byte-identically from a verdict file, and shrink by simple
list/field surgery (:mod:`repro.chaos.shrinker`).

Fault dict shapes::

    {"kind": "crash",     "node": n, "at": t, "restart_at": t2|None}
    {"kind": "partition", "groups": [[...], [...]], "start": s,
     "until": u, "oneway": false}
    {"kind": "slow",      "node": n, "factor": f, "start": s, "until": u}
    {"kind": "stall",     "node": n, "start": s, "until": u}
    {"kind": "drop",      "rate": r, "start": s, "until": u}
    {"kind": "dup",       "rate": r, "start": s, "until": u}

Sampling is a pure function of ``(seed, index)`` via the same SplitMix
child-seed derivation the lab runner uses, so schedule ``(S, i)`` is
identical no matter which worker samples it or in which order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.sim.rng import spawn_child

__all__ = ["ChaosSpace", "plan_from_schedule", "schedule_key"]

#: every fault kind the space can emit
ALL_KINDS = ("partition", "crash", "slow", "stall", "drop", "dup")


def _r(x: float) -> float:
    """Round times/rates for canonical JSON (and readable verdicts)."""
    return round(float(x), 1)


class ChaosSpace:
    """Samples random fault schedules for an ``n_nodes`` cluster.

    Node 0 never crashes: it is the front-end that hosts the detector
    and coordinator, and chaos against the *watcher* is a different
    experiment than chaos against the watched.  Partitions may still
    cut node 0 off: surviving a partitioned coordinator is exactly what
    quorum fencing is for.
    """

    def __init__(self, n_nodes: int, horizon_us: float, *,
                 max_faults: int = 4,
                 kinds: Sequence[str] = ALL_KINDS):
        if n_nodes < 3:
            raise ConfigError("chaos needs >= 3 nodes (quorum of 2 is "
                              "every pair; partitions degenerate)")
        if horizon_us <= 0:
            raise ConfigError("horizon_us must be positive")
        if max_faults < 1:
            raise ConfigError("max_faults must be >= 1")
        unknown = set(kinds) - set(ALL_KINDS)
        if unknown:
            raise ConfigError(f"unknown fault kinds {sorted(unknown)}; "
                              f"available: {ALL_KINDS}")
        self.n_nodes = n_nodes
        self.horizon_us = float(horizon_us)
        self.max_faults = max_faults
        self.kinds = tuple(kinds)

    def sample(self, seed: int, index: int) -> List[Dict]:
        """Schedule ``index`` of campaign ``seed`` (pure, replayable)."""
        rng = np.random.default_rng(spawn_child(seed, index))
        n_faults = 1 + int(rng.integers(self.max_faults))
        schedule = [self._one(rng) for _ in range(n_faults)]
        schedule.sort(key=_fault_time)
        return schedule

    # -- per-kind samplers ---------------------------------------------
    def _one(self, rng) -> Dict:
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        return getattr(self, f"_sample_{kind}")(rng)

    def _window(self, rng, max_frac: float = 0.45):
        start = float(rng.uniform(0.1, 0.5)) * self.horizon_us
        dur = float(rng.uniform(0.08, max_frac)) * self.horizon_us
        until = min(start + dur, 0.92 * self.horizon_us)
        return _r(start), _r(until)

    def _sample_partition(self, rng) -> Dict:
        perm = [int(x) for x in rng.permutation(self.n_nodes)]
        cut = 1 + int(rng.integers(self.n_nodes - 1))
        start, until = self._window(rng)
        return {"kind": "partition",
                "groups": [sorted(perm[:cut]), sorted(perm[cut:])],
                "start": start, "until": until,
                "oneway": bool(rng.random() < 0.25)}

    def _sample_crash(self, rng) -> Dict:
        node = 1 + int(rng.integers(self.n_nodes - 1))
        at = _r(float(rng.uniform(0.1, 0.6)) * self.horizon_us)
        restart_at = None
        if rng.random() < 0.5:
            restart_at = _r(at + float(rng.uniform(0.05, 0.3))
                            * self.horizon_us)
        return {"kind": "crash", "node": node, "at": at,
                "restart_at": restart_at}

    def _sample_slow(self, rng) -> Dict:
        start, until = self._window(rng)
        return {"kind": "slow",
                "node": int(rng.integers(self.n_nodes)),
                "factor": _r(float(rng.uniform(2.0, 20.0))),
                "start": start, "until": until}

    def _sample_stall(self, rng) -> Dict:
        start, until = self._window(rng)
        return {"kind": "stall",
                "node": int(rng.integers(self.n_nodes)),
                "start": start, "until": until}

    def _sample_drop(self, rng) -> Dict:
        start, until = self._window(rng)
        return {"kind": "drop",
                "rate": round(float(rng.uniform(0.02, 0.25)), 3),
                "start": start, "until": until}

    def _sample_dup(self, rng) -> Dict:
        start, until = self._window(rng)
        return {"kind": "dup",
                "rate": round(float(rng.uniform(0.05, 0.5)), 3),
                "start": start, "until": until}


def _fault_time(fault: Dict) -> float:
    return float(fault.get("at", fault.get("start", 0.0)))


def plan_from_schedule(schedule: Sequence[Dict]) -> FaultPlan:
    """Compile a schedule (list of fault dicts) into a FaultPlan."""
    plan = FaultPlan()
    for fault in schedule:
        kind = fault.get("kind")
        if kind == "crash":
            plan.crash(fault["node"], at=fault["at"],
                       restart_at=fault.get("restart_at"))
        elif kind == "partition":
            plan.partition([tuple(g) for g in fault["groups"]],
                           start=fault["start"], until=fault["until"],
                           oneway=bool(fault.get("oneway", False)))
        elif kind == "slow":
            plan.slow_node(fault["node"], fault["factor"],
                           start=fault["start"], until=fault["until"])
        elif kind == "stall":
            plan.stall_credits(fault["node"], start=fault["start"],
                               until=fault["until"])
        elif kind == "drop":
            plan.drop_messages(fault["rate"], start=fault["start"],
                               until=fault["until"])
        elif kind == "dup":
            plan.duplicate_messages(fault["rate"], start=fault["start"],
                                    until=fault["until"])
        else:
            raise ConfigError(f"unknown fault kind {kind!r} in schedule")
    return plan


def schedule_key(fault: Dict) -> str:
    """One-line human label for a fault dict (reports, shrink logs)."""
    kind = fault["kind"]
    if kind == "crash":
        r = fault.get("restart_at")
        back = f"->restart@{r}" if r is not None else ""
        return f"crash(node={fault['node']}@{fault['at']}{back})"
    if kind == "partition":
        arrow = "->" if fault.get("oneway") else "|"
        gs = arrow.join("".join(str(n) for n in g)
                        for g in fault["groups"])
        return (f"partition({gs}@[{fault['start']},{fault['until']}))")
    if kind == "slow":
        return (f"slow(node={fault['node']}x{fault['factor']}"
                f"@[{fault['start']},{fault['until']}))")
    if kind == "stall":
        return (f"stall(node={fault['node']}"
                f"@[{fault['start']},{fault['until']}))")
    if kind in ("drop", "dup"):
        return (f"{kind}(rate={fault['rate']}"
                f"@[{fault['start']},{fault['until']}))")
    return repr(fault)
