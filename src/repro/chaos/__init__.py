"""Chaos campaigns: randomized fault schedules judged by oracles.

The robustness counterpart to :mod:`repro.verify`'s fixed check
scenarios: instead of one hand-written fault per test, a campaign
samples whole *schedules* — partitions (symmetric and one-way), node
crashes, gray failures (slow nodes, stalled flow-control credits),
message drops — from a seeded generative space
(:class:`~repro.chaos.space.ChaosSpace`), runs the scenario table's
fault-space rows (:data:`repro.scenarios.SCENARIOS`) under them through
:mod:`repro.lab`, and judges every run with the full
oracle suite plus declarative HA expectations
(:class:`~repro.verify.HAOracle`): failover must happen within the
detection bound on the majority side, and must *never* happen from a
minority view.  Failing schedules shrink to minimal reproducers
(:func:`~repro.chaos.shrinker.shrink_schedule`).

Everything is a pure function of ``(seed, index)``: re-running a
campaign with the same seed reproduces the same schedules, verdicts and
canonical trace digests on either event kernel.

CLI: ``repro chaos {list,run,replay,shrink,report}``.
"""

from repro.chaos.space import ChaosSpace, plan_from_schedule, schedule_key
from repro.chaos.scenarios import ha_expectations
from repro.chaos.campaign import run_campaign
from repro.chaos.shrinker import (find_failing, schedule_fails,
                                  shrink_schedule)

__all__ = [
    "ChaosSpace",
    "find_failing",
    "ha_expectations",
    "plan_from_schedule",
    "run_campaign",
    "schedule_fails",
    "schedule_key",
    "shrink_schedule",
]
