"""Chaos acceptance for transactions: under injected crash/partition/
slow/drop faults, committed transactions survive failover, in-flight
transactions abort cleanly (never wedge, never tear), and the combined
oracle stack (TxnOracle + HAOracle + the rest) stays green."""

import pytest

from repro.scenarios import SCENARIOS, lab_run, run_schedule
from repro.sim import pin_kernel
from repro.verify import TxnOracle, TraceView, replay_fresh

N_SCHEDULES = 4


class TestTxnChaosRecords:
    @pytest.mark.parametrize("index", range(N_SCHEDULES))
    def test_sampled_schedules_stay_clean(self, index):
        rec = lab_run("txn", seed=7, index=index)
        assert rec["verdict"] == "ok", rec["violation_msgs"]
        assert rec["violations"] == 0
        assert rec["events"] > 0
        assert len(rec["faults"]) >= 1

    def test_records_are_deterministic(self):
        a = lab_run("txn", seed=7, index=0)
        b = lab_run("txn", seed=7, index=0)
        assert a == b

    def test_slow_kernel_agrees(self):
        fast = lab_run("txn", seed=7, index=1, kernel="fast")
        slow = lab_run("txn", seed=7, index=1, kernel="slow")
        assert fast["verdict"] == slow["verdict"] == "ok"
        assert fast["trace_sha"] == slow["trace_sha"]


class TestFailoverSemantics:
    """White-box: build the scenario trace and inspect txn.* outcomes."""

    def _trace(self, schedule, seed=7):
        sc = SCENARIOS["txn"]
        with pin_kernel("fast"):
            obs = sc.build(seed, sc.n_nodes, list(schedule), True)
        return TraceView.from_obs(obs).require_complete()

    def _crash_schedule(self):
        """A schedule with at least one crash, sampled from the space."""
        space = SCENARIOS["txn"].space()
        for index in range(16):
            schedule = space.sample(seed=7, index=index)
            if any(f["kind"] == "crash" for f in schedule):
                return schedule
        pytest.fail("no crash schedule in the first 16 samples")

    def test_commits_survive_crash_and_aborts_are_clean(self):
        schedule = self._crash_schedule()
        view = self._trace(schedule)
        etypes = [ev.etype for ev in view.events]
        committed = {ev.fields["tid"] for ev in view.events
                     if ev.etype == "txn.commit"}
        assert committed, "chaos run must still commit transactions"
        # in-flight work aborts cleanly: nothing wedges mid-publish
        assert "txn.wedged" not in etypes
        # faults actually bit the lock path: the schedule is non-vacuous
        assert "ha.expect" in etypes
        # the serializability oracle judges the chaos trace and is clean
        oracles, violations = replay_fresh(view, [TxnOracle])
        assert violations == []
        assert oracles[0].checked > 0

    def test_aborted_attempts_never_published(self):
        """Every abort in a chaos trace must be install-free — the
        TxnOracle dirty-write check has real traffic to chew on."""
        schedule = self._crash_schedule()
        view = self._trace(schedule)
        aborted = {(ev.fields["tid"], ev.fields["attempt"])
                   for ev in view.events if ev.etype == "txn.abort"}
        installs = {(ev.fields["tid"], ev.fields["attempt"])
                    for ev in view.events if ev.etype == "txn.install"}
        assert not (aborted & installs)

    def test_every_schedule_kind_appears_across_samples(self):
        space = SCENARIOS["txn"].space()
        kinds = set()
        for index in range(12):
            for f in space.sample(seed=7, index=index):
                kinds.add(f["kind"])
        assert {"crash", "partition"} <= kinds

    def test_unfenced_run_still_txn_safe(self):
        """Without the quorum fence HA bounds may flex, but transaction
        safety (TxnOracle) must hold regardless."""
        schedule = self._crash_schedule()
        rec = run_schedule("txn", schedule, seed=7, fence=False)
        txn_msgs = [m for m in rec["violation_msgs"]
                    if m.startswith("serializability")
                    or "lost update" in m or "dirty" in m
                    or "torn" in m]
        assert txn_msgs == []
