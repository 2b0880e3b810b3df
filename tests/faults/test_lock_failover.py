"""Quorum-fenced lock-home failover under partitions (acceptance).

A symmetric partition that isolates a lock home must trigger a
majority-side rehome within the detection bound, while a minority-side
front must provably NOT evict the majority's homes — both asserted by
replaying the exported trace through the oracles (HAOracle included)."""

from repro.monitor.phi import PERIOD_US
from repro.scenarios import lookup, run_schedule
from repro.verify import ALL_ORACLES, HAOracle, TraceView, replay_fresh

START = 6_000.0
UNTIL = 20_000.0


def partition_schedule(groups):
    return [{"kind": "partition", "groups": groups, "start": START,
             "until": UNTIL, "oneway": False}]


def run_locks(groups, fence=True, seed=3):
    sc = lookup("locks")
    return sc.build(seed, sc.n_nodes, partition_schedule(groups), fence)


class TestMajorityFailover:
    GROUPS = [[0, 1, 2], [3, 4]]  # front keeps quorum; node 3 homes locks

    def test_rehome_within_detection_bound(self):
        obs = run_locks(self.GROUPS)
        rehomes = obs.trace.select(prefix="lock.rehome")
        assert rehomes, "isolated lock home was never failed over"
        # detection bound: phi confirmation + gate hold + probe slack
        bound = 2_120.0 + PERIOD_US + 2 * PERIOD_US
        for ev in rehomes:
            assert ev.fields["frm"] == 3
            assert ev.fields["to"] in (0, 1, 2)  # stays on our side
            assert START < ev.t <= START + bound

    def test_trace_passes_all_oracles_with_live_ha_expectation(self):
        obs = run_locks(self.GROUPS)
        expects = obs.trace.select(prefix="ha.expect")
        assert any(e.fields["kind"] == "failover" for e in expects)
        view = TraceView.from_obs(obs).require_complete()
        oracles, violations = replay_fresh(view, ALL_ORACLES)
        assert violations == []
        ha = next(o for o in oracles if isinstance(o, HAOracle))
        assert ha.checked > 0  # the liveness assertion really ran

    def test_rehome_bumps_epoch(self):
        obs = run_locks(self.GROUPS)
        reclaims = obs.trace.select(prefix="lock.reclaim")
        by_lock = {}
        for ev in reclaims:
            assert ev.fields["new_ep"] > ev.fields["old_ep"]
            by_lock[ev.fields["lock"]] = ev.fields["new_ep"]
        assert by_lock  # every rehomed lock advanced its fencing epoch


class TestMinorityFenced:
    GROUPS = [[0, 1], [2, 3, 4]]  # front side lost quorum

    def test_minority_cannot_evict_majority_homes(self):
        obs = run_locks(self.GROUPS)
        assert obs.trace.select(prefix="lock.rehome") == []
        fenced = obs.trace.select(prefix="detect.fenced")
        assert {e.fields["watched"] for e in fenced} >= {2, 3, 4}

    def test_trace_passes_oracles_with_no_failover_expectation(self):
        obs = run_locks(self.GROUPS)
        expects = obs.trace.select(prefix="ha.expect")
        assert any(e.fields["kind"] == "no-failover" for e in expects)
        view = TraceView.from_obs(obs).require_complete()
        _oracles, violations = replay_fresh(view, ALL_ORACLES)
        assert violations == []

    def test_without_fence_split_brain_is_flagged(self):
        """The seeded bug: same partition, no quorum gate — the oracle
        must flag the minority-side eviction as a safety violation."""
        rec = run_schedule("locks-nofence",
                           partition_schedule(self.GROUPS), 3)
        assert rec["verdict"] == "violation"
        assert any("split-brain" in m for m in rec["violation_msgs"])
