"""The phi-accrual failure detector: flap absorption, detection
timing, and the quorum gate that fences minority-side verdicts
(split-brain prevention)."""

import math

import pytest

from repro.errors import ConfigError
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.monitor import PhiAccrualDetector, QuorumGate
from repro.monitor.phi import PERIOD_US, TIMEOUT_US


def build(det_cls, n=4, seed=0, plan=None, **det_kw):
    cluster = Cluster(n_nodes=n, seed=seed)
    inj = cluster.install_faults(plan or FaultPlan())
    front, backs = cluster.nodes[0], cluster.nodes[1:]
    det = det_cls(front, backs, **det_kw)
    return cluster, inj, det


class TestHysteresis:
    """Regression: a flapping node (suspected, then answering) must not
    be evicted; phi's suspect stage absorbs the flap."""

    def flap_plan(self, misses):
        # fail exactly `misses` consecutive probes of node 1: probes
        # fire at k*PERIOD_US, so a verb-fault window covering probes
        # 1..misses does it deterministically
        start = 0.5 * PERIOD_US
        until = (misses + 0.5) * PERIOD_US
        return FaultPlan().fail_verbs(1.0, dst=1, start=start,
                                      until=until)

    def test_flap_absorbed_never_reaches_listeners(self):
        # one lost probe leaves phi under the suspect threshold; the
        # second makes node 1 suspect and the next answer clears it
        cluster, inj, det = build(
            PhiAccrualDetector, plan=self.flap_plan(misses=2))
        obs = cluster.observe(strict=False)
        seen = []
        det.subscribe(lambda nid, tr: seen.append((nid, tr)))
        cluster.run(until=10 * PERIOD_US)
        kinds = [e.etype for e in obs.trace.select(prefix="detect.")]
        assert kinds == ["detect.suspect", "detect.clear"]
        assert seen == []
        assert det.transitions == []
        assert det.dead_ids == set()
        assert det.flaps_absorbed == 1

    def test_sustained_misses_still_confirm_dead(self):
        cluster, inj, det = build(
            PhiAccrualDetector, plan=self.flap_plan(misses=8))
        cluster.run(until=6 * PERIOD_US)
        assert det.is_dead(1)
        assert [tr for _t, nid, tr in det.transitions if nid == 1] \
            == ["dead"]

    def test_suspects_visible_while_held(self):
        cluster, inj, det = build(
            PhiAccrualDetector, plan=self.flap_plan(misses=2))
        cluster.run(until=2.4 * PERIOD_US)
        assert det.suspect_ids == {1}
        assert det.unreachable_ids == {1} and det.dead_ids == set()
        cluster.run(until=10 * PERIOD_US)
        assert det.suspect_ids == set()

    def test_three_lost_probes_are_a_death(self):
        # no counter hysteresis: a third lost probe crosses DEAD_PHI
        cluster, inj, det = build(
            PhiAccrualDetector, plan=self.flap_plan(misses=3))
        cluster.run(until=10 * PERIOD_US)
        assert [tr for _t, _n, tr in det.transitions] == ["dead", "alive"]
        assert det.flaps_absorbed == 0


class TestPhiAccrual:
    def test_crash_detected_within_bound(self):
        crash_at = 6_000.0
        cluster, inj, det = build(
            PhiAccrualDetector,
            plan=FaultPlan().crash(1, at=crash_at))
        cluster.run(until=crash_at + det.detect_bound_us() + PERIOD_US)
        assert det.is_dead(1)
        t_dead = [t for t, nid, tr in det.transitions
                  if nid == 1 and tr == "dead"][0]
        assert t_dead <= crash_at + det.detect_bound_us()

    def test_suspect_precedes_dead(self):
        cluster, inj, det = build(
            PhiAccrualDetector, plan=FaultPlan().crash(1, at=5_000.0))
        obs = cluster.observe(strict=False)
        cluster.run(until=5_000.0 + det.detect_bound_us() + PERIOD_US)
        kinds = [e.etype for e in obs.trace.select(prefix="detect.")
                 if e.fields.get("watched") == 1]
        assert "detect.suspect" in kinds and "detect.dead" in kinds
        assert kinds.index("detect.suspect") < kinds.index("detect.dead")

    def test_restart_clears_to_alive(self):
        cluster, inj, det = build(
            PhiAccrualDetector,
            plan=FaultPlan().crash(1, at=5_000.0, restart_at=12_000.0))
        cluster.run(until=20_000.0)
        assert not det.is_dead(1)
        assert [tr for _t, nid, tr in det.transitions if nid == 1] \
            == ["dead", "alive"]

    def test_phi_grows_with_silence(self):
        cluster, inj, det = build(PhiAccrualDetector,
                                  plan=FaultPlan().crash(1, at=4_000.0))
        cluster.run(until=4_100.0)
        early = det.phi(1)
        cluster.run(until=6_500.0)
        assert det.phi(1) > early
        assert det.phi(2) < 1.0  # healthy node stays unsuspicious

    def test_slow_link_widens_tolerance_no_false_dead(self):
        """The adaptive property: a gray-slow node (probes delayed but
        arriving) must not be declared dead."""
        cluster, inj, det = build(
            PhiAccrualDetector,
            plan=FaultPlan().slow_node(1, 6.0, start=4_000.0,
                                       until=20_000.0))
        cluster.run(until=30_000.0)
        dead = [nid for _t, nid, tr in det.transitions if tr == "dead"]
        assert dead == []

    def test_crash_restart_detection_log_is_pinned(self):
        """The exact detection timeline of one crash and restart at
        seed 0: any change to probing, phi or its thresholds that moves
        a detection instant shows here."""
        cluster, inj, det = build(
            PhiAccrualDetector,
            plan=FaultPlan().crash(1, at=5_000.0, restart_at=12_000.0))
        obs = cluster.observe(strict=False)
        cluster.run(until=20_000.0)
        assert det.transitions == [(6136.320000000001, 1, "dead"),
                                   (12367.999999999995, 1, "alive")]
        assert [(e.t, e.etype, e.fields.get("watched"))
                for e in obs.trace.select(prefix="detect.")] == [
            (5616.02, "detect.suspect", 1),
            (6136.320000000001, "detect.dead", 1),
            (12367.999999999995, "detect.alive", 1)]
        assert det.probes == 117
        assert det.detect_bound_us() == 2120.0

    @pytest.mark.parametrize("name", ["period_us", "timeout_us",
                                      "hold_us"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf,
                                       1_000.0])
    def test_timings_are_fixed(self, name, value):
        """Probe period, probe timeout and quorum hold are fixed: a
        caller may spell them out but any other value is refused."""
        cluster = Cluster(n_nodes=2, seed=0)
        det = PhiAccrualDetector(cluster.nodes[0], [cluster.nodes[1]],
                                 period_us=PERIOD_US,
                                 timeout_us=TIMEOUT_US)
        QuorumGate(det, hold_us=PERIOD_US)
        with pytest.raises(ConfigError, match=name):
            if name == "hold_us":
                QuorumGate(det, hold_us=value)
            else:
                PhiAccrualDetector(cluster.nodes[0], [cluster.nodes[1]],
                                   **{name: value})


def gate_build(n=5, seed=0, plan=None):
    cluster = Cluster(n_nodes=n, seed=seed)
    inj = cluster.install_faults(plan or FaultPlan())
    front, backs = cluster.nodes[0], cluster.nodes[1:]
    det = PhiAccrualDetector(front, backs)
    gate = QuorumGate(det)
    return cluster, inj, det, gate


class TestQuorumGate:
    def test_majority_side_forwards_dead_within_hold(self):
        # {0,1,2} | {3,4}: front keeps quorum 3/5, far side dies
        start = 6_000.0
        cluster, inj, det, gate = gate_build(
            plan=FaultPlan().partition([[0, 1, 2], [3, 4]], start=start,
                                       until=1e9))
        # phi confirmation, the gate's one-period hold, one period slack
        bound = det.detect_bound_us() + PERIOD_US + PERIOD_US
        cluster.run(until=start + bound)
        assert gate.dead_ids == {3, 4}
        assert gate.has_quorum
        assert gate.fenced == []
        assert gate.config_epoch == 2
        for t, _nid, tr in gate.transitions:
            assert tr == "dead" and t <= start + bound

    def test_minority_side_fences_everything(self):
        # {0,1} | {2,3,4}: front lost quorum — verdicts must be fenced
        start = 6_000.0
        cluster, inj, det, gate = gate_build(
            plan=FaultPlan().partition([[0, 1], [2, 3, 4]], start=start,
                                       until=1e9))
        cluster.run(until=start + det.detect_bound_us()
                    + PERIOD_US + 5 * PERIOD_US)
        assert det.dead_ids == {2, 3, 4}   # inner detector fires...
        assert gate.dead_ids == set()      # ...but nothing is forwarded
        assert not gate.has_quorum
        assert {nid for _t, nid in gate.fenced} == {2, 3, 4}
        assert gate.transitions == []

    def test_heal_flushes_fenced_verdicts_or_clears(self):
        # partition heals: nodes answer probes again, so the parked
        # verdicts must NOT surface as deaths afterwards
        start, until = 6_000.0, 14_000.0
        cluster, inj, det, gate = gate_build(
            plan=FaultPlan().partition([[0, 1], [2, 3, 4]], start=start,
                                       until=until))
        cluster.run(until=until + 5 * PERIOD_US)
        assert det.dead_ids == set()
        assert gate.dead_ids == set()
        assert [tr for _t, _n, tr in gate.transitions] == []

    def test_real_deaths_during_quorum_loss_forward_after_recovery(self):
        # nodes 3,4 crash for good; a partition then hides 2 as well,
        # costing quorum; when it heals, the still-dead 3,4 forward
        cluster, inj, det, gate = gate_build(
            plan=(FaultPlan()
                  .crash(3, at=4_000.0)
                  .crash(4, at=4_000.0)
                  .partition([[0, 1], [2, 3, 4]], start=4_500.0,
                             until=16_000.0)))
        cluster.run(until=30_000.0)
        assert gate.dead_ids == {3, 4}
        assert not det.is_dead(2) and not gate.is_dead(2)

    def test_oracle_interface_matches_detector(self):
        cluster, inj, det, gate = gate_build()
        assert gate.is_dead(1) is False
        assert gate.dead_ids == set()
        assert gate.n_members == 5 and gate.quorum == 3
