"""Phi-accrual failure detection and failure-aware reconfiguration."""

import math

import pytest

from repro.errors import ConfigError
from repro.net import Cluster
from repro.faults import FaultPlan
from repro.monitor import PhiAccrualDetector
from repro.reconfig import ReconfigManager, Service
from repro.reconfig.manager import MIN_NODES


def build(n=6, seed=0, plan=None):
    cluster = Cluster(n_nodes=n, seed=seed)
    inj = cluster.install_faults(plan or FaultPlan())
    front, backs = cluster.nodes[0], cluster.nodes[1:]
    det = PhiAccrualDetector(front, backs)
    return cluster, inj, front, backs, det


class TestHeartbeat:
    """Liveness-word probing, as the phi-accrual detector does it."""

    def test_all_alive_without_faults(self):
        cluster, inj, front, backs, det = build()
        cluster.env.run(until=20_000.0)
        assert det.transitions == []
        assert det.dead_ids == set()
        assert det.probes > 0

    def test_crash_detected_within_bound(self):
        crash_at = 5_000.0
        cluster, inj, front, backs, det = build(
            plan=FaultPlan().crash(2, at=crash_at))
        cluster.env.run(until=20_000.0)
        assert det.is_dead(2)
        (t, node_id, what), = det.transitions
        assert (node_id, what) == (2, "dead")
        assert crash_at <= t <= crash_at + det.detect_bound_us()

    def test_restart_detected_as_alive(self):
        cluster, inj, front, backs, det = build(
            plan=FaultPlan().crash(2, at=5_000.0, restart_at=15_000.0))
        cluster.env.run(until=25_000.0)
        assert [x[1:] for x in det.transitions] == [(2, "dead"),
                                                    (2, "alive")]
        assert not det.is_dead(2)

    def test_config_validation(self):
        cluster = Cluster(n_nodes=2, seed=0)
        with pytest.raises(ConfigError):
            PhiAccrualDetector(cluster.nodes[0], [cluster.nodes[0]])
        with pytest.raises(ConfigError, match="period_us"):
            PhiAccrualDetector(cluster.nodes[0], [cluster.nodes[1]],
                               period_us=-1.0)
        with pytest.raises(ConfigError, match="timeout_us"):
            PhiAccrualDetector(cluster.nodes[0], [cluster.nodes[1]],
                               timeout_us=math.nan)


class TestFailureAwareReconfig:
    def test_evict_within_one_monitoring_period(self):
        """Eviction must land within one detection window of the crash:
        the manager reacts to the transition, not to its own poll."""
        crash_at = 5_000.0
        cluster, inj, front, backs, det = build(
            plan=FaultPlan().crash(2, at=crash_at))
        web = Service("web", backs[:3], priority=2)
        mgr = ReconfigManager(front, [web], detector=det)
        cluster.env.run(until=20_000.0)
        evicts = [e for e in mgr.evictions if e[3] == "evict"]
        assert [(e[1], e[2]) for e in evicts] == [(2, "web")]
        assert crash_at <= evicts[0][0] <= crash_at + det.detect_bound_us()
        assert all(n.id != 2 for n in web.nodes)

    def test_backfill_from_lower_priority_donor(self):
        """A service dropped below MIN_NODES steals a live node from the
        lowest-priority donor that can spare one."""
        cluster, inj, front, backs, det = build(
            n=7, plan=FaultPlan().crash(1, at=5_000.0))
        web = Service("web", backs[:1], priority=5)
        batch = Service("batch", backs[1:], priority=1)
        mgr = ReconfigManager(front, [web, batch], detector=det)
        cluster.env.run(until=20_000.0)
        kinds = [e[3] for e in mgr.evictions]
        assert kinds == ["evict", "backfill"]
        assert len(web.nodes) == MIN_NODES
        assert all(not det.is_dead(n.id) for n in web.nodes)
        assert len(batch.nodes) >= MIN_NODES

    def test_restore_after_restart(self):
        cluster, inj, front, backs, det = build(
            plan=FaultPlan().crash(2, at=5_000.0, restart_at=20_000.0))
        web = Service("web", backs[:3], priority=2)
        mgr = ReconfigManager(front, [web], detector=det)
        cluster.env.run(until=40_000.0)
        assert [e[3] for e in mgr.evictions] == ["evict", "restore"]
        assert any(n.id == 2 for n in web.nodes)

    def test_all_nodes_dead_requests_shed_not_crashed(self):
        """With every node of a service evicted, submissions are shed
        and counted instead of raising."""
        cluster, inj, front, backs, det = build(
            plan=FaultPlan().crash(1, at=2_000.0).crash(2, at=2_000.0))
        web = Service("web", backs[:2], priority=2)
        mgr = ReconfigManager(front, [web], detector=det)

        def load(env):
            for _ in range(20):
                yield env.timeout(1_000.0)
                web.submit(50.0)

        cluster.env.process(load(cluster.env))
        cluster.env.run(until=25_000.0)
        assert web.nodes == []
        assert web.dropped > 0
        assert web.submitted + web.dropped == 20

    def test_detector_feeds_lock_manager_oracle(self):
        """The same detector slots into N-CoSED as its failure oracle:
        reclaim happens only after *detection*, not at the crash."""
        from repro.dlm import LockMode, NCoSEDManager

        crash_at = 5_000.0
        cluster, inj, front, backs, det = build(
            plan=FaultPlan().crash(1, at=crash_at))
        manager = NCoSEDManager(cluster, n_locks=1, lease_us=500.0,
                                member_nodes=[front], detector=det)
        holder = manager.client(backs[0])  # node 1: will crash

        def hold(env):
            yield holder.acquire(0, LockMode.EXCLUSIVE)
            yield env.timeout(1e9)

        cluster.env.process(hold(cluster.env))
        cluster.env.run(until=20_000.0)
        assert manager.reclaims
        t_dead = det.transitions[0][0]
        t_reclaim = manager.reclaims[0][0]
        assert t_reclaim >= t_dead  # oracle-gated, not ground truth
        assert t_reclaim <= t_dead + manager.lease_us  # one reaper scan
