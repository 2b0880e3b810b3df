"""Zombie-completion regression: a node that crashes and restarts while
an RDMA transfer is in flight must NOT see the old incarnation's
completion delivered after the restart.  The injector snapshots both
endpoints' incarnation counters when a transfer starts and fences the
completion if either changed mid-flight."""

import pytest

from repro.errors import NodeDownError
from repro.net import Cluster
from repro.faults import FaultPlan


def slow_cluster(plan, n=3, seed=0):
    """Cluster where a 256 KiB read takes long enough to crash into."""
    cluster = Cluster(n_nodes=n, seed=seed)
    inj = cluster.install_faults(plan)
    return cluster, inj


SIZE = 256 * 1024  # ~hundreds of microseconds on the wire


def timed_read(cluster, src, dst, seg, results):
    def app(env):
        try:
            data = yield cluster.nodes[src].nic.rdma_read(
                dst, seg.addr, seg.rkey, SIZE)
        except NodeDownError as exc:
            results.append(("fail", env.now, str(exc)))
        else:
            results.append(("ok", env.now, len(data)))

    return cluster.env.process(app(cluster.env))


def mid_flight_crash_time(seed=0):
    """Time of the halfway point of an unfaulted read, for scheduling."""
    cluster, _ = slow_cluster(FaultPlan(), seed=seed)
    seg = cluster.nodes[1].memory.register(SIZE, name="tgt")
    results = []
    timed_read(cluster, 0, 1, seg, results)
    cluster.env.run(until=1e9)
    assert results and results[0][0] == "ok"
    return results[0][1] / 2


class TestZombieCompletion:
    def test_target_restart_mid_read_fences_completion(self):
        crash_at = mid_flight_crash_time()
        cluster, inj = slow_cluster(
            FaultPlan().crash(1, at=crash_at,
                              restart_at=crash_at + 1.0))
        seg = cluster.nodes[1].memory.register(SIZE, name="tgt")
        results = []
        timed_read(cluster, 0, 1, seg, results)
        cluster.env.run(until=1e9)
        # the node was back up before the transfer would have finished,
        # yet the pre-crash completion must not be resurrected
        status, t, msg = results[0]
        assert status == "fail"
        assert "stale completion fenced" in msg
        assert inj.completions_fenced == 1
        assert inj.incarnations[1] == 1  # bumped once, by the crash

    def test_initiator_restart_mid_read_fences_completion(self):
        crash_at = mid_flight_crash_time()
        cluster, inj = slow_cluster(
            FaultPlan().crash(0, at=crash_at,
                              restart_at=crash_at + 1.0))
        seg = cluster.nodes[1].memory.register(SIZE, name="tgt")
        results = []
        timed_read(cluster, 0, 1, seg, results)
        cluster.env.run(until=1e9)
        assert results[0][0] == "fail"
        assert inj.completions_fenced == 1

    def test_restart_after_completion_is_harmless(self):
        cluster, inj = slow_cluster(
            FaultPlan().crash(1, at=1e6, restart_at=1e6 + 10.0))
        seg = cluster.nodes[1].memory.register(SIZE, name="tgt")
        results = []
        timed_read(cluster, 0, 1, seg, results)
        cluster.env.run(until=2e6)
        assert results[0][0] == "ok"
        assert results[0][2] == SIZE  # payload intact through the fence
        assert inj.completions_fenced == 0

    def test_unrelated_node_crash_does_not_fence(self):
        crash_at = mid_flight_crash_time()
        cluster, inj = slow_cluster(
            FaultPlan().crash(2, at=crash_at,
                              restart_at=crash_at + 1.0))
        seg = cluster.nodes[1].memory.register(SIZE, name="tgt")
        results = []
        timed_read(cluster, 0, 1, seg, results)
        cluster.env.run(until=1e9)
        assert results[0][0] == "ok"
        assert inj.completions_fenced == 0

    def test_fence_preserves_down_node_failure(self):
        cluster, inj = slow_cluster(FaultPlan().crash(1, at=0.0))
        seg = cluster.nodes[1].memory.register(SIZE, name="tgt")
        results = []
        timed_read(cluster, 0, 1, seg, results)
        cluster.env.run(until=1e9)
        status, _t, msg = results[0]
        assert status == "fail"
        assert "stale completion" not in msg  # plain down, not a zombie
