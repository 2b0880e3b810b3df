"""Tests for kernel stats, the five monitoring schemes and the LB."""

import re

import pytest

from repro.errors import MonitorError
from repro.net import Cluster
from repro.monitor import (
    KernelStats,
    MONITOR_SCHEMES,
    MonitoredLoadBalancer,
    RdmaAsyncMonitor,
    RdmaSyncMonitor,
    SocketAsyncMonitor,
    SocketSyncMonitor,
)
from repro.monitor.experiments import accuracy_trace, lb_throughput
from repro.monitor.schemes import DAEMON_COLLECT_US


def build(scheme_cls, n_back=2, seed=0, **kw):
    cluster = Cluster(n_nodes=n_back + 1, seed=seed)
    front = cluster.nodes[0]
    backs = cluster.nodes[1:]
    stats = {b.id: KernelStats(b) for b in backs}
    monitor = scheme_cls(front, stats, **kw)
    return cluster, front, backs, stats, monitor


def cpu_work(node):
    """The work of every job ``node``'s CPU runs from now on."""
    works = []
    run = node.cpu.run

    def counted(work, name="job"):
        works.append(work)
        return run(work, name)

    node.cpu.run = counted
    return works


class TestKernelStats:
    def test_reflects_cpu_background(self):
        cluster = Cluster(n_nodes=1, seed=0)
        ks = KernelStats(cluster.nodes[0])
        cluster.nodes[0].cpu.set_background(7)
        cluster.env.run(until=200.0)  # let the refresher fire
        snap = ks.snapshot()
        assert snap["n_threads"] == 7
        assert snap["load"] == pytest.approx(3.5)  # 7 threads / 2 cores

    def test_decode_rejects_short_blob(self):
        with pytest.raises(MonitorError):
            KernelStats.decode(b"short")

    def test_updates_counter_increases(self):
        cluster = Cluster(n_nodes=1, seed=0)
        ks = KernelStats(cluster.nodes[0])
        cluster.env.run(until=5000.0)
        assert ks.snapshot()["updates"] > 50


class TestSchemes:
    @pytest.mark.parametrize("name", sorted(MONITOR_SCHEMES))
    def test_query_reports_load(self, name):
        cluster, front, backs, stats, monitor = build(
            MONITOR_SCHEMES[name])
        backs[0].cpu.set_background(9)

        def app(env):
            yield env.timeout(20_000.0)  # async schemes prime caches
            report = yield monitor.query(backs[0].id)
            return report

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        if monitor.NEEDS_DAEMON:
            # the socket daemons' own collection thread shows up in the
            # measurement — the intrusiveness the paper calls out
            assert p.value["n_threads"] in (9, 10)
        else:
            assert p.value["n_threads"] == 9

    def test_rdma_does_not_perturb_what_it_measures(self):
        """Paper goal (ii): no extra process on the monitored node.  The
        socket daemon inflates the thread count it reports; RDMA reads
        the kernel's view untouched."""
        cluster, front, backs, stats, monitor = build(SocketSyncMonitor)
        backs[0].cpu.set_background(9)

        def app(env):
            report = yield monitor.query(backs[0].id)
            return report

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        assert p.value["n_threads"] == 10  # 9 app threads + the daemon

    def test_rdma_sync_costs_no_backend_cpu(self):
        cluster, front, backs, stats, monitor = build(RdmaSyncMonitor)
        works = cpu_work(backs[0])

        def app(env):
            for _ in range(100):
                yield monitor.query(backs[0].id)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        assert sum(works) == 0.0

    def test_socket_sync_costs_backend_cpu(self):
        cluster, front, backs, stats, monitor = build(SocketSyncMonitor)
        works = cpu_work(backs[0])

        def app(env):
            for _ in range(50):
                yield monitor.query(backs[0].id)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        assert sum(works) > 0.0

    def test_socket_sync_daemon_serves_one_query_at_a_time(self):
        """A back-end runs one daemon per monitor: two queries sent at
        once are served in turn, so the second waits out the first's
        collection; the socket stack is charged on the back-end only."""
        cluster, front, backs, stats, monitor = build(SocketSyncMonitor)
        front_works = cpu_work(front)
        done = []

        def app(env):
            yield monitor.query(backs[0].id)
            done.append(env.now)

        env = cluster.env
        env.run_until_event(env.all_of([env.process(app(env))
                                        for _ in range(2)]))
        assert done[1] - done[0] >= DAEMON_COLLECT_US
        assert front_works == []

    def test_socket_sync_latency_inflates_under_load(self):
        def measure(load):
            cluster, front, backs, stats, monitor = build(
                SocketSyncMonitor)
            backs[0].cpu.set_background(load)

            def app(env):
                t0 = env.now
                yield monitor.query(backs[0].id)
                return env.now - t0

            p = cluster.env.process(app(cluster.env))
            cluster.env.run_until_event(p)
            return p.value

        assert measure(30) > 5 * measure(0)

    def test_rdma_sync_latency_independent_of_load(self):
        def measure(load):
            cluster, front, backs, stats, monitor = build(RdmaSyncMonitor)
            backs[0].cpu.set_background(load)

            def app(env):
                t0 = env.now
                yield monitor.query(backs[0].id)
                return env.now - t0

            p = cluster.env.process(app(cluster.env))
            cluster.env.run_until_event(p)
            return p.value

        assert measure(30) == pytest.approx(measure(0), rel=0.05)

    def test_async_view_is_stale_between_polls(self):
        cluster, front, backs, stats, monitor = build(
            RdmaAsyncMonitor, period_us=10_000.0)
        cluster.env.run(until=15_000.0)  # one poll happened
        backs[0].cpu.set_background(5)   # change right after
        cluster.env.run(until=16_000.0)
        assert monitor.view(backs[0].id)["n_threads"] == 0  # still stale
        cluster.env.run(until=26_000.0)
        assert monitor.view(backs[0].id)["n_threads"] == 5

    def test_empty_backend_set_rejected(self):
        cluster = Cluster(n_nodes=1, seed=0)
        with pytest.raises(MonitorError):
            RdmaSyncMonitor(cluster.nodes[0], {})


def _picks(cluster, lb, n):
    """``n`` concurrent ``pick()`` calls, drained at one instant."""
    events = [lb.pick() for _ in range(n)]
    cluster.env.run_until_event(cluster.env.all_of(events))
    return [ev.value for ev in events]


class TestLoadBalancer:
    def test_picks_least_loaded(self):
        cluster, front, backs, stats, monitor = build(RdmaSyncMonitor,
                                                      n_back=3)
        backs[0].cpu.set_background(10)
        backs[1].cpu.set_background(2)
        backs[2].cpu.set_background(6)
        cluster.env.run(until=200.0)
        lb = MonitoredLoadBalancer(monitor)

        def app(env):
            choice = yield lb.pick()
            return choice

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        assert p.value == backs[1].id

    def test_outstanding_spreads_concurrent_picks(self):
        cluster, front, backs, stats, monitor = build(RdmaAsyncMonitor,
                                                      n_back=3)
        cluster.env.run(until=2_000.0)
        lb = MonitoredLoadBalancer(monitor)
        picks = _picks(cluster, lb, 6)
        # with equal reported load, picks rotate across all three backs
        assert all(picks.count(b.id) == 2 for b in backs)

    def test_done_rebalances(self):
        cluster, front, backs, stats, monitor = build(RdmaAsyncMonitor,
                                                      n_back=2)
        cluster.env.run(until=2_000.0)
        lb = MonitoredLoadBalancer(monitor)
        first, second = _picks(cluster, lb, 2)
        assert first != second
        lb.done(first)
        assert _picks(cluster, lb, 1) == [first]

    def test_done_without_pick_rejected(self):
        cluster, front, backs, stats, monitor = build(RdmaAsyncMonitor)
        lb = MonitoredLoadBalancer(monitor)
        with pytest.raises(MonitorError):
            lb.done(backs[0].id)


class TestExperiments:
    def test_accuracy_rdma_sync_is_exact(self):
        r = accuracy_trace("rdma-sync", duration_us=60_000)
        assert r.mean_abs_deviation == 0.0
        assert len(r.samples) > 10

    def test_accuracy_socket_async_deviates(self):
        r_sock = accuracy_trace("socket-async", duration_us=60_000)
        r_rdma = accuracy_trace("rdma-sync", duration_us=60_000)
        assert r_sock.mean_abs_deviation > r_rdma.mean_abs_deviation

    def test_unknown_scheme_rejected(self):
        with pytest.raises(MonitorError):
            accuracy_trace("nope")
        with pytest.raises(MonitorError):
            lb_throughput("nope", 0.9)

    def test_lb_throughput_rdma_beats_socket_async(self):
        base = lb_throughput("socket-async", 0.75, measure_us=100_000)
        rdma = lb_throughput("rdma-sync", 0.75, measure_us=100_000)
        assert rdma > base

    def test_only_the_periodic_schemes_take_a_period(self):
        assert {name for name, cls in MONITOR_SCHEMES.items()
                if cls.PERIODIC} == {"socket-async", "rdma-async"}

    @pytest.mark.parametrize("scheme", ["rdma-sync", "rdma-async"])
    def test_a_constructor_type_error_propagates(self, monkeypatch,
                                                 scheme):
        """A TypeError raised inside a scheme's constructor is the
        scheme's bug: it surfaces, never a silent retry without the
        period."""
        from repro.reconfig import burst_recovery_time

        class Broken(MONITOR_SCHEMES[scheme]):
            def __init__(self, front, stats, **kw):
                raise TypeError(f"broken {scheme} with {sorted(kw)}")

        monkeypatch.setitem(MONITOR_SCHEMES, scheme, Broken)
        kw = {"period_us": 500.0} if Broken.PERIODIC else {}
        msg = re.escape(f"broken {scheme} with {sorted(kw)}")
        with pytest.raises(TypeError, match=msg):
            accuracy_trace(scheme, duration_us=1_000, **kw)
        with pytest.raises(TypeError, match=msg):
            burst_recovery_time(scheme)


@pytest.mark.parametrize("scheme", ["rdma-sync", "socket-sync"])
def test_accuracy_trace_refuses_a_period_for_a_sync_scheme(scheme):
    """A sync scheme has no push/poll period: asking for one is an
    error that names the scheme, not a silently ignored argument."""
    with pytest.raises(MonitorError, match=f"'{scheme}'.*period_us=500"):
        accuracy_trace(scheme, duration_us=1_000, period_us=500.0)
