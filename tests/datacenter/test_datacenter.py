"""Tests for the multi-tier data-center model."""

import pytest

from repro.errors import ConfigError
from repro.net import Cluster
from repro.cache import ApacheCache
from repro.datacenter import (
    BackendTier,
    ClosedLoopClients,
    DataCenter,
    DataCenterMetrics,
    ProxyServer,
)
from repro.datacenter.server import N_WORKERS
from repro.workloads import FileSet, ZipfGenerator


class TestBackendTier:
    def test_fetch_returns_correct_token(self):
        cluster = Cluster(n_nodes=3, seed=0)
        fs = FileSet(10, 4096, seed=0)
        backend = BackendTier(cluster.nodes[1:], fs)

        def app(env):
            token = yield from backend.fetch_gen(cluster.nodes[0], 7)
            return token

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        assert fs.verify(7, p.value)
        assert backend.requests == 1

    def test_cost_scales_with_document_size(self):
        cluster = Cluster(n_nodes=2, seed=0)
        fs = FileSet(2, [1024, 262_144], seed=0)
        backend = BackendTier([cluster.nodes[1]], fs)

        def timed(env, doc):
            t0 = env.now
            yield from backend.fetch_gen(cluster.nodes[0], doc)
            return env.now - t0

        p = cluster.env.process(timed(cluster.env, 0))
        cluster.env.run_until_event(p)
        t_small = p.value
        p = cluster.env.process(timed(cluster.env, 1))
        cluster.env.run_until_event(p)
        assert p.value > 3 * t_small

    def test_round_robin_across_app_nodes(self):
        cluster = Cluster(n_nodes=4, seed=0)
        fs = FileSet(10, 1024, seed=0)
        backend = BackendTier(cluster.nodes[1:], fs)
        jobs = {n.id: 0 for n in cluster.nodes[1:]}
        for n in cluster.nodes[1:]:
            def counted(work, name="job", run=n.cpu.run, node_id=n.id):
                jobs[node_id] += work > 0
                return run(work, name)
            n.cpu.run = counted

        def app(env):
            for doc in range(6):
                yield from backend.fetch_gen(cluster.nodes[0], doc)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        # all three app nodes did some generation work
        assert all(jobs.values())

    def test_empty_tier_rejected(self):
        fs = FileSet(1, 10)
        with pytest.raises(ConfigError):
            BackendTier([], fs)


class TestProxyServer:
    def build(self):
        cluster = Cluster(names=["client", "proxy", "app"], seed=0)
        fs = FileSet(20, 2048, seed=0)
        scheme = ApacheCache([cluster.nodes[1]], fs, 16 * 1024)
        backend = BackendTier([cluster.nodes[2]], fs)
        metrics = DataCenterMetrics(cluster.env)
        server = ProxyServer(cluster.nodes[1], scheme, backend, metrics)
        return cluster, server, metrics, scheme

    def test_serves_and_records(self):
        cluster, server, metrics, scheme = self.build()

        def app(env):
            yield server.handle(3, client_node_id=0)
            yield server.handle(3, client_node_id=0)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        assert server.served == 2
        assert metrics.completed == 2
        assert scheme.local_hits == 1  # second request hits

    def test_worker_pool_bounds_concurrency(self):
        cluster, server, metrics, _ = self.build()
        n = N_WORKERS + 8

        def app(env):
            events = [server.handle(d % 20, client_node_id=0)
                      for d in range(n)]
            yield env.all_of(events)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        assert server.queue_peak >= 1  # some requests waited for a worker
        assert server.served == n


class TestMetrics:
    def test_tps_window(self):
        cluster = Cluster(n_nodes=1, seed=0)
        m = DataCenterMetrics(cluster.env)

        def app(env):
            for _ in range(10):
                yield env.timeout(1000.0)
                m.record(env.now - 500.0)

        p = cluster.env.process(app(cluster.env))
        cluster.env.run_until_event(p)
        # 10 transactions in 10_000us -> 1000 tps
        assert m.tps() == pytest.approx(1000.0, rel=0.01)
        assert m.latency.tally.mean == pytest.approx(500.0)

    def test_window_reset(self):
        cluster = Cluster(n_nodes=1, seed=0)
        m = DataCenterMetrics(cluster.env)
        m.record(0.0)
        m.start_window()
        assert m.completed == 0


class TestDataCenterBuilder:
    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigError):
            DataCenter(scheme="NOPE")

    def test_end_to_end_small_run(self):
        dc = DataCenter(n_proxies=2, scheme="BCC",
                        n_docs=60, doc_bytes=2048,
                        cache_bytes=32 * 1024, n_sessions=6, seed=4)
        tps = dc.run_tps(warmup_us=20_000, measure_us=50_000)
        assert tps > 0
        assert dc.metrics.completed > 10
        # the cooperative scheme actually cooperated
        assert dc.scheme.local_hits + dc.scheme.remote_hits > 0

    def test_all_schemes_run_end_to_end(self):
        for scheme in ("AC", "BCC", "CCWR", "MTACC", "HYBCC"):
            dc = DataCenter(n_proxies=2, scheme=scheme,
                            n_docs=40, doc_bytes=2048,
                            cache_bytes=32 * 1024, n_sessions=4, seed=5)
            assert dc.run_tps(warmup_us=10_000, measure_us=30_000) > 0

    def test_deterministic_given_seed(self):
        def one():
            dc = DataCenter(n_proxies=2, scheme="AC",
                            n_docs=40, doc_bytes=2048,
                            cache_bytes=32 * 1024, n_sessions=4, seed=6)
            return dc.run_tps(warmup_us=10_000, measure_us=30_000)

        assert one() == one()


class TestClosedLoopClients:
    def test_round_robin_over_proxies(self):
        cluster = Cluster(names=["client", "p0", "p1", "app"], seed=0)
        fs = FileSet(10, 1024, seed=0)
        scheme = ApacheCache(cluster.nodes[1:3], fs, 8 * 1024)
        backend = BackendTier([cluster.nodes[3]], fs)
        metrics = DataCenterMetrics(cluster.env)
        servers = [ProxyServer(n, scheme, backend, metrics)
                   for n in cluster.nodes[1:3]]
        zipf = ZipfGenerator(10, 0.5, cluster.rng.get("z"))
        clients = ClosedLoopClients(cluster.nodes[0], servers, zipf,
                                    n_sessions=2)
        clients.start()
        cluster.env.run(until=50_000)
        # dispatch alternates, so the proxies' counts differ by at most
        # the requests still in flight
        assert servers[0].served > 0 and servers[1].served > 0
        assert abs(servers[0].served - servers[1].served) <= 2

    def test_double_start_rejected(self):
        cluster = Cluster(names=["client", "p0", "app"], seed=0)
        fs = FileSet(10, 1024, seed=0)
        scheme = ApacheCache([cluster.nodes[1]], fs, 8 * 1024)
        backend = BackendTier([cluster.nodes[2]], fs)
        servers = [ProxyServer(cluster.nodes[1], scheme, backend,
                               DataCenterMetrics(cluster.env))]
        zipf = ZipfGenerator(10, 0.5, cluster.rng.get("z"))
        clients = ClosedLoopClients(cluster.nodes[0], servers, zipf,
                                    n_sessions=1)
        clients.start()
        with pytest.raises(ConfigError):
            clients.start()
