"""Tests for the STORM query engine (both coordination substrates)."""

import pytest

from repro.errors import ConfigError
from repro.net import Cluster
from repro.apps.storm import StormEngine


def build(n_records=2000, use_ddss=False, n_nodes=4, seed=3):
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    engine = StormEngine(cluster, n_records=n_records, use_ddss=use_ddss)
    return cluster, engine


def run_query(cluster, engine, lo, hi):
    ev = engine.run_query(lo, hi)
    cluster.env.run_until_event(ev, limit=1e9)
    return ev.value


@pytest.mark.parametrize("use_ddss", [False, True])
class TestCorrectness:
    def test_query_matches_direct_evaluation(self, use_ddss):
        cluster, engine = build(use_ddss=use_ddss)
        got = run_query(cluster, engine, 2000, 7000)
        assert got == engine.expected(2000, 7000)

    def test_empty_range(self, use_ddss):
        cluster, engine = build(use_ddss=use_ddss)
        assert run_query(cluster, engine, 5000, 5000) == (0, 0)

    def test_full_range_counts_everything(self, use_ddss):
        cluster, engine = build(n_records=1234, use_ddss=use_ddss)
        count, _total = run_query(cluster, engine, 0, 10_000)
        assert count == 1234

    def test_sequential_queries(self, use_ddss):
        cluster, engine = build(use_ddss=use_ddss)
        for lo, hi in ((0, 100), (100, 5000), (9000, 10_000)):
            assert run_query(cluster, engine, lo, hi) \
                == engine.expected(lo, hi)
        assert engine.queries_run == 3


class TestPartitioning:
    def test_records_partitioned_across_storage(self):
        cluster, engine = build(n_records=1000, n_nodes=5)
        parts = [len(p) for p in engine.partitions.values()]
        assert sum(parts) == 1000
        assert len(parts) == 4
        assert max(parts) - min(parts) <= 1

    def test_bad_config(self):
        cluster = Cluster(n_nodes=1, seed=0)
        with pytest.raises(ConfigError):
            StormEngine(cluster, n_records=10)
        cluster = Cluster(n_nodes=2, seed=0)
        with pytest.raises(ConfigError):
            StormEngine(cluster, n_records=0)


class TestPerformanceShape:
    def mean_query_time(self, use_ddss, n_records, n_queries=6):
        cluster, engine = build(n_records=n_records, use_ddss=use_ddss)

        def workload(env):
            t0 = env.now
            for q in range(n_queries):
                yield engine.run_query(0, 3000 + 500 * q)
            return (env.now - t0) / n_queries

        p = cluster.env.process(workload(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        return p.value

    def test_ddss_beats_sockets_at_moderate_scale(self):
        """Fig 3b: DDSS coordination wins (~19% at 10K records)."""
        trad = self.mean_query_time(False, 10_000)
        ddss = self.mean_query_time(True, 10_000)
        assert ddss < trad
        assert (trad / ddss - 1) > 0.05

    def test_advantage_shrinks_with_scan_size(self):
        gain_small = (self.mean_query_time(False, 2_000)
                      / self.mean_query_time(True, 2_000))
        gain_large = (self.mean_query_time(False, 200_000)
                      / self.mean_query_time(True, 200_000))
        assert gain_small > gain_large


def test_query_ids_are_per_run():
    """Request ids come from the run's environment: the traditional
    queries of a second identical run in the same process send the same
    ids, one per exchange with each storage node."""
    def rids():
        cluster, engine = build()
        seen = []
        nic = engine.coordinator.nic

        def post(dst, payload=None, real=nic.post, **kw):
            seen.append(payload["req"])
            real(dst, payload=payload, **kw)

        nic.post = post
        run_query(cluster, engine, 0, 100)
        run_query(cluster, engine, 100, 200)
        return seen

    first = rids()
    # 2 queries x 2 exchanges (meta, query) x 3 storage nodes
    assert len(set(first)) == len(first) == 12
    assert rids() == first


def test_queries_leave_no_receive_queues():
    """Replies are routed by request id, not a tag per query: the
    coordinator's receive-queue table is the same size after 2
    traditional queries as after 16."""
    cluster, engine = build()
    queues = engine.coordinator.nic._recv_queues
    sizes = {}
    for q in range(16):
        run_query(cluster, engine, 0, 100 * (q + 1))
        sizes[q + 1] = len(queues)
    assert sizes[2] == sizes[16]
