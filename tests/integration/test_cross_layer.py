"""Integration tests spanning multiple framework layers."""

import pytest

from repro.net import Cluster
from repro.ddss import DDSS, Coherence
from repro.dlm import LockMode, NCoSEDManager
from repro.cache import HybridCache
from repro.datacenter import DataCenter
from repro.monitor import KernelStats, RdmaSyncMonitor
from repro.workloads import FileSet


class TestDdssWithDlm:
    """DDSS units guarded by the N-CoSED lock manager: a read-modify-
    write counter incremented concurrently from several nodes must not
    lose updates."""

    def test_no_lost_updates_under_ncosed(self):
        cluster = Cluster(n_nodes=5, seed=11)
        ddss = DDSS(cluster)
        dlm = NCoSEDManager(cluster, n_locks=1)
        writer_nodes = cluster.nodes[1:]
        increments_per_writer = 5
        state = {}

        def setup(env):
            client = ddss.client(cluster.nodes[0])
            state["key"] = yield client.allocate(
                8, coherence=Coherence.NULL, placement=0)
            yield client.put(state["key"], (0).to_bytes(8, "big"))

        p = cluster.env.process(setup(cluster.env))
        cluster.env.run_until_event(p)

        def writer(env, node):
            client = ddss.client(node)
            lock = dlm.client(node)
            for _ in range(increments_per_writer):
                yield lock.acquire(0, LockMode.EXCLUSIVE)
                raw = yield client.get(state["key"])
                value = int.from_bytes(raw, "big")
                yield client.put(state["key"],
                                 (value + 1).to_bytes(8, "big"))
                yield lock.release(0)
                yield env.timeout(50.0)

        procs = [cluster.env.process(writer(cluster.env, n))
                 for n in writer_nodes]
        done = cluster.env.all_of(procs)
        cluster.env.run_until_event(done, limit=1e9)

        def check(env):
            client = ddss.client(cluster.nodes[0])
            raw = yield client.get(state["key"])
            return int.from_bytes(raw, "big")

        p = cluster.env.process(check(cluster.env))
        cluster.env.run_until_event(p)
        assert p.value == len(writer_nodes) * increments_per_writer

    def test_lost_updates_happen_without_locking(self):
        """Sanity check that the lock above is doing real work: the same
        read-modify-write pattern *without* locks loses updates."""
        cluster = Cluster(n_nodes=5, seed=11)
        ddss = DDSS(cluster)
        state = {}

        def setup(env):
            client = ddss.client(cluster.nodes[0])
            state["key"] = yield client.allocate(
                8, coherence=Coherence.NULL, placement=0)
            yield client.put(state["key"], (0).to_bytes(8, "big"))

        p = cluster.env.process(setup(cluster.env))
        cluster.env.run_until_event(p)

        def writer(env, node):
            client = ddss.client(node)
            for _ in range(5):
                raw = yield client.get(state["key"])
                value = int.from_bytes(raw, "big")
                yield client.put(state["key"],
                                 (value + 1).to_bytes(8, "big"))

        procs = [cluster.env.process(writer(cluster.env, n))
                 for n in cluster.nodes[1:]]
        cluster.env.run_until_event(cluster.env.all_of(procs), limit=1e9)

        def check(env):
            client = ddss.client(cluster.nodes[0])
            raw = yield client.get(state["key"])
            return int.from_bytes(raw, "big")

        p = cluster.env.process(check(cluster.env))
        cluster.env.run_until_event(p)
        assert p.value < 20  # racy increments collide


class TestCacheInsideDataCenter:
    def test_hybcc_beats_ac_on_large_files(self):
        """End-to-end Fig 6 shape on a small configuration."""

        def tps_for(scheme):
            dc = DataCenter(n_proxies=2, scheme=scheme,
                            n_docs=300, doc_bytes=32 * 1024,
                            cache_bytes=1024 * 1024, n_sessions=12,
                            seed=9)
            return dc.run_tps(warmup_us=50_000, measure_us=150_000)

        assert tps_for("HYBCC") > 1.2 * tps_for("AC")

    def test_tokens_verified_through_whole_stack(self):
        """The proxy checks every served byte against the file set, so
        a clean run is an end-to-end content-correctness proof."""
        dc = DataCenter(n_proxies=3, scheme="CCWR",
                        n_docs=100, doc_bytes=4096,
                        cache_bytes=128 * 1024, n_sessions=8, seed=10)
        dc.run_tps(warmup_us=20_000, measure_us=60_000)
        assert dc.metrics.completed > 50


class TestMonitorOverRealServers:
    def test_monitor_sees_datacenter_load(self):
        """An RDMA monitor attached to a data-center's app tier reports
        the load the workload actually creates."""
        dc = DataCenter(n_proxies=2, scheme="AC",
                        n_docs=500, doc_bytes=16 * 1024,
                        cache_bytes=64 * 1024, n_sessions=16, seed=12)
        stats = {n.id: KernelStats(n) for n in dc.app_nodes}
        monitor = RdmaSyncMonitor(dc.proxy_nodes[0], stats)
        dc.clients.start()
        dc.env.run(until=50_000)
        seen = {}

        def probe(env):
            for nid in monitor.back_ids:
                report = yield monitor.query(nid)
                seen[nid] = report["n_threads"]

        p = dc.env.process(probe(dc.env))
        dc.env.run_until_event(p)
        # AC at this working set misses a lot: the app tier must be busy
        assert sum(seen.values()) > 0
