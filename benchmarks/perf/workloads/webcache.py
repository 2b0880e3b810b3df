"""webcache: cache + datacenter services, large contended transfers.

``DataCenter(n_proxies=8, n_app=2, n_docs=1200, doc_bytes=32768,
cache_bytes=8 MiB)``: 38 MB of documents against 8 MB per proxy, 64 MB
in aggregate.  ``SESSIONS`` closed-loop sessions on the client node are
driven by this file through ``ProxyServer.handle`` (so latencies are
exact samples, not log2 buckets): each draws its next document
Zipf(0.8), sends the 200-byte request to the next proxy round-robin
and waits for the whole response.  Uses net the opposite way to
verbs-small: 32 KB transfers queueing on links, processor-shared CPUs.

Cells ``ac bcc hybcc``: no cooperation / cooperative with duplicates /
hybrid.  ``WARMUP_US`` of load fills the caches and is charged to
``setup_s``; the next ``MEASURE_US`` are measured.

The servers' shared ``DataCenterMetrics`` (a log2-bucket histogram from
``repro.obs.metrics``) is swapped for a no-op: the driver times every
request itself, and nothing under ``repro/obs`` may run here.

op = one request whose response arrived inside the window; latency =
request sent -> response delivered.
"""

from __future__ import annotations

import numpy as np

from repro.datacenter import DataCenter
from repro.errors import CacheError, ReproError
from repro.workloads import ZipfGenerator

from perf.harness import Cell, CellResult, CheckFailed, delta, net_counters

NAME = "webcache"
LAYER = "cache"
CELLS = ("ac", "bcc", "hybcc")

N_PROXIES = 8
N_DOCS = 300
DOC_BYTES = 32768
CACHE_BYTES = 2 * 1024 * 1024
ALPHA = 0.8
SESSIONS = 32
WARMUP_US = 60_000.0
MEASURE_US = 60_000.0
REQ_BYTES = 200
DRAWS = 2048  # per session; the list is cycled if a session outruns it


class _NoMetrics:
    def record(self, started_at):
        pass


class CacheCell(Cell):
    def __init__(self, name, seed, rec, sessions=SESSIONS,
                 warmup_us=WARMUP_US, measure_us=MEASURE_US):
        super().__init__()
        self.name = name
        self.rec = rec
        self.seed = seed
        self.warmup_us = warmup_us
        self.measure_us = measure_us
        rng = np.random.default_rng([seed, 4])
        self.docs = ZipfGenerator(N_DOCS, ALPHA, rng).batch(
            sessions * DRAWS).reshape(sessions, DRAWS).tolist()

    def build(self):
        self.dc = DataCenter(n_proxies=N_PROXIES, n_app=2,
                             scheme=self.name.upper(), n_docs=N_DOCS,
                             doc_bytes=DOC_BYTES, cache_bytes=CACHE_BYTES,
                             seed=self.seed)
        env = self.dc.env
        for server in self.dc.servers:
            server.metrics = _NoMetrics()
        self.measuring = False
        self.lat = []
        self.raised = 0
        self.last_done = 0.0
        self.wrong = None
        for s in range(len(self.docs)):
            env.process(self._session(env, s), name=f"session-{s}")
        env.run(until=self.warmup_us)
        self.measuring = True
        self.h0 = self._cache_counts()
        self.c0 = net_counters(self.dc.cluster)

    def _cache_counts(self):
        scheme = self.dc.scheme
        hits = scheme.local_hits + scheme.remote_hits
        return {"cache.hits": hits, "cache.lookups": hits + scheme.misses,
                "datacenter.backend": self.dc.backend.requests,
                "served": sum(s.served for s in self.dc.servers)}

    def _session(self, env, s):
        client = self.dc.client_node
        servers = self.dc.servers
        fabric = client.fabric
        rec = self.rec
        yield env.timeout(s * 3.0)
        n = 0
        while True:
            doc = self.docs[s][n % DRAWS]
            proxy = servers[(s + n) % N_PROXIES]
            n += 1
            t0 = env.now
            sid = (rec.begin("datacenter", "handle", t0)
                   if rec is not None and self.measuring else 0)
            try:
                yield fabric.transfer(client.id, proxy.node.id, REQ_BYTES)
                yield proxy.handle(doc, client.id)
            except CacheError as exc:
                self.wrong = exc
                return
            except ReproError:
                self.raised += self.measuring
                continue
            if self.measuring:
                t1 = env.now
                if sid:
                    rec.end(sid, t1)
                self.lat.append(t1 - t0)
                self.last_done = t1

    def drain(self):
        self.dc.env.run(until=self.warmup_us + self.measure_us)

    def finish(self):
        if self.wrong is not None:
            raise CheckFailed("cache-content",
                              f"{NAME}.{self.name}: {self.wrong}")
        ops = len(self.lat)
        counts = delta(self._cache_counts(), self.h0)
        if ops == 0 or counts.pop("served") != ops:
            raise CheckFailed(
                "cache-requests", f"{NAME}.{self.name}: {ops} responses "
                f"timed by the driver, servers counted otherwise (or none)")
        if not 0 <= counts["cache.hits"] <= counts["cache.lookups"]:
            raise CheckFailed(
                "cache-hit-ratio", f"{NAME}.{self.name}: hits "
                f"{counts['cache.hits']} of {counts['cache.lookups']}")
        counters = delta(net_counters(self.dc.cluster), self.c0)
        counters.update(counts)
        counters["datacenter.queue_peak"] = max(
            s.queue_peak for s in self.dc.servers)
        return CellResult(
            ops=ops, attempted=ops + self.raised, failed=self.raised,
            makespan_us=self.last_done - self.warmup_us,
            latencies=self.lat, counters=counters)


def make_cell(name, seed, rec):
    return CacheCell(name, seed, rec)
