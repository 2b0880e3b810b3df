"""The paper's figures, one definition each.

Every row of :data:`FIGURES` states a paper claim, names its result
files under ``benchmarks/results/``, builds their tables with the
published parameters (``build()`` returns them in ``files`` order) and
checks the claim's shape (``check(*tables)`` raises AssertionError).
``repro list``, ``repro run`` and ``benchmarks/test_figures.py`` all
read this table, so the figure a user runs is the figure CI gates.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Sequence, Tuple

from repro.apps.storm import StormEngine
from repro.bench.harness import BenchTable, improvement_pct
from repro.datacenter import DataCenter
from repro.ddss import DDSS, Coherence
from repro.dlm import (DESIGNS, DQNLManager, LockMode, NCoSEDManager,
                       SRSLManager, cascade_latency)
from repro.dlm.ft import EpochFencedManager
from repro.dlm.tournament import ROUNDS, lock_tournament
from repro.monitor.experiments import accuracy_trace, lb_throughput
from repro.net import Cluster, NetworkParams
from repro.reconfig import burst_recovery_time
from repro.topo.scenarios import measure_lock_throughput, measure_verb_latency
from repro.transport import (AzSdpEndpoint, BufferedSdpEndpoint,
                             CreditFlowSender, FlowReceiver,
                             PacketizedFlowSender, ZeroCopySdpEndpoint)
from repro.txn.scenarios import txn_bench

__all__ = ["FIGURES", "Figure"]


class Figure(NamedTuple):
    """One paper figure: what it claims and how it is built and checked."""

    name: str
    claim: str
    files: Tuple[str, ...]
    build: Callable[[], Sequence[BenchTable]]
    check: Callable[..., None]


# -- Fig 3a: DDSS put() latency per coherence model

DDSS_MODELS = [Coherence.NULL, Coherence.READ, Coherence.WRITE,
               Coherence.STRICT, Coherence.VERSION, Coherence.DELTA]
#: puts per cell; the cell is their mean latency
PUT_ITERS = 20


def _put_latency(model: Coherence, size: int) -> float:
    cluster = Cluster(n_nodes=4, seed=1)
    ddss = DDSS(cluster, segment_bytes=256 * 1024)
    client = ddss.client(cluster.nodes[1])
    payload = b"\xab" * size

    def app(env):
        # fixed remote home so placement does not confound the sweep
        key = yield client.allocate(size + 8, coherence=model,
                                    placement=3)
        t0 = env.now
        for _ in range(PUT_ITERS):
            yield client.put(key, payload)
        return (env.now - t0) / PUT_ITERS

    p = cluster.env.process(app(cluster.env))
    cluster.env.run_until_event(p)
    return p.value


def build_fig3a():
    table = BenchTable(
        "DDSS put() latency (us) by coherence model",
        ["size_bytes"] + [m.value for m in DDSS_MODELS],
        paper_ref="Fig 3a: all models <= ~55us at 1 byte")
    for size in (1, 64, 256, 1024, 4096):
        table.add(size, *(round(_put_latency(m, size), 2)
                          for m in DDSS_MODELS))
    return [table]


def check_fig3a(table):
    one_byte = table.rows[0][1:]
    assert all(lat <= 55.0 for lat in one_byte), one_byte
    by_model = dict(zip(table.columns[1:], one_byte))
    assert by_model["null"] <= by_model["version"] <= by_model["strict"]


# -- Fig 3b: STORM query time, traditional vs DDSS-backed

#: queries per cell; the cell is their mean time
N_QUERIES = 8


def _query_time(n_records: int, use_ddss: bool) -> float:
    cluster = Cluster(n_nodes=5, seed=3)
    engine = StormEngine(cluster, n_records=n_records, use_ddss=use_ddss)

    def workload(env):
        t0 = env.now
        for q in range(N_QUERIES):
            yield engine.run_query(0, 2_000 + 700 * q)
        return (env.now - t0) / N_QUERIES

    p = cluster.env.process(workload(cluster.env))
    cluster.env.run_until_event(p, limit=1e10)
    return p.value


def build_fig3b():
    table = BenchTable(
        "STORM query execution time (us/query)",
        ["records", "traditional", "storm_ddss", "improvement_%"],
        paper_ref="Fig 3b: ~19% improvement with DDSS")
    for n in (1_000, 10_000, 100_000, 1_000_000):
        trad = _query_time(n, use_ddss=False)
        ddss = _query_time(n, use_ddss=True)
        table.add(n, round(trad, 1), round(ddss, 1),
                  round(improvement_pct(trad, ddss), 1))
    return [table]


def check_fig3b(table):
    # DDSS coordination wins, its edge shrinking as the scan comes to
    # dominate (largest record count), and crosses 10 % somewhere
    improvements = [row[3] for row in table.rows]
    assert all(imp > 0 for imp in improvements[:-1]), improvements
    assert improvements[0] > improvements[-1]
    assert any(imp >= 10.0 for imp in improvements), improvements


# -- Fig 5: lock cascading latency

def build_fig5():
    tables = []
    for mode, ref in ((LockMode.SHARED, "Fig 5a"),
                      (LockMode.EXCLUSIVE, "Fig 5b")):
        table = BenchTable(
            f"{mode.value}-lock cascading latency (us)",
            ["waiters", "SRSL", "DQNL", "N-CoSED"],
            paper_ref=f"{ref}: cascade from one release to last grant")
        for n in (1, 2, 4, 8, 16):
            table.add(n, *(round(cascade_latency(cls, n, mode)
                                 ["cascade_us"], 1)
                           for cls in (SRSLManager, DQNLManager,
                                       NCoSEDManager)))
        tables.append(table)
    return tables


def check_fig5(shared_table, exclusive_table):
    shared = {row[0]: row[1:] for row in shared_table.rows}
    exclusive = {row[0]: row[1:] for row in exclusive_table.rows}
    # shared @16: N-CoSED far ahead of DQNL (paper: up to ~317 %)
    srsl, dqnl, ncosed = shared[16]
    assert dqnl / ncosed > 3.0, shared
    assert srsl / ncosed > 1.0, shared
    # the N-CoSED shared cascade is ~flat: 16 waiters cost < 2x one
    assert shared[16][2] < 2.0 * shared[1][2]
    # exclusive: the one-sided schemes beat the message-based server
    srsl, dqnl, ncosed = exclusive[16]
    assert srsl / ncosed > 1.3, exclusive
    assert abs(dqnl - ncosed) / ncosed < 0.2


# -- Fig 6: cooperative-caching throughput

CACHE_SCHEMES = ["AC", "BCC", "CCWR", "MTACC", "HYBCC"]


def build_fig6():
    tables = []
    for n_proxies, ref in ((2, "Fig 6a"), (8, "Fig 6b")):
        table = BenchTable(
            f"Data-center throughput (TPS), {n_proxies} proxy nodes",
            ["file_size"] + CACHE_SCHEMES,
            paper_ref=f"{ref}: AC < BCC < advanced; HYBCC tracks best")
        for size in (8_192, 16_384, 32_768, 65_536):
            row = [f"{size // 1024}k"]
            for scheme in CACHE_SCHEMES:
                dc = DataCenter(n_proxies=n_proxies, scheme=scheme,
                                n_docs=1_200, doc_bytes=size,
                                cache_bytes=8 * 1024 * 1024,
                                n_sessions=24 * n_proxies, seed=1)
                row.append(round(dc.run_tps(warmup_us=100_000.0,
                                            measure_us=150_000.0)))
            table.add(*row)
        tables.append(table)
    return tables


def check_fig6(two, eight):
    two, eight = ([dict(zip(CACHE_SCHEMES, row[1:])) for row in t.rows]
                  for t in (two, eight))
    # large files, 8 proxies: the aggregate schemes dominate
    big = eight[-1]
    assert big["CCWR"] > 1.3 * big["BCC"]
    assert big["HYBCC"] > 1.8 * big["AC"]
    # cooperation always beats no cooperation at 8 proxies
    for c in eight:
        assert max(c.values()) > 1.5 * c["AC"], c
    # HYBCC tracks the best scheme within 25 % everywhere
    for c in two + eight:
        assert c["HYBCC"] > 0.75 * max(c.values()), c


# -- Fig 8: monitoring accuracy and monitor-driven load balancing

def build_fig8a():
    table = BenchTable(
        "Thread-count deviation |reported - actual|",
        ["scheme", "mean_abs_dev", "max_dev", "samples"],
        paper_ref="Fig 8a: RDMA schemes show little or no deviation")
    for scheme in ("socket-async", "socket-sync", "rdma-async",
                   "rdma-sync"):
        r = accuracy_trace(scheme, duration_us=400_000.0, seed=0)
        table.add(scheme, round(r.mean_abs_deviation, 2),
                  r.max_deviation, len(r.samples))
    return [table]


def check_fig8a(table):
    mad = {row[0]: row[1] for row in table.rows}
    assert mad["rdma-sync"] == 0.0
    assert mad["rdma-async"] < mad["socket-async"]
    assert mad["socket-sync"] > 0.0
    assert mad["socket-async"] > mad["rdma-sync"]


LB_SCHEMES = ["socket-sync", "rdma-async", "rdma-sync", "e-rdma-sync"]


def build_fig8b():
    table = BenchTable(
        "Throughput improvement over Socket-Async (%)",
        ["alpha", "baseline_tps"] + LB_SCHEMES,
        paper_ref="Fig 8b: ~35% for RDMA-based schemes")
    for alpha in (0.9, 0.75, 0.5, 0.25):
        base = lb_throughput("socket-async", alpha, measure_us=300_000.0,
                             seed=0)
        table.add(alpha, round(base), *(
            round(improvement_pct(lb_throughput(s, alpha,
                                                measure_us=300_000.0,
                                                seed=0), base), 1)
            for s in LB_SCHEMES))
    return [table]


def check_fig8b(table):
    impr = [dict(zip(LB_SCHEMES, row[2:])) for row in table.rows]
    # the RDMA schemes improve over the socket baseline at every alpha,
    # and RDMA-Sync reaches the paper's ~35 % band somewhere
    for row in impr:
        assert row["rdma-sync"] > 10.0, row
        assert row["rdma-async"] > 5.0, row
    assert max(row["rdma-sync"] for row in impr) > 20.0


# -- §3 (ref [3]): SDP-family bandwidth

SDP_ENDPOINTS = [("BSDP", BufferedSdpEndpoint),
                 ("ZSDP", ZeroCopySdpEndpoint),
                 ("AZ-SDP", AzSdpEndpoint)]


#: back-to-back messages a stream cell sends
N_MSGS = 40


def _stream_bandwidth(endpoint_cls, size: int) -> float:
    """Achieved MB/s for :data:`N_MSGS` back-to-back messages of
    ``size``."""
    cluster = Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)
    server = endpoint_cls(cluster.nodes[0])
    client = endpoint_cls(cluster.nodes[1])
    listener = server.listen(1)
    done = {}

    def rx(env):
        conn = yield listener.accept()
        for _ in range(N_MSGS):
            yield conn.recv()
        done["t_end"] = env.now

    def tx(env):
        conn = yield client.connect(0, port=1)
        done["t0"] = env.now
        for i in range(N_MSGS):
            if endpoint_cls is AzSdpEndpoint:
                yield conn.send(i, size=size, buf=f"b{i % 16}")
            else:
                yield conn.send(i, size=size)

    cluster.env.process(rx(cluster.env))
    cluster.env.process(tx(cluster.env))
    cluster.env.run()
    return N_MSGS * size / (done["t_end"] - done["t0"])  # B/us == MB/s


def build_sdp():
    table = BenchTable(
        "SDP-family streaming bandwidth (MB/s)",
        ["msg_bytes"] + [name for name, _ in SDP_ENDPOINTS],
        paper_ref="AZ-SDP (ref [3]): async zero copy wins at large sizes")
    for size in (256, 1024, 8 * 1024, 64 * 1024, 256 * 1024):
        table.add(size, *(round(_stream_bandwidth(cls, size), 1)
                          for _, cls in SDP_ENDPOINTS))
    return [table]


def check_sdp(table):
    by_size = {row[0]: dict(zip(table.columns[1:], row[1:]))
               for row in table.rows}
    big, small = by_size[256 * 1024], by_size[256]
    # asynchronous zero copy dominates at large messages and approaches
    # the 900 MB/s line rate; buffered copy holds its own at small ones
    assert big["AZ-SDP"] >= big["ZSDP"]
    assert big["AZ-SDP"] > big["BSDP"]
    assert big["AZ-SDP"] > 0.7 * 900.0
    assert small["BSDP"] > small["ZSDP"]


# -- §6: packetized vs credit-based flow control

#: messages one flow-control cell streams
FLOW_MSGS = 400


def _flow_stream(sender_cls, size: int) -> float:
    cluster = Cluster(n_nodes=2, params=NetworkParams.infiniband(), seed=0)
    rx = FlowReceiver(cluster.nodes[1])
    sender = sender_cls(cluster.nodes[0], rx)
    p = cluster.env.process(sender.stream(FLOW_MSGS, size))
    cluster.env.run_until_event(p, limit=1e10)
    return p.value  # B/us == MB/s


def build_flowctl():
    table = BenchTable(
        "Flow-control bandwidth (MB/s), 8 x 8KB preposted buffers",
        ["msg_bytes", "credit", "packetized", "speedup"],
        paper_ref="paper SS6: ~order of magnitude for small messages")
    for size in (1, 64, 512, 4_096, 8_192):
        credit = _flow_stream(CreditFlowSender, size)
        packed = _flow_stream(PacketizedFlowSender, size)
        table.add(size, round(credit, 2), round(packed, 2),
                  round(packed / credit, 1))
    return [table]


def check_flowctl(table):
    speedups = {row[0]: row[3] for row in table.rows}
    # an order-of-magnitude class gain for tiny messages; the schemes
    # converge once a message fills a whole buffer
    assert speedups[1] > 8.0, speedups
    assert speedups[64] > 4.0, speedups
    assert 0.8 < speedups[8_192] < 1.3, speedups


# -- §6: fine- vs coarse-grained reconfiguration

def build_reconfig():
    table = BenchTable(
        "Burst detection / recovery by monitoring granularity",
        ["configuration", "detection_us", "recovery_us", "migrations"],
        paper_ref="paper SS6: order-of-magnitude responsiveness gain")
    for name, scheme, period in (
            ("coarse (socket-async, 25ms)", "socket-async", 25_000.0),
            ("medium (rdma-async, 5ms)", "rdma-async", 5_000.0),
            ("fine (rdma-sync, 1ms)", "rdma-sync", 1_000.0)):
        r = burst_recovery_time(monitor_scheme=scheme,
                                check_every_us=period)
        detect = r["detection_us"]
        table.add(name, "missed" if detect is None else round(detect),
                  round(r["recovery_us"]), len(r["migrations"]))
    return [table]


def check_reconfig(table):
    coarse, fine = table.rows[0][1], table.rows[-1][1]
    assert fine != "missed"
    assert coarse == "missed" or coarse > 8 * fine


# -- §6 planned work: integrated reconfiguration x caching

EVENT_US = 250_000.0


def _reallocation(aware: bool, event: bool = True):
    """A CCWR data-center loses one proxy to reconfiguration mid-run.

    Naive reallocation wipes the node's cache while the directory still
    names it as holder; cache-aware reallocation first migrates its
    documents and directory shard to the survivors.  Sized so the two
    survivors can absorb the victim's content: the aware strategy then
    loses nothing, while blind reallocation refetches every document
    the victim held.  Returns (tps, stale probes, backend misses) over
    the 80 ms right after the event, before the cache self-heals.
    """
    dc = DataCenter(n_proxies=3, scheme="CCWR", n_docs=300,
                    doc_bytes=16 * 1024, cache_bytes=3 * 1024 * 1024,
                    n_sessions=24, seed=8)
    scheme = dc.scheme
    victim = dc.proxy_nodes[-1]
    survivors = [n for n in dc.proxy_nodes if n is not victim]

    def reallocate(env):
        yield env.timeout(EVENT_US)
        # stop routing new requests to the victim, then hand it over
        dc.clients.proxies[:] = dc.servers[:-1]
        yield from scheme.retire_node(victim, survivors[0], migrate=aware)

    if event:
        dc.env.process(reallocate(dc.env))
    dc.clients.start()
    dc.env.run(until=EVENT_US + 1_000.0)
    scheme.stale_probes = 0
    miss_before = scheme.misses
    dc.metrics.start_window()
    dc.env.run(until=EVENT_US + 1_000.0 + 80_000.0)
    return (dc.metrics.tps(), scheme.stale_probes,
            scheme.misses - miss_before)


def build_integrated():
    table = BenchTable(
        "Reconfiguration x caching: transient after reallocation",
        ["strategy", "tps", "stale_probes", "backend_misses"],
        paper_ref="paper SS6: integrated evaluation / cache corruption")
    for name, aware, event in (
            ("control (no reallocation)", False, False),
            ("naive (blind reallocation)", False, True),
            ("cache-aware (drain + retarget)", True, True)):
        tps, stale, misses = _reallocation(aware, event)
        table.add(name, round(tps), stale, misses)
    return [table]


def check_integrated(table):
    control, naive, aware = table.rows
    # over the cold-tail base rate, blind reallocation burns a burst of
    # extra backend misses that drain-and-retarget mostly avoids, and
    # throughput dips
    naive_extra = naive[3] - control[3]
    aware_extra = aware[3] - control[3]
    assert naive_extra > 3 * max(aware_extra, 1), (naive_extra, aware_extra)
    assert aware[1] > naive[1]


# -- beyond the paper: lock arena, rack/spine fabric, OCC vs 2PL

CRASH_LEVEL = 256


def _rate(value: float, complete: bool):
    value = round(float(value), 1)
    return value if complete else f"incomplete ({value:,.1f})"


def build_lock_arena():
    """Five lock designs drain one Zipf(1.2) schedule per level.

    A cell is *complete* when every offered acquire was granted or
    failed before the horizon.  An incomplete cell's rates are marked
    as such and it wins no level: a rate over the acquires that happened
    to finish says nothing about the ones that did not.
    """
    table = BenchTable(
        "lock arena: grants per simulated second, Zipf(1.2), 16 locks on "
        "8 nodes",
        ["clients", "chaos", "design", "grants/offered", "failures",
         "ops_per_s", "p99_wait_us", "ops_per_s_t95", "t95_grant_us",
         "winner"],
        paper_ref="beyond Fig. 5: SRSL/DQNL/N-CoSED vs RDMA-MCS and ALock")
    cells = [(n, "none") for n in (64, 256, 1024)] + [(CRASH_LEVEL, "crash")]
    for n_clients, chaos in cells:
        offered = n_clients * ROUNDS
        row_stats = []
        for scheme in DESIGNS:
            stats = lock_tournament(scheme, n_clients=n_clients, alpha=1.2,
                                    chaos=chaos, seed=0)
            complete = stats["grants"] + stats["failures"] == offered
            row_stats.append((scheme, stats, complete))
        finished = [(s, st) for s, st, ok in row_stats if ok]
        winner = (max(finished, key=lambda c: c[1]["ops_per_s"])[0]
                  if chaos == "none" and finished else None)
        for scheme, stats, complete in row_stats:
            table.add(n_clients, chaos, DESIGNS[scheme].label,
                      f"{stats['grants']}/{offered}", stats["failures"],
                      _rate(stats["ops_per_s"], complete),
                      round(float(stats["p99_wait_us"]), 1),
                      _rate(stats["ops_per_s_t95"], complete),
                      round(float(stats["t95_grant_us"]), 1),
                      "yes" if scheme == winner else "")
    return [table]


def check_lock_arena(table):
    cells = {(row[0], row[1], row[2]): row for row in table.rows}

    def grants(design):
        return int(cells[(CRASH_LEVEL, "crash", design)][3].split("/")[0])

    # the lease-fenced designs recover the crashed holders' locks; SRSL's
    # clients wait on a dead server for good
    fenced = [d.label for d in DESIGNS.values()
              if issubclass(d.manager, EpochFencedManager)]
    assert len(fenced) == 3
    for design in fenced:
        assert grants(design) > grants(DESIGNS["srsl"].label), design
    # the N-CoSED herd on the hot word: the slowest design at 1024
    # clients, its 95th-percentile grant the last to land
    slowest = max((d.label for d in DESIGNS.values()),
                  key=lambda d: cells[(1024, "none", d)][8])
    assert slowest == DESIGNS["ncosed"].label


def build_topology():
    verbs = measure_verb_latency()
    locks = measure_lock_throughput()
    table = BenchTable(
        "rack/spine fabric: 2 racks x 4 hosts, 4:1 oversubscribed",
        ["measure", "baseline", "variant", "ratio"],
        paper_ref="§2 data-center fabric; §4.2 locks sharded over it")
    table.add("read RTT us: intra- vs cross-rack", verbs["intra_rack_us"],
              verbs["cross_rack_us"],
              round(verbs["cross_rack_us"] / verbs["intra_rack_us"], 3))
    table.add("N-CoSED lock ops/s: single home vs sharded",
              locks["single_home_ops_per_s"], locks["sharded_ops_per_s"],
              locks["speedup"])
    return [table]


def check_topology(table):
    rtt, locks = table.rows
    assert rtt[3] >= 1.5  # the oversubscribed spine stretches an RTT
    assert locks[2] > locks[1]  # a ring of homes beats one NIC


def build_txn_contention():
    table = BenchTable(
        "OCC vs 2PL commit throughput across contention",
        ["variant", "n_keys", "seed", "commits", "attempt_aborts",
         "abort_rate", "commit_per_s", "conserved"],
        paper_ref="§4.1 + §4.2 composed: DDSS versioned units + "
                  "N-CoSED locks as transaction substrates")
    for variant in ("2pl", "occ"):
        for n_keys in (2, 8, 32):
            stats = txn_bench(variant=variant, n_keys=n_keys)
            table.add(variant, n_keys, 0, stats["commits"],
                      stats["attempt_aborts"],
                      round(stats["abort_rate"], 4),
                      round(stats["commit_per_s"], 1), stats["conserved"])
    return [table]


def check_txn_contention(table):
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    # fewer keys, hotter keys, more failed validations; 2PL waits for
    # its locks instead of aborting
    occ = {r["n_keys"]: r["abort_rate"] for r in rows if r["variant"] == "occ"}
    assert occ[2] > occ[8] > occ[32]
    assert all(r["attempt_aborts"] == 0 for r in rows if r["variant"] == "2pl")
    assert all(r["conserved"] for r in rows)


# -- ablations over the knobs the paper leaves implicit

def _hybcc_tps(threshold: int) -> int:
    """TPS of one HYBCC datacenter run at a small/large threshold."""
    from repro.cache import HybridCache
    from repro.cache import schemes as schemes_mod

    class Tuned(HybridCache):
        def __init__(self, proxies, fileset, capacity, extra_nodes=()):
            super().__init__(proxies, fileset, capacity,
                             extra_nodes=extra_nodes, threshold=threshold)

    original = schemes_mod.SCHEMES["HYBCC"]
    schemes_mod.SCHEMES["HYBCC"] = Tuned
    try:
        dc = DataCenter(n_proxies=2, scheme="HYBCC",
                        n_docs=1_200, doc_bytes=16_384,
                        cache_bytes=8 * 1024 * 1024, n_sessions=48, seed=1)
        return round(dc.run_tps(warmup_us=80_000, measure_us=120_000))
    finally:
        schemes_mod.SCHEMES["HYBCC"] = original


def build_ablation_hybcc():
    table = BenchTable(
        "HYBCC threshold ablation (16KB docs, 2 proxies)",
        ["threshold", "tps"],
        paper_ref="design choice: duplication/capacity crossover")
    for threshold in (4_096, 8_192, 16_384, 32_768):
        table.add(threshold, _hybcc_tps(threshold))
    return [table]


def build_ablation_period():
    table = BenchTable(
        "RDMA-async poll-period ablation",
        ["period_us", "mean_abs_dev"],
        paper_ref="design choice: millisecond-granularity polling")
    for period_us in (500, 1_000, 5_000, 20_000):
        r = accuracy_trace("rdma-async", duration_us=200_000.0, seed=0,
                           period_us=float(period_us))
        table.add(period_us, round(r.mean_abs_deviation, 2))
    return [table]


def _backoff_contention(backoff_cap_us: float):
    """DDSS unit-lock contention at one spin-backoff cap: four nodes
    take one lock five times each; returns (makespan_us, atomics)."""
    import repro.ddss.client as client_mod

    original = client_mod._BACKOFF
    client_mod._BACKOFF = (2.0, 2.0, backoff_cap_us)
    try:
        cluster = Cluster(n_nodes=5, seed=0)
        ddss = DDSS(cluster)
        key_holder = {}

        def setup(env):
            c = ddss.client(cluster.nodes[0])
            key_holder["key"] = yield c.allocate(
                16, coherence=Coherence.NULL, placement=0)

        cluster.env.run_until_event(cluster.env.process(setup(cluster.env)))

        def contender(env, node):
            c = ddss.client(node)
            for _ in range(5):
                yield c.acquire(key_holder["key"])
                yield env.timeout(30.0)
                yield c.release(key_holder["key"])

        procs = [cluster.env.process(contender(cluster.env, n))
                 for n in cluster.nodes[1:]]
        cluster.env.run_until_event(cluster.env.all_of(procs), limit=1e9)
        return (round(cluster.env.now),
                sum(n.nic.atomics for n in cluster.nodes))
    finally:
        client_mod._BACKOFF = original


def build_ablation_backoff():
    table = BenchTable(
        "DDSS spin-lock backoff ablation (4 contenders)",
        ["backoff_cap_us", "makespan_us", "atomics"],
        paper_ref="design choice: exponential backoff on CAS failure")
    for cap_us in (5, 50, 400):
        table.add(cap_us, *_backoff_contention(float(cap_us)))
    return [table]


def check_ablation_hybcc(table):
    # at 16 KB docs the aggregate path wins: thresholds below the doc
    # size beat thresholds at/above it
    tps = {row[0]: row[1] for row in table.rows}
    assert tps[8_192] > tps[32_768]


def check_ablation_period(table):
    dev = {row[0]: row[1] for row in table.rows}
    assert dev[500] < dev[20_000]  # finer polling is more accurate


def check_ablation_backoff(table):
    rows = {row[0]: row for row in table.rows}
    # aggressive spinning issues more atomics than patient backoff
    assert rows[5][2] > rows[400][2]


FIGURES: Dict[str, Figure] = {fig.name: fig for fig in (
    Figure("fig3a", "Fig 3a: every coherence model puts 1 byte in ~55 us "
           "or less; NULL/READ cheapest, WRITE/STRICT dearest",
           ("fig3a.json",), build_fig3a, check_fig3a),
    Figure("fig3b", "Fig 3b: STORM over DDSS answers queries ~19 % faster "
           "than the socket-coordinated implementation",
           ("fig3b.json",), build_fig3b, check_fig3b),
    Figure("fig5", "Fig 5: N-CoSED grants all shared waiters at once "
           "while DQNL serializes them (up to ~317 % worse at 16); on "
           "exclusive cascades N-CoSED ~ DQNL, both ~39 %+ ahead of SRSL",
           ("fig5_shared.json", "fig5_exclusive.json"),
           build_fig5, check_fig5),
    Figure("fig6", "Fig 6: CCWR/MTACC/HYBCC up to ~35 % over BCC, ~1.8x+ "
           "over AC, growing with file size and proxies; HYBCC tracks best",
           ("fig6_2proxies.json", "fig6_8proxies.json"),
           build_fig6, check_fig6),
    Figure("fig8a", "Fig 8a: RDMA monitoring shows little or no deviation "
           "from the real thread count; socket daemons starve and go stale",
           ("fig8a.json",), build_fig8a, check_fig8a),
    Figure("fig8b", "Fig 8b: load balancing on RDMA monitoring gains close "
           "to 35 % throughput over Socket-Async",
           ("fig8b.json",), build_fig8b, check_fig8b),
    Figure("sdp", "ref [3]: BSDP holds small messages, zero copy wins "
           "large ones, and AZ-SDP overlaps transfers to near line rate",
           ("sdp_bandwidth.json",), build_sdp, check_sdp),
    Figure("flowctl", "§6: packetized flow control gains close to an order "
           "of magnitude over credits for small messages",
           ("flow_control.json",), build_flowctl, check_flowctl),
    Figure("reconfig", "§6: fine-grained reconfiguration on RDMA monitoring "
           "detects a load shift an order of magnitude sooner",
           ("reconfig.json",), build_reconfig, check_reconfig),
    Figure("integrated", "§6 planned work: blind reallocation corrupts the "
           "cooperative cache; drain-and-retarget avoids the miss burst",
           ("integrated.json",), build_integrated, check_integrated),
    Figure("lock-arena", "beyond the paper: lease-fenced locks outlast two "
           "crashes; N-CoSED herds on the hot word at 1024 clients",
           ("beyond_lock_arena.json",), build_lock_arena, check_lock_arena),
    Figure("topology", "beyond the paper: a 4:1 spine stretches cross-rack "
           "RTT >= 1.5x; locks sharded over a ring beat one home",
           ("beyond_topology.json",), build_topology, check_topology),
    Figure("txn-contention", "beyond the paper: OCC aborts fall as keys "
           "cool; 2PL never aborts; every cell conserves the total",
           ("beyond_txn_contention.json",), build_txn_contention,
           check_txn_contention),
    Figure("ablation-hybcc", "ablation: HYBCC's threshold belongs below "
           "the 16 KB doc size, where duplication stops paying",
           ("ablation_hybcc.json",), build_ablation_hybcc,
           check_ablation_hybcc),
    Figure("ablation-period", "ablation: a finer RDMA-async poll period "
           "reports load more accurately",
           ("ablation_period.json",), build_ablation_period,
           check_ablation_period),
    Figure("ablation-backoff", "ablation: DDSS spin-lock backoff trades "
           "wasted remote atomics against contention makespan",
           ("ablation_backoff.json",), build_ablation_backoff,
           check_ablation_backoff),
)}
