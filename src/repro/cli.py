"""Command-line figure runner: regenerate paper experiments quickly.

Usage::

    python -m repro list
    python -m repro run fig5a
    python -m repro run fig3a fig8a
    python -m repro run all

The CLI runs *quick* variants (reduced sweeps) of the experiments so a
user can see every figure's shape in seconds to a couple of minutes;
the full-fidelity runs live in ``benchmarks/`` under pytest-benchmark.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from repro.bench import BenchTable, improvement_pct
from repro.bench.plot import ascii_bars

__all__ = ["main"]


# ---------------------------------------------------------------------------
# quick experiment runners
# ---------------------------------------------------------------------------

def _fig3a() -> List[BenchTable]:
    from repro.net import Cluster
    from repro.ddss import DDSS, Coherence

    models = [Coherence.NULL, Coherence.READ, Coherence.WRITE,
              Coherence.STRICT, Coherence.VERSION, Coherence.DELTA]
    table = BenchTable("Fig 3a: DDSS put() latency (us)",
                       ["size"] + [m.value for m in models])
    for size in (1, 1024, 4096):
        row = [size]
        for model in models:
            cluster = Cluster(n_nodes=4, seed=1)
            ddss = DDSS(cluster, segment_bytes=64 * 1024)
            client = ddss.client(cluster.nodes[1])

            def app(env, model=model, size=size):
                key = yield client.allocate(size + 8, coherence=model,
                                            placement=3)
                t0 = env.now
                for _ in range(10):
                    yield client.put(key, b"x" * size)
                return (env.now - t0) / 10

            p = cluster.env.process(app(cluster.env))
            cluster.env.run_until_event(p)
            row.append(round(p.value, 2))
        table.add(*row)
    return [table]


def _fig3b() -> List[BenchTable]:
    from repro.net import Cluster
    from repro.apps.storm import StormEngine

    table = BenchTable("Fig 3b: STORM query time (us)",
                       ["records", "traditional", "ddss", "improv_%"])
    for n in (1_000, 10_000, 100_000):
        vals = {}
        for use_ddss in (False, True):
            cluster = Cluster(n_nodes=5, seed=3)
            engine = StormEngine(cluster, n_records=n,
                                 use_ddss=use_ddss, seed=3)

            def work(env):
                t0 = env.now
                for q in range(5):
                    yield engine.run_query(0, 2000 + 500 * q)
                return (env.now - t0) / 5

            p = cluster.env.process(work(cluster.env))
            cluster.env.run_until_event(p, limit=1e10)
            vals[use_ddss] = p.value
        table.add(n, round(vals[False], 1), round(vals[True], 1),
                  round(improvement_pct(vals[False], vals[True]), 1))
    return [table]


def _fig5(mode_name: str) -> List[BenchTable]:
    from repro.dlm import (DQNLManager, LockMode, NCoSEDManager,
                           SRSLManager, cascade_latency)

    mode = (LockMode.SHARED if mode_name == "shared"
            else LockMode.EXCLUSIVE)
    table = BenchTable(f"Fig 5: {mode.value} cascade latency (us)",
                       ["waiters", "SRSL", "DQNL", "N-CoSED"])
    for n in (2, 8, 16):
        row = [n]
        for cls in (SRSLManager, DQNLManager, NCoSEDManager):
            row.append(round(cascade_latency(cls, n, mode)["cascade_us"],
                             1))
        table.add(*row)
    return [table]


def _fig6() -> List[BenchTable]:
    from repro.datacenter import DataCenter

    table = BenchTable("Fig 6 (quick): TPS, 2 proxies",
                       ["size", "AC", "BCC", "CCWR", "MTACC", "HYBCC"])
    for size in (8_192, 65_536):
        row = [f"{size // 1024}k"]
        for scheme in ("AC", "BCC", "CCWR", "MTACC", "HYBCC"):
            dc = DataCenter(n_proxies=2, n_app=2, scheme=scheme,
                            n_docs=600, doc_bytes=size,
                            cache_bytes=4 * 1024 * 1024,
                            n_sessions=24, seed=1)
            row.append(round(dc.run_tps(warmup_us=50_000,
                                        measure_us=100_000)))
        table.add(*row)
    return [table]


def _fig8a() -> List[BenchTable]:
    from repro.monitor.experiments import accuracy_trace

    table = BenchTable("Fig 8a: thread-count deviation",
                       ["scheme", "mean_abs_dev", "max_dev"])
    bars = {}
    for scheme in ("socket-async", "socket-sync", "rdma-async",
                   "rdma-sync"):
        r = accuracy_trace(scheme, duration_us=150_000.0, seed=0)
        table.add(scheme, round(r.mean_abs_deviation, 2),
                  r.max_deviation)
        bars[scheme] = max(r.mean_abs_deviation, 0.01)
    print(ascii_bars(bars, title="mean |reported-actual| (threads)"))
    return [table]


def _fig8b() -> List[BenchTable]:
    from repro.monitor.experiments import lb_throughput

    table = BenchTable("Fig 8b (quick): improvement vs socket-async (%)",
                       ["alpha", "socket-sync", "rdma-async",
                        "rdma-sync", "e-rdma-sync"])
    for alpha in (0.9, 0.5):
        base = lb_throughput("socket-async", alpha,
                             measure_us=150_000.0, seed=0)
        row = [alpha]
        for scheme in ("socket-sync", "rdma-async", "rdma-sync",
                       "e-rdma-sync"):
            tps = lb_throughput(scheme, alpha, measure_us=150_000.0,
                                seed=0)
            row.append(round(improvement_pct(tps, base), 1))
        table.add(*row)
    return [table]


def _sdp() -> List[BenchTable]:
    from repro.net import Cluster, NetworkParams
    from repro.transport import (AzSdpEndpoint, BufferedSdpEndpoint,
                                 ZeroCopySdpEndpoint)

    table = BenchTable("SDP bandwidth (MB/s)",
                       ["msg", "BSDP", "ZSDP", "AZ-SDP"])
    for size in (1_024, 65_536, 262_144):
        row = [size]
        for cls in (BufferedSdpEndpoint, ZeroCopySdpEndpoint,
                    AzSdpEndpoint):
            cluster = Cluster(n_nodes=2,
                              params=NetworkParams.infiniband(), seed=0)
            server, client = cls(cluster.nodes[0]), cls(cluster.nodes[1])
            listener = server.listen(1)
            marks = {}

            def rx(env):
                conn = yield listener.accept()
                for _ in range(20):
                    yield conn.recv()
                marks["end"] = env.now

            def tx(env, cls=cls, size=size):
                conn = yield client.connect(0, port=1)
                marks["start"] = env.now
                for i in range(20):
                    if cls is AzSdpEndpoint:
                        yield conn.send(i, size=size, buf=f"b{i % 8}")
                    else:
                        yield conn.send(i, size=size)

            cluster.env.process(rx(cluster.env))
            cluster.env.process(tx(cluster.env))
            cluster.env.run()
            row.append(round(20 * size / (marks["end"] - marks["start"]),
                             1))
        table.add(*row)
    return [table]


def _flowctl() -> List[BenchTable]:
    from repro.net import Cluster
    from repro.transport import (CreditFlowSender, FlowReceiver,
                                 PacketizedFlowSender)

    table = BenchTable("Flow control (MB/s)",
                       ["msg", "credit", "packetized", "speedup"])
    for size in (1, 64, 8_192):
        vals = {}
        for cls in (CreditFlowSender, PacketizedFlowSender):
            cluster = Cluster(n_nodes=2, seed=0)
            rx = FlowReceiver(cluster.nodes[1], nbufs=8, buf_bytes=8_192)
            p = cluster.env.process(cls(cluster.nodes[0], rx)
                                    .stream(200, size))
            cluster.env.run_until_event(p, limit=1e10)
            vals[cls.__name__] = p.value
        credit = vals["CreditFlowSender"]
        packed = vals["PacketizedFlowSender"]
        table.add(size, round(credit, 2), round(packed, 2),
                  round(packed / credit, 1))
    return [table]


def _reconfig() -> List[BenchTable]:
    from repro.reconfig import burst_recovery_time

    table = BenchTable("Reconfiguration responsiveness",
                       ["config", "detection_us"])
    for name, scheme, period in (
            ("coarse 25ms", "socket-async", 25_000.0),
            ("fine 1ms", "rdma-sync", 1_000.0)):
        r = burst_recovery_time(monitor_scheme=scheme,
                                check_every_us=period,
                                burst_requests=600, seed=0)
        detect = r["detection_us"]
        table.add(name, "missed" if detect is None else round(detect))
    return [table]


EXPERIMENTS: Dict[str, Callable[[], List[BenchTable]]] = {
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig5a": lambda: _fig5("shared"),
    "fig5b": lambda: _fig5("exclusive"),
    "fig6": _fig6,
    "fig8a": _fig8a,
    "fig8b": _fig8b,
    "sdp": _sdp,
    "flowctl": _flowctl,
    "reconfig": _reconfig,
}


# ---------------------------------------------------------------------------
# observability subcommand
# ---------------------------------------------------------------------------

def _obs_main(args) -> int:
    from repro.obs.scenarios import SCENARIOS, run_scenario

    if args.action == "list":
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if not args.scenario:
        print("obs run requires a scenario name; try: repro obs list",
              file=sys.stderr)
        return 2
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario: {args.scenario}", file=sys.stderr)
        print(f"available: {', '.join(sorted(SCENARIOS))}",
              file=sys.stderr)
        return 2
    obs = run_scenario(args.scenario, seed=args.seed,
                       sanitize=not args.no_sanitize, strict=False)
    if args.json:
        obs.export_json(args.json)
        print(f"wrote {args.json}")
    if args.trace:
        obs.export_trace_json(args.trace)
        print(f"wrote {args.trace}")
    summary = obs.to_dict()
    print(f"[{args.scenario}] sim time: {summary['sim_now_us']:.1f} us, "
          f"events: {summary['events']['emitted']}")
    for etype, n in sorted(summary["events"]["by_type"].items()):
        print(f"  {etype:24s} {n}")
    bad = obs.violations()
    if obs.sanitizers:
        print(f"sanitizers: {len(obs.sanitizers)} attached, "
              f"{len(bad)} violation(s)")
        for v in bad[:10]:
            print(f"  [{v['sanitizer']}] t={v['t']:.1f} {v['msg']}")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# check subcommand (trace-replay correctness oracles)
# ---------------------------------------------------------------------------

def _check_print_verdict(r: dict) -> None:
    where = r.get("check") or r.get("trace")
    kern = f" [{r['kernel']}]" if "kernel" in r else ""
    print(f"[{where}]{kern} events={r['events']} "
          f"verdict={r['verdict']}")
    for oname in sorted(r["oracles"]):
        o = r["oracles"][oname]
        print(f"  {oname:6s} checked={o['checked']:6d} "
              f"violations={len(o['violations'])}")
        for v in o["violations"][:5]:
            t = "end" if v["t"] is None else f"{v['t']:.1f}"
            print(f"    t={t} #{v['index']} {v['msg']}")
    for s in r.get("sanitizers", ())[:5]:
        print(f"  [sanitizer {s['sanitizer']}] t={s['t']:.1f} {s['msg']}")
    if "repro" in r:
        rep = r["repro"]
        print(f"  reproducer: {rep['kept_events']}/"
              f"{rep['original_events']} events "
              f"({rep['probes']} probes)")


def _check_main(args) -> int:
    import json as _json

    from repro.verify import (CHECKS, check_trace, metamorphic_sweep,
                              run_check)
    from repro.verify.suites import KERNELS

    if args.action == "list":
        for name in sorted(CHECKS):
            print(name)
        return 0

    if args.action == "trace":
        if not args.names:
            print("check trace requires a trace file path",
                  file=sys.stderr)
            return 2
        results = [check_trace(p, shrink=not args.no_shrink)
                   for p in args.names]
    elif args.action == "meta":
        rep = metamorphic_sweep(
            checks=args.names or None,
            seeds=[int(s) for s in args.seeds.split(",")],
            node_counts=[int(n) for n in args.nodes.split(",")],
            workers=args.workers)
        print(f"[meta] runs={rep['runs']} pairs={rep['pairs']} "
              f"kernel_mismatches={len(rep['kernel_mismatches'])} "
              f"violations={len(rep['violations'])} "
              f"verdict={rep['verdict']}")
        for m in rep["kernel_mismatches"][:5]:
            shas = " ".join(f"{k}={v}" for k, v in sorted(m["shas"].items()))
            print(f"  MISMATCH {m['check']} seed={m['seed']}: {shas}")
        for v in rep["violations"][:5]:
            print(f"  VIOLATION {v['check']} [{v['kernel']}] "
                  f"seed={v['seed']}: {v['violations']} finding(s)")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(rep, fh, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0 if rep["verdict"] == "ok" else 1
    else:  # run
        names = args.names or ["all"]
        if "all" in names:
            names = sorted(CHECKS)
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            print(f"unknown check(s): {', '.join(unknown)}",
                  file=sys.stderr)
            print(f"available: {', '.join(sorted(CHECKS))}",
                  file=sys.stderr)
            return 2
        kernels = KERNELS if args.both_kernels else [args.kernel]
        results = [run_check(n, seed=args.seed, kernel=k,
                             shrink=not args.no_shrink)
                   for n in names for k in kernels]

    for r in results:
        _check_print_verdict(r)
    bad = [r for r in results if r["verdict"] != "ok"]
    if args.json:
        doc = {"results": results,
               "verdict": "ok" if not bad else "violation"}
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    print(f"{len(results) - len(bad)}/{len(results)} checks ok")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# chaos subcommand (fault-schedule campaigns + shrinking)
# ---------------------------------------------------------------------------

def _chaos_print_record(rec: dict) -> None:
    print(f"[{rec['scenario']} seed={rec['seed']}"
          f"{' index=' + str(rec['index']) if 'index' in rec else ''}"
          f" {rec['kernel']}] events={rec['events']} "
          f"sha={rec['trace_sha']} verdict={rec['verdict']}")
    for label in rec["faults"]:
        print(f"  fault: {label}")
    for msg in rec["violation_msgs"]:
        print(f"  VIOLATION: {msg}")


def _chaos_load_schedule(path: str):
    import json as _json

    with open(path, encoding="utf-8") as fh:
        doc = _json.load(fh)
    # accept a bare schedule list, a run record, or a shrink report
    if isinstance(doc, dict):
        doc = doc.get("schedule", doc)
    if not isinstance(doc, list):
        raise ValueError(f"{path} holds no fault schedule")
    return doc


def _chaos_main(args) -> int:
    import json as _json

    from repro.chaos import (SCENARIOS, find_failing, get_scenario,
                             run_campaign, run_schedule, shrink_schedule)
    from repro.errors import ConfigError

    if args.action == "list":
        for name in sorted(SCENARIOS):
            sc = SCENARIOS[name]
            clean = "clean" if sc.expect_clean else "SEEDED BUG"
            print(f"  {name:14s} n_nodes={sc.n_nodes} "
                  f"horizon={sc.horizon_us:.0f}us [{clean}]")
            print(f"  {'':14s} {sc.description}")
        return 0

    if args.action == "report":
        if not args.names:
            print("chaos report requires a verdict JSON path",
                  file=sys.stderr)
            return 2
        with open(args.names[0], encoding="utf-8") as fh:
            v = _json.load(fh)
        print(f"[chaos seed={v['seed']}] runs={v['runs']} "
              f"errors={v['run_errors']} "
              f"mismatches={len(v['kernel_mismatches'])} "
              f"findings={len(v['findings'])} "
              f"violations={len(v['violations'])} verdict={v['verdict']}")
        for e in v["violations"][:10]:
            print(f"  VIOLATION {e['scenario']}#{e['index']} "
                  f"[{e['kernel']}]: {e['msgs'][:1]}")
        for e in v["findings"][:10]:
            print(f"  finding {e['scenario']}#{e['index']} "
                  f"[{e['kernel']}]: {len(e['msgs'])} msg(s)")
        return 0 if v["verdict"] == "ok" else 1

    kernels = ["fast", "slow"] if args.both_kernels else [args.kernel]

    if args.action == "run":
        names = args.names or ["locks", "ddss"]
        try:
            verdict = run_campaign(
                scenarios=names, seed=args.seed,
                n_schedules=args.schedules, kernels=kernels,
                workers=args.workers, store_path=args.store,
                progress=False)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"[chaos seed={args.seed}] runs={verdict['runs']} "
              f"errors={verdict['run_errors']} "
              f"mismatches={len(verdict['kernel_mismatches'])} "
              f"findings={len(verdict['findings'])} "
              f"violations={len(verdict['violations'])} "
              f"verdict={verdict['verdict']}")
        for e in verdict["violations"][:10]:
            print(f"  VIOLATION {e['scenario']}#{e['index']} "
                  f"[{e['kernel']}]:")
            for msg in e["msgs"][:3]:
                print(f"    {msg}")
            for label in e["faults"]:
                print(f"    fault: {label}")
        for m in verdict["kernel_mismatches"][:5]:
            print(f"  KERNEL MISMATCH {m['scenario']}#{m['index']}: "
                  f"{m['shas']}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(verdict, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0 if verdict["verdict"] == "ok" else 1

    # replay / shrink operate on one scenario + one schedule
    if not args.names:
        print(f"chaos {args.action} requires a scenario name; "
              f"try: repro chaos list", file=sys.stderr)
        return 2
    name = args.names[0]
    try:
        scenario = get_scenario(name)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.schedule:
        schedule = _chaos_load_schedule(args.schedule)
        index = None
    elif args.action == "shrink" and args.index is None:
        hit = find_failing(name, seed=args.seed,
                           n_schedules=args.schedules,
                           kernel=kernels[0])
        if hit is None:
            print(f"no failing schedule for {name!r} in the first "
                  f"{args.schedules} samples of seed {args.seed}")
            return 1
        schedule, index = hit["schedule"], hit["index"]
        print(f"shrinking {name}#{index} (seed {args.seed})")
    else:
        index = args.index if args.index is not None else 0
        schedule = scenario.space().sample(args.seed, index)

    if args.action == "replay":
        rec = run_schedule(name, schedule, args.seed, kernel=kernels[0])
        if index is not None:
            rec["index"] = index
        _chaos_print_record(rec)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(rec, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0 if rec["verdict"] == "ok" else 1

    # shrink
    report = shrink_schedule(name, schedule, args.seed,
                             kernel=kernels[0],
                             max_probes=args.max_probes)
    if not report["failed"]:
        print(f"schedule does not fail {name!r}; nothing to shrink")
        return 1
    print(f"shrunk {report['original_faults']} -> "
          f"{report['kept_faults']} fault(s) "
          f"in {report['probes']} probes:")
    for label in report["labels"]:
        print(f"  {label}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


# ---------------------------------------------------------------------------
# lab subcommand (parallel sweeps + resumable store)
# ---------------------------------------------------------------------------

def _lab_store_and_sweep(args):
    """Resolve (sweep, store) from a packaged name or a store directory."""
    import os

    from repro.errors import ConfigError
    from repro.lab import ResultStore, SWEEPS, packaged_sweep, store_for

    name = args.sweep
    if name in SWEEPS:
        sweep = packaged_sweep(name)
        store = store_for(name, root=args.store_root)
        if store.has_sweep():
            on_disk = store.load_sweep()
            if on_disk.spec_hash() != sweep.spec_hash():
                print(f"warning: store at {store.path} was written by a "
                      f"different version of sweep {name!r}; stale "
                      f"records are kept but may no longer match",
                      file=sys.stderr)
        return sweep, store
    if os.path.isdir(name):
        store = ResultStore(name)
        return store.load_sweep(), store
    raise ConfigError(
        f"unknown sweep {name!r} (not packaged, not a store directory); "
        f"try: repro lab ls")


def _lab_main(args) -> int:
    import json
    import os

    from repro.errors import ConfigError
    from repro.lab import (DEFAULT_ROOT, ResultStore, Runner, RetryPolicy,
                           SWEEPS, merge_tables, store_for)

    if args.action == "ls":
        print("packaged sweeps:")
        for name in sorted(SWEEPS):
            sweep = SWEEPS[name]()
            n = len(sweep.expand())
            store = store_for(name, root=args.store_root)
            state = ""
            if store.has_sweep():
                done = len(store.completed_ids())
                state = f"   [{done}/{n} complete on disk]"
            print(f"  {name:18s} {n:4d} runs  "
                  f"({sweep.scenario}){state}")
        root = args.store_root or DEFAULT_ROOT
        if os.path.isdir(root):
            extra = sorted(d for d in os.listdir(root)
                           if d not in SWEEPS
                           and os.path.isdir(os.path.join(root, d)))
            for d in extra:
                print(f"  {d:18s} (store only: {os.path.join(root, d)})")
        return 0

    try:
        sweep, store = _lab_store_and_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "show":
        records = store.records()
        if not records:
            print(f"no completed runs in {store.path}", file=sys.stderr)
            return 1
        for table in merge_tables(sweep, store):
            table.show()
        print(f"\n{len(records)}/{len(sweep.expand())} runs complete "
              f"in {store.path}")
        return 0

    # run / resume
    if args.action == "resume" and not store.has_sweep():
        print(f"nothing to resume: no store at {store.path} "
              f"(use: repro lab run {args.sweep})", file=sys.stderr)
        return 2
    runner = Runner(
        sweep, store, workers=args.workers, timeout_s=args.timeout,
        retry=RetryPolicy(retries=args.retries),
        progress=not args.no_progress)
    report = runner.run()
    print(f"[lab {sweep.name}] {report['completed']} ran, "
          f"{report['skipped']} skipped, {report['failed']} failed "
          f"({report['wall_s']:.1f}s wall, workers={args.workers})")
    for failure in report["failures"]:
        print(f"  FAILED {failure['run_id']} "
              f"params={failure['params']} after "
              f"{failure['attempts']} attempt(s): {failure['error']}",
              file=sys.stderr)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.report}")
    if report["interrupted"]:
        print(f"interrupted — continue with: "
              f"repro lab resume {args.sweep}", file=sys.stderr)
        return 130
    if not report["failed"] and not args.no_tables:
        for table in merge_tables(sweep, store):
            table.show()
    return 1 if report["failed"] else 0


def _lab_bench_main(args) -> int:
    import json

    from repro.lab.labbench import run_lab_bench

    report = run_lab_bench(workers=args.workers, sweep_name=args.sweep)
    res = report["results"]
    print(f"lab bench ({report['runs']} runs, sweep {report['sweep']}, "
          f"{report['cpu_count']} cpus):")
    print(f"  serial   {res['serial_wall_s']:>8.2f} s")
    speedup = ("skipped" if res["speedup"] is None
               else f"{res['speedup']:.2f}x")
    print(f"  workers={report['workers']:<2d} "
          f"{res['parallel_wall_s']:>6.2f} s   "
          f"({speedup})")
    if res.get("speedup_skipped_reason"):
        print(f"  speedup skipped: {res['speedup_skipped_reason']}")
    print(f"  records identical: {res['records_identical']}   "
          f"tables identical: {res['tables_identical']}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if not res["records_identical"] or not res["tables_identical"]:
        print("FATAL: serial and parallel runs disagree",
              file=sys.stderr)
        return 1
    if res["serial_failed"] or res["parallel_failed"]:
        print("FATAL: lab bench had failing runs", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# txn subcommand (multi-key transactions: OCC vs 2PL)
# ---------------------------------------------------------------------------

def _txn_main(args) -> int:
    import json as _json

    from repro.txn.scenarios import build_txn_scenario
    from repro.verify import ALL_ORACLES, TraceView, replay
    from repro.verify.suites import _kernel

    if args.action == "run":
        with _kernel(args.kernel):
            obs, stats = build_txn_scenario(
                args.variant, args.seed, args.n_nodes,
                n_keys=args.n_keys)
        view = TraceView.from_obs(obs).require_complete()
        oracles = [f() for f in ALL_ORACLES]
        violations = replay(view, oracles)
        sanitizers = obs.violations()
        ok = (not violations and not sanitizers
              and stats["conserved"])
        print(f"[txn {args.variant}] seed={args.seed} "
              f"n_keys={args.n_keys} [{args.kernel}]")
        print(f"  commits={stats['commits']} aborts={stats['aborts']} "
              f"attempt_aborts={stats['attempt_aborts']} "
              f"wedges={stats['wedges']}")
        print(f"  abort_rate={stats['abort_rate']:.3f} "
              f"commit_per_s={stats['commit_per_s']:.1f} "
              f"conserved={stats['conserved']}")
        for o in oracles:
            print(f"  {o.NAME:6s} checked={o.checked:6d} "
                  f"violations={len(o.violations)}")
        for v in violations[:5]:
            print(f"    VIOLATION: {v['msg']}")
        print(f"verdict={'ok' if ok else 'violation'}")
        if args.json:
            doc = {"stats": stats,
                   "oracles": {o.NAME: o.to_dict() for o in oracles},
                   "sanitizers": list(sanitizers),
                   "verdict": "ok" if ok else "violation"}
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0 if ok else 1

    # bench: the packaged contention sweep, deterministic output
    from repro.lab import ResultStore, Runner, merge_tables
    from repro.lab.scenarios import packaged_sweep

    sweep = packaged_sweep("txn")
    store = ResultStore(None)
    runner = Runner(sweep, store, workers=args.workers)
    report = runner.run()
    if report["failed"]:
        for failure in report["failures"]:
            print(f"FAILED {failure['run_id']}: {failure['error']}",
                  file=sys.stderr)
        return 1
    tables = merge_tables(sweep, store)
    for table in tables:
        table.show()
    records = sorted(store.records(), key=lambda r: r["run_id"])
    doc = {
        "sweep": sweep.name,
        "records": [{"run_id": r["run_id"], "params": r["params"],
                     "seed": r["seed"], "repeat": r["repeat"],
                     "result": r["result"]} for r in records],
        "tables": [{"title": t.title, "columns": t.columns,
                    "rows": t.rows} for t in tables],
    }
    bad = [r for r in records if not r["result"]["conserved"]]
    doc["verdict"] = "ok" if not bad else "violation"
    with open(args.out, "w", encoding="utf-8") as fh:
        _json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if bad:
        print("FATAL: conservation failed in a sweep cell",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# topo subcommand (rack/spine fabric + sharded namespaces)
# ---------------------------------------------------------------------------

#: packaged topo scenarios for ``repro topo ls`` / ``run``
_TOPO_SCENARIOS = {
    "lab": ("repro.topo.scenarios:build_topo_scenario",
            "100+ nodes / 4 racks / 1M+ RUBiS sessions with a "
            "rebalance-during-load crash fault"),
    "shard-check": ("repro.topo.scenarios:shard_check",
                    "2-rack sharded DDSS + locks with a live ring "
                    "rebalance (also packaged as `repro check shard`)"),
}


def _topo_main(args) -> int:
    import json as _json

    from repro.verify import ALL_ORACLES, TraceView, replay
    from repro.verify.suites import _kernel

    if args.action == "ls":
        for name in sorted(_TOPO_SCENARIOS):
            dotted, desc = _TOPO_SCENARIOS[name]
            print(f"{name:12s} {dotted}")
            print(f"{'':12s}   {desc}")
        return 0

    if args.action == "run":
        from repro.topo.scenarios import build_topo_scenario, shard_check

        with _kernel(args.kernel):
            if args.scenario == "shard-check":
                obs = shard_check(args.seed, args.n_nodes)
                stats = {}
            else:
                obs, stats = build_topo_scenario(seed=args.seed)
        view = TraceView.from_obs(obs).require_complete()
        oracles = [f() for f in ALL_ORACLES]
        violations = replay(view, oracles)
        sanitizers = obs.violations()
        ok = not violations and not sanitizers
        print(f"[topo {args.scenario}] seed={args.seed} "
              f"[{args.kernel}] events={len(view)} "
              f"sim_now_us={view.meta.get('sim_now_us')}")
        for k in sorted(stats):
            print(f"  {k}={stats[k]}")
        for o in oracles:
            print(f"  {o.NAME:6s} checked={o.checked:6d} "
                  f"violations={len(o.violations)}")
        for v in violations[:5]:
            print(f"    VIOLATION: {v['msg']}")
        for s in list(sanitizers)[:5]:
            print(f"    SANITIZER: {s}")
        print(f"verdict={'ok' if ok else 'violation'}")
        if args.json:
            doc = {"scenario": args.scenario, "seed": args.seed,
                   "kernel": args.kernel, "stats": stats,
                   "oracles": {o.NAME: o.to_dict() for o in oracles},
                   "sanitizers": list(sanitizers),
                   "verdict": "ok" if ok else "violation"}
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0 if ok else 1

    # bench: deterministic simulated figures of merit + regression gate
    from repro.bench.engine import RESULTS_DIR
    from repro.bench.harness import check_regression
    from repro.bench.topo import (GUARDED_TOPO_RATES, run_topo_suite,
                                  write_topo_report)

    report = run_topo_suite(seed=args.seed)
    res = report["results"]
    vl, lt = res["verb_latency"], res["lock_throughput"]
    print(f"topo bench (seed {args.seed}):")
    print(f"  intra-rack read   {vl['intra_rack_us']:>10.4f} us RTT")
    print(f"  cross-rack read   {vl['cross_rack_us']:>10.4f} us RTT "
          f"({vl['cross_over_intra']:.2f}x intra)")
    print(f"  single-home locks {lt['single_home_ops_per_s']:>10,.1f} /s")
    print(f"  sharded locks     {lt['sharded_ops_per_s']:>10,.1f} /s "
          f"({lt['speedup']:.2f}x single-home)")
    for path in write_topo_report(report, args.out,
                                  None if args.no_archive
                                  else RESULTS_DIR):
        print(f"wrote {path}")
    if args.baseline is not None:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = _json.load(fh)
        except (OSError, ValueError):
            print(f"no usable baseline at {args.baseline}; "
                  f"regression gate skipped")
            return 0
        failures = check_regression(report, baseline, GUARDED_TOPO_RATES)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print("regression gate passed (>25% drop would fail)")
    return 0


# ---------------------------------------------------------------------------
# lock-arena subcommand
# ---------------------------------------------------------------------------

#: scheme -> one-line description for ``repro locks ls``
_LOCK_SCHEMES = {
    "srsl": "server-based send/recv locking (two-sided baseline)",
    "dqnl": "distributed queue via one-sided CAS (exclusive only)",
    "ncosed": "paper's combined shared/exclusive one-sided design",
    "mcs": "RDMA-MCS queue lock: per-client queue node, epoch-fenced",
    "alock": "asymmetric cohort lock: local pass-off + tournament word",
}


def _locks_main(args) -> int:
    import json as _json

    if args.action == "ls":
        for name, desc in _LOCK_SCHEMES.items():
            print(f"{name:8s} {desc}")
        print("chaos modes: none | crash "
              "(two crashes, lease-fenced schemes reclaim)")
        return 0

    if args.action == "run":
        from repro.dlm.tournament import lock_tournament
        from repro.errors import LockError
        from repro.verify.suites import _kernel

        try:
            with _kernel(args.kernel):
                stats = lock_tournament(args.scheme,
                                        n_clients=args.clients,
                                        alpha=args.alpha,
                                        chaos=args.chaos,
                                        seed=args.seed)
        except LockError as exc:
            print(f"[locks {args.scheme}] {exc}", file=sys.stderr)
            print("verdict=violation")
            return 1
        print(f"[locks {args.scheme}] clients={args.clients} "
              f"alpha={args.alpha} chaos={args.chaos} seed={args.seed} "
              f"[{args.kernel}]")
        for k in ("grants", "failures", "ops_per_s", "mean_wait_us",
                  "p99_wait_us", "max_wait_us", "jain", "max_chain",
                  "events", "sim_now_us"):
            v = stats[k]
            print(f"  {k}={v:.1f}" if isinstance(v, float)
                  else f"  {k}={v}")
        print("verdict=ok (oracle-replayed, 0 violations)")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(stats, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0

    # bench: the full tournament + crossover table + regression gate
    from repro.bench.engine import RESULTS_DIR
    from repro.bench.harness import check_regression
    from repro.bench.locks import (GUARDED_LOCKS_RATES, run_locks_suite,
                                   write_locks_report)

    levels = args.levels or None
    kw = {"levels": levels} if levels else {}
    report = run_locks_suite(seed=args.seed, alpha=args.alpha, **kw)
    res = report["results"]
    cross = res["crossover"]
    print(f"locks bench (seed {args.seed}, alpha {report['alpha']}):")
    for n in cross["levels"]:
        row = "  ".join(
            f"{s}={res['tournament'][f'{s}@{n}']['ops_per_s']:>10,.1f}/s"
            for s in _LOCK_SCHEMES)
        print(f"  {n:>5d} clients: {row}")
        print(f"        winner: {cross['winners'][str(n)]}")
    chaos_row = "  ".join(
        f"{s}={res['chaos'][s]['ops_per_s_t95']:>10,.1f}/s"
        for s in _LOCK_SCHEMES)
    print(f"  chaos column (rate to the 95th-percentile grant): {chaos_row}")
    for path in write_locks_report(report, args.out,
                                   None if args.no_archive
                                   else RESULTS_DIR):
        print(f"wrote {path}")
    if args.baseline is not None:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = _json.load(fh)
        except (OSError, ValueError):
            print(f"no usable baseline at {args.baseline}; "
                  f"regression gate skipped")
            return 0
        failures = check_regression(report, baseline, GUARDED_LOCKS_RATES)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print("regression gate passed (>25% drop would fail)")
    return 0


# ---------------------------------------------------------------------------
# engine benchmark subcommand
# ---------------------------------------------------------------------------

def _bench_main(args) -> int:
    import json

    from repro.bench.engine import (GUARDED_RATES, RESULTS_DIR, run_suite,
                                    write_report)
    from repro.bench.harness import check_regression

    report = run_suite(quick=args.quick, workers=args.workers)
    res = report["results"]
    print(f"engine bench ({'quick' if args.quick else 'full'}):")
    print(f"  events       {res['events']['events_per_sec']:>12,.0f} /s")
    ag = res["agenda"]
    for mix in ("uniform", "narrow_band", "burst"):
        print(f"  agenda {mix:<12s} {ag[f'{mix}_entries_per_sec']:>9,.0f} /s")
    sv = res["small_verbs"]
    print(f"  small verbs  {sv['verbs_per_sec']:>12,.0f} /s   "
          f"({sv['speedup_vs_slow']:.2f}x vs REPRO_SLOW_KERNEL, "
          f"sim clocks {'match' if sv['sim_now_match'] else 'DIVERGE'})")
    print(f"  lock ops     {res['lock_ops']['ops_per_sec']:>12,.0f} /s")
    print(f"  ddss scenario {res['scenario_ddss']['wall_s']:>10.3f} s wall")
    try:
        from repro.bench.topo import DEFAULT_TOPO_RESULT, GUARDED_TOPO_RATES
        with open(DEFAULT_TOPO_RESULT, encoding="utf-8") as fh:
            topo_res = json.load(fh).get("results", {})
        print(f"topo (from {DEFAULT_TOPO_RESULT}, simulated):")
        for bench, key in GUARDED_TOPO_RATES:
            val = topo_res.get(bench, {}).get(key)
            if isinstance(val, (int, float)):
                print(f"  {bench}.{key:<24s} {val:>12,.1f} /s")
    except (OSError, ValueError):
        pass  # no committed topo baseline: engine keys only
    if not sv["sim_now_match"]:
        print("FATAL: fast and slow kernels disagree on simulated time",
              file=sys.stderr)
        return 1
    for path in write_report(report, args.out,
                             None if args.no_archive else RESULTS_DIR):
        print(f"wrote {path}")
    if args.baseline is not None:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError):
            print(f"no usable baseline at {args.baseline}; "
                  f"regression gate skipped")
            return 0
        failures = check_regression(report, baseline, GUARDED_RATES,
                                    decimals=0)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print("regression gate passed (>25% drop would fail)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quick paper-figure regeneration "
                    "(full runs: pytest benchmarks/ --benchmark-only)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one or more experiments")
    runp.add_argument("ids", nargs="+",
                      help="experiment ids (or 'all')")
    obsp = sub.add_parser(
        "obs", help="run an instrumented demo workload "
                    "(tracing + metrics + sanitizers)")
    obsp.add_argument("action", choices=["list", "run"])
    obsp.add_argument("scenario", nargs="?",
                      help="scenario name (for 'run')")
    obsp.add_argument("--seed", type=int, default=0)
    obsp.add_argument("--json", metavar="PATH", default=None,
                      help="write the deterministic JSON export here")
    obsp.add_argument("--trace", metavar="PATH", default=None,
                      help="write the full-event trace export here "
                           "(replayable with 'repro check trace')")
    obsp.add_argument("--no-sanitize", action="store_true",
                      help="trace + metrics only, no invariant checks")
    benchp = sub.add_parser(
        "bench", help="wall-clock engine benchmarks "
                      "(events/s, verbs/s, lock ops/s) + perf gate")
    benchp.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI-sized)")
    benchp.add_argument("--out", metavar="PATH",
                        default="BENCH_engine.json",
                        help="result file (default: BENCH_engine.json)")
    benchp.add_argument("--baseline", metavar="PATH", default=None,
                        help="compare against this report; exit 1 when a "
                             "guarded rate regresses >25%% (missing file "
                             "skips the gate)")
    benchp.add_argument("--no-archive", action="store_true",
                        help="skip the benchmarks/results/ archive copy")
    benchp.add_argument("--workers", type=int, default=0,
                        help="dispatch the suite through the lab runner "
                             "with this many pool workers (0 = in-process;"
                             " wall-clock rates are only comparable "
                             "across runs at the same setting)")
    checkp = sub.add_parser(
        "check", help="replay traces against correctness oracles "
                      "(locks / DDSS coherence / caching)")
    checkp.add_argument("action",
                        choices=["list", "run", "trace", "meta"])
    checkp.add_argument("names", nargs="*",
                        help="check names (or 'all') for run/meta; "
                             "trace file path(s) for trace")
    checkp.add_argument("--seed", type=int, default=0)
    checkp.add_argument("--kernel", choices=["fast", "slow"],
                        default="fast")
    checkp.add_argument("--both-kernels", action="store_true",
                        help="run every check under both event "
                             "kernels (fast / slow)")
    checkp.add_argument("--no-shrink", action="store_true",
                        help="skip reproducer shrinking on violation")
    checkp.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable verdict here")
    checkp.add_argument("--seeds", default="0,1",
                        help="meta: comma-separated seed list")
    checkp.add_argument("--nodes", default="0",
                        help="meta: comma-separated node counts "
                             "(0 = per-check default)")
    checkp.add_argument("--workers", type=int, default=0,
                        help="meta: lab pool workers (0 = in-process)")
    chaosp = sub.add_parser(
        "chaos", help="randomized fault-schedule campaigns judged by "
                      "oracles, with reproducer shrinking")
    chaosp.add_argument("action",
                        choices=["list", "run", "replay", "shrink",
                                 "report"])
    chaosp.add_argument("names", nargs="*",
                        help="scenario names for run/replay/shrink "
                             "(run default: locks ddss); verdict JSON "
                             "path for report")
    chaosp.add_argument("--seed", type=int, default=0,
                        help="campaign seed (schedules are a pure "
                             "function of seed+index)")
    chaosp.add_argument("--schedules", type=int, default=10,
                        help="schedules per scenario per kernel "
                             "(run), or samples scanned for a failure "
                             "(shrink without --index)")
    chaosp.add_argument("--index", type=int, default=None,
                        help="replay/shrink this sampled schedule index")
    chaosp.add_argument("--schedule", metavar="PATH", default=None,
                        help="replay/shrink a schedule from this JSON "
                             "file (bare list, run record, or shrink "
                             "report)")
    chaosp.add_argument("--kernel", choices=["fast", "slow"],
                        default="fast")
    chaosp.add_argument("--both-kernels", action="store_true",
                        help="run: every schedule under both event "
                             "kernels, diffing canonical trace digests")
    chaosp.add_argument("--workers", type=int, default=0,
                        help="lab pool workers (0 = in-process)")
    chaosp.add_argument("--store", metavar="DIR", default=None,
                        help="run: resumable lab result store directory")
    chaosp.add_argument("--max-probes", type=int, default=64,
                        help="shrink: probe budget (default 64)")
    chaosp.add_argument("--json", metavar="PATH", default=None,
                        help="write the verdict/record/reproducer here")
    txnp = sub.add_parser(
        "txn", help="multi-key transactions over DDSS: run a workload "
                    "under the oracle, or sweep OCC vs 2PL")
    txnp.add_argument("action", choices=["run", "bench"])
    txnp.add_argument("--variant", choices=["occ", "2pl", "mixed"],
                      default="occ",
                      help="concurrency control for 'run' "
                           "(default: occ)")
    txnp.add_argument("--seed", type=int, default=0)
    txnp.add_argument("--n-nodes", type=int, default=4)
    txnp.add_argument("--n-keys", type=int, default=4,
                      help="account/stock pool size (fewer = hotter)")
    txnp.add_argument("--kernel", choices=["fast", "slow"],
                      default="fast")
    txnp.add_argument("--workers", type=int, default=0,
                      help="bench: lab pool workers (0 = in-process)")
    txnp.add_argument("--json", metavar="PATH", default=None,
                      help="run: write the verdict JSON here")
    txnp.add_argument("--out", metavar="PATH", default="BENCH_txn.json",
                      help="bench: result file (default: "
                           "BENCH_txn.json)")
    topop = sub.add_parser(
        "topo", help="rack/spine topology + sharded namespaces: run "
                     "the packaged scale-out scenario under the "
                     "oracles, or bench the fabric")
    topop.add_argument("action", choices=["ls", "run", "bench"])
    topop.add_argument("scenario", nargs="?", default="lab",
                       choices=sorted(_TOPO_SCENARIOS),
                       help="scenario for 'run' (default: lab)")
    topop.add_argument("--seed", type=int, default=0)
    topop.add_argument("--n-nodes", type=int, default=8,
                       help="shard-check: cluster size (default 8)")
    topop.add_argument("--kernel", choices=["fast", "slow"],
                       default="fast")
    topop.add_argument("--json", metavar="PATH", default=None,
                       help="run: write the verdict JSON here")
    topop.add_argument("--out", metavar="PATH", default="BENCH_topo.json",
                       help="bench: result file (default: "
                            "BENCH_topo.json)")
    topop.add_argument("--baseline", metavar="PATH", default=None,
                       help="bench: compare against this baseline and "
                            "fail on a >25%% rate drop")
    topop.add_argument("--no-archive", action="store_true",
                       help="bench: skip the benchmarks/results/ "
                            "archive copy")
    locksp = sub.add_parser(
        "locks", help="lock-design arena: run one oracle-checked "
                      "tournament cell, or bench the five-design "
                      "crossover table")
    locksp.add_argument("action", choices=["ls", "run", "bench"])
    locksp.add_argument("scheme", nargs="?", default="ncosed",
                        choices=sorted(_LOCK_SCHEMES),
                        help="scheme for 'run' (default: ncosed)")
    locksp.add_argument("--clients", type=int, default=64,
                        help="run: contending clients (default 64)")
    locksp.add_argument("--alpha", type=float, default=1.2,
                        help="Zipf skew of the lock-choice "
                             "distribution (default 1.2)")
    locksp.add_argument("--chaos", choices=["none", "crash"],
                        default="none",
                        help="run: fault plan (default none)")
    locksp.add_argument("--seed", type=int, default=0)
    locksp.add_argument("--kernel", choices=["fast", "slow"],
                        default="fast")
    locksp.add_argument("--json", metavar="PATH", default=None,
                        help="run: write the stats JSON here")
    locksp.add_argument("--levels", type=int, nargs="+", default=None,
                        help="bench: contention levels (default "
                             "64 256 1024)")
    locksp.add_argument("--out", metavar="PATH",
                        default="BENCH_locks.json",
                        help="bench: result file (default: "
                             "BENCH_locks.json)")
    locksp.add_argument("--baseline", metavar="PATH", default=None,
                        help="bench: compare against this baseline and "
                             "fail on a >25%% rate drop")
    locksp.add_argument("--no-archive", action="store_true",
                        help="bench: skip the benchmarks/results/ "
                             "archive copy")
    labp = sub.add_parser(
        "lab", help="parallel experiment sweeps with a resumable "
                    "result store")
    labsub = labp.add_subparsers(dest="action", required=True)
    lab_ls = labsub.add_parser("ls", help="list packaged sweeps + "
                                          "on-disk stores")
    lab_bench = labsub.add_parser(
        "bench", help="serial-vs-parallel speedup + byte-identity check "
                      "(writes BENCH_lab.json)")
    lab_bench.add_argument("--workers", type=int, default=4)
    lab_bench.add_argument("--sweep", default="bench8",
                           help="packaged sweep to compare on "
                                "(default: bench8)")
    lab_bench.add_argument("--out", metavar="PATH",
                           default="BENCH_lab.json")
    store_root_help = ("override benchmarks/results/lab/ as the "
                       "store root")
    lab_ls.add_argument("--store-root", default=None,
                        help=store_root_help)
    for act, hlp in (("run", "run a sweep (skips completed runs)"),
                     ("resume", "re-invoke a killed sweep: only missing "
                                "runs execute"),
                     ("show", "merged tables + completion state of a "
                              "store")):
        p = labsub.add_parser(act, help=hlp)
        p.add_argument("sweep", help="packaged sweep name or store "
                                     "directory")
        p.add_argument("--store-root", default=None,
                       help=store_root_help)
        if act != "show":
            p.add_argument("--workers", type=int, default=0,
                           help="pool workers (0 = serial in-process, "
                                "the byte-identical reference mode)")
            p.add_argument("--timeout", type=float, default=None,
                           help="per-run timeout in seconds")
            p.add_argument("--retries", type=int, default=2,
                           help="extra attempts per run after a "
                                "failure/crash (default 2)")
            p.add_argument("--report", metavar="PATH", default=None,
                           help="write the runner summary JSON here")
            p.add_argument("--no-progress", action="store_true")
            p.add_argument("--no-tables", action="store_true",
                           help="skip the merged-table rendering")
    args = parser.parse_args(argv)

    if args.command == "lab":
        if args.action == "bench":
            return _lab_bench_main(args)
        return _lab_main(args)

    if args.command == "bench":
        return _bench_main(args)

    if args.command == "obs":
        return _obs_main(args)

    if args.command == "check":
        return _check_main(args)

    if args.command == "chaos":
        return _chaos_main(args)

    if args.command == "txn":
        return _txn_main(args)

    if args.command == "topo":
        return _topo_main(args)

    if args.command == "locks":
        return _locks_main(args)

    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for exp_id in ids:
        t0 = time.time()
        for table in EXPERIMENTS[exp_id]():
            table.show()
        print(f"[{exp_id} took {time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
