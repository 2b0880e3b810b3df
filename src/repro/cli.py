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
import json
import sys
import time
from typing import Callable, Dict, List

from repro.bench import BenchTable, improvement_pct
from repro.bench.plot import ascii_bars
from repro.errors import ConfigError, LockError, ReproError
from repro.sim import KERNELS

__all__ = ["build_parser", "main"]


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
# shared helpers
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _list_scenarios(describe=False, chaos_only=False) -> int:
    from repro.scenarios import SCENARIOS

    for name in sorted(SCENARIOS):
        sc = SCENARIOS[name]
        if chaos_only and sc.horizon_us is None:
            continue
        if not describe:
            print(name)
            continue
        space = ""
        if sc.horizon_us is not None:
            clean = "clean" if sc.expect_clean else "SEEDED BUG"
            space = f" horizon={sc.horizon_us:.0f}us [{clean}]"
        print(f"  {name:14s} n_nodes={sc.n_nodes}{space}")
        print(f"  {'':14s} {sc.description}")
    return 0


def _print_record(r: dict) -> int:
    """Print one judged-run (or ``check trace``) record; returns the
    exit code its verdict maps to."""
    tags = "".join(f" {k}={r[k]}" for k in ("seed", "index") if k in r)
    kern = f" [{r['kernel']}]" if "kernel" in r else ""
    sha = f" sha={r['trace_sha']}" if "trace_sha" in r else ""
    print(f"[{r.get('scenario', r.get('trace'))}]{kern}{tags} "
          f"events={r['events']}{sha} verdict={r['verdict']}")
    for label in r.get("faults", ()):
        print(f"  fault: {label}")
    for k in sorted(r["stats"]):
        print(f"  {k}={r['stats'][k]}")
    for oname in sorted(r["oracles"]):
        o = r["oracles"][oname]
        print(f"  {oname:6s} checked={o['checked']:6d} "
              f"violations={len(o['violations'])}")
        for v in o["violations"][:5]:
            t = "end" if v["t"] is None else f"{v['t']:.1f}"
            print(f"    t={t} #{v['index']} {v['msg']}")
    for s in r["sanitizers"][:5]:
        print(f"  [sanitizer {s['sanitizer']}] t={s['t']:.1f} {s['msg']}")
    if "repro" in r:
        rep = r["repro"]
        print(f"  reproducer: {rep['kept_events']}/"
              f"{rep['original_events']} events "
              f"({rep['probes']} probes)")
    return 0 if r["verdict"] == "ok" else 1


def _run_one(args, scenario) -> int:
    """``repro txn|topo run``: one judged run, printed, optionally
    written, exit code from its verdict."""
    from repro.scenarios import judged_run

    record, _obs = judged_run(scenario, args.seed, args.n_nodes,
                              args.kernel)
    rc = _print_record(record)
    if args.json:
        _write_json(args.json, record)
    return rc


def _write_bench(args, report, prefix: str, guarded, **gate_kw) -> int:
    """Write a bench report (+ archive copy), then gate it against
    ``--baseline``: exit 1 when a guarded rate dropped >25 %."""
    from repro.bench.engine import RESULTS_DIR
    from repro.bench.harness import check_regression, write_report

    for path in write_report(report, args.out,
                             None if args.no_archive else RESULTS_DIR,
                             prefix):
        print(f"wrote {path}")
    if args.baseline is None:
        return 0
    try:
        baseline = _load_json(args.baseline)
    except (OSError, ConfigError):
        print(f"no usable baseline at {args.baseline}; "
              f"regression gate skipped")
        return 0
    failures = check_regression(report, baseline, guarded, **gate_kw)
    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if not failures:
        print("regression gate passed (>25% drop would fail)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# figure runners
# ---------------------------------------------------------------------------

def _list_main(args) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _run_main(args) -> int:
    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiment(s): {', '.join(unknown)}; "
                          f"available: {', '.join(EXPERIMENTS)}")
    for exp_id in ids:
        t0 = time.time()
        for table in EXPERIMENTS[exp_id]():
            table.show()
        print(f"[{exp_id} took {time.time() - t0:.1f}s]")
    return 0


# ---------------------------------------------------------------------------
# observability subcommand
# ---------------------------------------------------------------------------

def _obs_main(args) -> int:
    from repro.scenarios import judged_run

    if args.action == "list":
        return _list_scenarios()
    if not args.scenario:
        raise ConfigError("obs run requires a scenario name; "
                          "try: repro obs list")
    record, obs = judged_run(args.scenario, args.seed)
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
    bad = record["sanitizers"]
    print(f"sanitizers: {len(obs.sanitizers)} attached, "
          f"{len(bad)} violation(s)")
    for v in bad[:10]:
        print(f"  [{v['sanitizer']}] t={v['t']:.1f} {v['msg']}")
    print(f"verdict={record['verdict']}")
    return 0 if record["verdict"] == "ok" else 1


# ---------------------------------------------------------------------------
# check subcommand (trace-replay correctness oracles)
# ---------------------------------------------------------------------------

def _check_main(args) -> int:
    from repro.scenarios import run_suite, worst
    from repro.verify import check_trace, metamorphic_sweep

    if args.action == "list":
        return _list_scenarios()

    if args.action == "meta":
        rep = metamorphic_sweep(checks=args.names or None,
                                seeds=args.seeds, node_counts=args.nodes,
                                workers=args.workers)
        print(f"[meta] runs={rep['runs']} pairs={rep['pairs']} "
              f"kernel_mismatches={len(rep['kernel_mismatches'])} "
              f"kernel_ties={len(rep['kernel_ties'])} "
              f"stale_ties={len(rep['stale_ties'])} "
              f"violations={len(rep['violations'])} "
              f"verdict={rep['verdict']}")
        for m in rep["kernel_mismatches"][:5]:
            shas = " ".join(f"{k}={v}" for k, v in sorted(m["shas"].items()))
            print(f"  MISMATCH {m['scenario']} seed={m['seed']}: {shas}")
        for m in rep["kernel_ties"]:
            print(f"  known tie {m['scenario']} seed={m['seed']}")
        for m in rep["stale_ties"]:
            print(f"  STALE KNOWN_TIES entry {m['scenario']} "
                  f"n_nodes={m['n_nodes']} seed={m['seed']}: kernels agree")
        for v in rep["violations"][:5]:
            print(f"  {v['verdict'].upper()} {v['scenario']} "
                  f"[{v['kernel']}] seed={v['seed']}: "
                  f"{v['violations']} finding(s)")
        if args.json:
            _write_json(args.json, rep)
        return 0 if rep["verdict"] == "ok" else 1

    if args.action == "trace":
        if not args.names:
            raise ConfigError("check trace requires a trace file path")
        results = [check_trace(p, shrink=not args.no_shrink)
                   for p in args.names]
        doc = {"results": results, "verdict": worst(results)}
    else:  # run
        names = None if "all" in (args.names or ["all"]) else args.names
        doc = run_suite(names, seed=args.seed,
                        kernels=KERNELS if args.both_kernels
                        else [args.kernel],
                        shrink=not args.no_shrink)
        results = doc["results"]

    n_ok = [_print_record(r) for r in results].count(0)
    if args.json:
        _write_json(args.json, doc)
    print(f"{n_ok}/{len(results)} checks ok")
    return 0 if n_ok == len(results) else 1


# ---------------------------------------------------------------------------
# chaos subcommand (fault-schedule campaigns + shrinking)
# ---------------------------------------------------------------------------

def _chaos_print_campaign(v: dict) -> int:
    print(f"[chaos seed={v['seed']}] runs={v['runs']} "
          f"errors={v['run_errors']} "
          f"mismatches={len(v['kernel_mismatches'])} "
          f"findings={len(v['findings'])} "
          f"violations={len(v['violations'])} verdict={v['verdict']}")
    for e in v["violations"][:10]:
        print(f"  {e['verdict'].upper()} {e['scenario']}#{e['index']} "
              f"[{e['kernel']}]:")
        for msg in e["msgs"][:3]:
            print(f"    {msg}")
        for label in e["faults"]:
            print(f"    fault: {label}")
    for e in v["findings"][:10]:
        print(f"  finding {e['scenario']}#{e['index']} "
              f"[{e['kernel']}]: {len(e['msgs'])} msg(s)")
    for m in v["kernel_mismatches"][:5]:
        print(f"  KERNEL MISMATCH {m['scenario']}#{m['index']}: "
              f"{m['shas']}")
    return 0 if v["verdict"] == "ok" else 1


def _chaos_load_schedule(path: str):
    doc = _load_json(path)
    # accept a bare schedule list, a run record, or a shrink report
    if isinstance(doc, dict):
        doc = doc.get("schedule", doc)
    if not isinstance(doc, list):
        raise ConfigError(f"{path} holds no fault schedule")
    return doc


def _chaos_main(args) -> int:
    from repro.chaos import find_failing, run_campaign, shrink_schedule
    from repro.scenarios import lookup, run_schedule

    if args.action == "list":
        return _list_scenarios(describe=True, chaos_only=True)

    if args.action == "report":
        if not args.names:
            raise ConfigError("chaos report requires a verdict JSON path")
        return _chaos_print_campaign(_load_json(args.names[0]))

    kernels = KERNELS if args.both_kernels else [args.kernel]

    if args.action == "run":
        verdict = run_campaign(
            scenarios=args.names or ["locks", "ddss-repl"],
            seed=args.seed, n_schedules=args.schedules, kernels=kernels,
            workers=args.workers, store_path=args.store, progress=False)
        rc = _chaos_print_campaign(verdict)
        if args.json:
            _write_json(args.json, verdict)
        return rc

    # replay / shrink operate on one scenario + one schedule
    if not args.names:
        raise ConfigError(f"chaos {args.action} requires a scenario name; "
                          f"try: repro chaos list")
    name = args.names[0]
    space = lookup(name).space()

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
        schedule = space.sample(args.seed, index)

    if args.action == "replay":
        rec = run_schedule(name, schedule, args.seed, kernel=kernels[0])
        if index is not None:
            rec["index"] = index
        rc = _print_record(rec)
        if args.json:
            _write_json(args.json, rec)
        return rc

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
        _write_json(args.json, report)
    return 0


# ---------------------------------------------------------------------------
# lab subcommand (parallel sweeps + resumable store)
# ---------------------------------------------------------------------------

def _lab_store_and_sweep(args):
    """Resolve (sweep, store) from a packaged name or a store directory."""
    import os

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
    import os

    from repro.lab import (DEFAULT_ROOT, Runner, RetryPolicy, SWEEPS,
                           merge_tables, store_for)

    if args.action == "bench":
        return _lab_bench_main(args)

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

    sweep, store = _lab_store_and_sweep(args)

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
        raise ConfigError(f"nothing to resume: no store at {store.path} "
                          f"(use: repro lab run {args.sweep})")
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
        _write_json(args.report, report)
    if report["interrupted"]:
        print(f"interrupted — continue with: "
              f"repro lab resume {args.sweep}", file=sys.stderr)
        return 130
    if not report["failed"] and not args.no_tables:
        for table in merge_tables(sweep, store):
            table.show()
    return 1 if report["failed"] else 0


def _lab_bench_main(args) -> int:
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
    _write_json(args.out, report)
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
    if args.action == "run":
        from dataclasses import replace
        from functools import partial

        from repro.scenarios import lookup

        sc = lookup(f"txn-{args.variant}")
        return _run_one(args, replace(
            sc, build=partial(sc.build, n_keys=args.n_keys)))

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
    _write_json(args.out, doc)
    if bad:
        print("FATAL: conservation failed in a sweep cell",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# topo subcommand (rack/spine fabric + sharded namespaces)
# ---------------------------------------------------------------------------

def _topo_main(args) -> int:
    if args.action == "ls":
        return _list_scenarios(describe=True)

    if args.action == "run":
        return _run_one(args, args.scenario)

    # bench: deterministic simulated figures of merit + regression gate
    from repro.bench.topo import GUARDED_TOPO_RATES, run_topo_suite

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
    return _write_bench(args, report, "topo", GUARDED_TOPO_RATES)


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
    if args.action == "ls":
        for name, desc in _LOCK_SCHEMES.items():
            print(f"{name:8s} {desc}")
        print("chaos modes: none | crash "
              "(two crashes, lease-fenced schemes reclaim)")
        return 0

    if args.action == "run":
        from repro.dlm.tournament import lock_tournament
        from repro.sim import pin_kernel

        try:
            with pin_kernel(args.kernel):
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
        print(f"verdict={stats['verdict']} (oracle-replayed, "
              f"0 violations, {stats['grants']} grants)")
        if args.json:
            _write_json(args.json, stats)
        return 0 if stats["verdict"] == "ok" else 1

    # bench: the full tournament + crossover table + regression gate
    from repro.bench.locks import GUARDED_LOCKS_RATES, run_locks_suite

    kw = {"levels": args.levels} if args.levels else {}
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
    return _write_bench(args, report, "locks", GUARDED_LOCKS_RATES)


# ---------------------------------------------------------------------------
# engine benchmark subcommand
# ---------------------------------------------------------------------------

def _bench_main(args) -> int:
    from repro.bench.engine import GUARDED_RATES, run_suite

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
        topo_res = _load_json(DEFAULT_TOPO_RESULT).get("results", {})
        print(f"topo (from {DEFAULT_TOPO_RESULT}, simulated):")
        for bench, key in GUARDED_TOPO_RATES:
            val = topo_res.get(bench, {}).get(key)
            if isinstance(val, (int, float)):
                print(f"  {bench}.{key:<24s} {val:>12,.1f} /s")
    except (OSError, ConfigError):
        pass  # no committed topo baseline: engine keys only
    if not sv["sim_now_match"]:
        print("FATAL: fast and slow kernels disagree on simulated time",
              file=sys.stderr)
        return 1
    return _write_bench(args, report, "engine", GUARDED_RATES, decimals=0)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _nonneg_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> List[int]:
    return [_nonneg_int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    def flag(*names, **kw):
        """A parent parser carrying one flag several commands repeat.
        Children share its Action, so a per-command default needs its
        own parent (``workers``/``gate`` below), never set_defaults."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kw)
        return parent

    seed = flag("--seed", type=_nonneg_int, default=0,
                help="root seed (schedules are a pure function of "
                     "seed+index)")
    kernel = flag("--kernel", choices=KERNELS, default="fast")
    both = flag("--both-kernels", action="store_true",
                help="run under both event kernels (fast / slow), "
                     "diffing canonical trace digests where the action "
                     "folds them")
    json_out = flag("--json", metavar="PATH", default=None,
                    help="write the machine-readable record / verdict "
                         "here")
    baseline = flag("--baseline", metavar="PATH", default=None,
                    help="bench: compare against this report; exit 1 "
                         "when a guarded rate regresses >25%% (missing "
                         "file skips the gate)")
    no_archive = flag("--no-archive", action="store_true",
                      help="bench: skip the benchmarks/results/ archive "
                           "copy")

    def workers(default=0):
        return flag("--workers", type=int, default=default,
                    help=f"lab pool workers (default {default}; 0 = "
                         f"serial in-process, the byte-identical "
                         f"reference mode)")

    def gate(out):
        return [flag("--out", metavar="PATH", default=out,
                     help=f"bench: result file (default: {out})"),
                baseline, no_archive]

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
        "obs", parents=[seed],
        help="run a packaged scenario and export its tracing + metrics "
             "+ sanitizer state")
    obsp.add_argument("action", choices=["list", "run"])
    obsp.add_argument("scenario", nargs="?",
                      help="scenario name (for 'run')")
    obsp.add_argument("--json", metavar="PATH", default=None,
                      help="write the deterministic JSON export here")
    obsp.add_argument("--trace", metavar="PATH", default=None,
                      help="write the full-event trace export here "
                           "(replayable with 'repro check trace')")
    benchp = sub.add_parser(
        "bench", parents=[*gate("BENCH_engine.json"), workers()],
        help="wall-clock engine benchmarks (events/s, verbs/s, lock "
             "ops/s) + perf gate; rates are only comparable across "
             "runs at the same --workers setting")
    benchp.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI-sized)")
    checkp = sub.add_parser(
        "check", parents=[seed, kernel, both, json_out, workers()],
        help="replay scenarios or trace files against the correctness "
             "oracles (locks / DDSS coherence / caching / txn / HA)")
    checkp.add_argument("action",
                        choices=["list", "run", "trace", "meta"])
    checkp.add_argument("names", nargs="*",
                        help="scenario names (or 'all') for run/meta; "
                             "trace file path(s) for trace")
    checkp.add_argument("--no-shrink", action="store_true",
                        help="skip reproducer shrinking on violation")
    checkp.add_argument("--seeds", type=_int_list, default=[0, 1],
                        help="meta: comma-separated seed list")
    checkp.add_argument("--nodes", type=_int_list, default=[0],
                        help="meta: comma-separated node counts "
                             "(0 = per-scenario default)")
    chaosp = sub.add_parser(
        "chaos", parents=[seed, kernel, both, json_out, workers()],
        help="randomized fault-schedule campaigns judged by oracles, "
             "with reproducer shrinking")
    chaosp.add_argument("action",
                        choices=["list", "run", "replay", "shrink",
                                 "report"])
    chaosp.add_argument("names", nargs="*",
                        help="scenario names for run/replay/shrink "
                             "(run default: locks ddss-repl); verdict "
                             "JSON path for report")
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
    chaosp.add_argument("--store", metavar="DIR", default=None,
                        help="run: resumable lab result store directory")
    chaosp.add_argument("--max-probes", type=int, default=64,
                        help="shrink: probe budget (default 64)")
    txnp = sub.add_parser(
        "txn", parents=[seed, kernel, json_out, workers()],
        help="multi-key transactions over DDSS: run a workload under "
             "the oracle, or sweep OCC vs 2PL")
    txnp.add_argument("action", choices=["run", "bench"])
    txnp.add_argument("--variant", choices=["occ", "2pl", "mixed"],
                      default="occ",
                      help="concurrency control for 'run' "
                           "(default: occ)")
    txnp.add_argument("--n-nodes", type=int, default=4)
    txnp.add_argument("--n-keys", type=int, default=4,
                      help="account/stock pool size (fewer = hotter)")
    txnp.add_argument("--out", metavar="PATH", default="BENCH_txn.json",
                      help="bench: result file (default: "
                           "BENCH_txn.json)")
    topop = sub.add_parser(
        "topo", parents=[seed, kernel, json_out,
                         *gate("BENCH_topo.json")],
        help="rack/spine topology + sharded namespaces: run the "
             "packaged scale-out scenario under the oracles, or bench "
             "the fabric")
    topop.add_argument("action", choices=["ls", "run", "bench"])
    topop.add_argument("scenario", nargs="?", default="lab",
                       help="scenario for 'run' (default: lab)")
    topop.add_argument("--n-nodes", type=int, default=None,
                       help="run: cluster size (default: the "
                            "scenario's own)")
    locksp = sub.add_parser(
        "locks", parents=[seed, kernel, json_out,
                          *gate("BENCH_locks.json")],
        help="lock-design arena: run one oracle-checked tournament "
             "cell, or bench the five-design crossover table")
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
    locksp.add_argument("--levels", type=int, nargs="+", default=None,
                        help="bench: contention levels (default "
                             "64 256 1024)")
    labp = sub.add_parser(
        "lab", help="parallel experiment sweeps with a resumable "
                    "result store")
    labsub = labp.add_subparsers(dest="action", required=True)
    store_root = flag("--store-root", default=None,
                      help="override benchmarks/results/lab/ as the "
                           "store root")
    labsub.add_parser("ls", parents=[store_root],
                      help="list packaged sweeps + on-disk stores")
    lab_bench = labsub.add_parser(
        "bench", parents=[workers(4)],
        help="serial-vs-parallel speedup + byte-identity check "
             "(writes BENCH_lab.json)")
    lab_bench.add_argument("--sweep", default="bench8",
                           help="packaged sweep to compare on "
                                "(default: bench8)")
    lab_bench.add_argument("--out", metavar="PATH",
                           default="BENCH_lab.json")
    for act, hlp in (("run", "run a sweep (skips completed runs)"),
                     ("resume", "re-invoke a killed sweep: only missing "
                                "runs execute"),
                     ("show", "merged tables + completion state of a "
                              "store")):
        p = labsub.add_parser(
            act, help=hlp,
            parents=[store_root] + ([] if act == "show" else [workers()]))
        p.add_argument("sweep", help="packaged sweep name or store "
                                     "directory")
        if act != "show":
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
    return parser


_COMMANDS = {
    "list": _list_main, "run": _run_main, "obs": _obs_main,
    "bench": _bench_main, "check": _check_main, "chaos": _chaos_main,
    "txn": _txn_main, "topo": _topo_main, "locks": _locks_main,
    "lab": _lab_main,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
