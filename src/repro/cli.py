"""Command line: the paper's figures and the harness around them.

Usage::

    python -m repro list
    python -m repro run fig5
    python -m repro run fig3a fig8a
    python -m repro run all

``run`` builds each named row of :data:`repro.bench.figures.FIGURES`
(the rows ``benchmarks/test_figures.py`` runs), prints its tables and
checks its shape, exiting 1 when a shape does not hold.  The other
verbs drive the scenario table, the oracles and the lab.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List

from repro.errors import ConfigError, LockError, ReproError
from repro.sim import KERNELS

__all__ = ["build_parser", "main"]


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


def _list_scenarios(chaos=False) -> int:
    """Print the scenario names; with ``chaos``, describe the rows that
    take a fault schedule."""
    from repro.scenarios import SCENARIOS

    for name in sorted(SCENARIOS):
        sc = SCENARIOS[name]
        if not chaos:
            print(name)
        elif sc.horizon_us is not None:
            clean = "clean" if sc.expect_clean else "SEEDED BUG"
            print(f"  {name:14s} n_nodes={sc.n_nodes} "
                  f"horizon={sc.horizon_us:.0f}us [{clean}]")
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
    if "repro" in r:
        rep = r["repro"]
        print(f"  reproducer: {rep['kept_events']}/"
              f"{rep['original_events']} events "
              f"({rep['probes']} probes)")
    return 0 if r["verdict"] == "ok" else 1


# ---------------------------------------------------------------------------
# figure runners
# ---------------------------------------------------------------------------

def _list_main(args) -> int:
    from repro.bench.figures import FIGURES

    for fig in FIGURES.values():
        print(f"{fig.name:17s} {fig.claim}")
    return 0


def _run_main(args) -> int:
    from repro.bench.figures import FIGURES

    names = list(FIGURES) if "all" in args.ids else args.ids
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        raise ConfigError(f"unknown figure(s): {', '.join(unknown)}; "
                          f"available: {', '.join(FIGURES)}")
    failed = []
    for name in names:
        fig = FIGURES[name]
        t0 = time.time()
        print(f"[{name}] {fig.claim}")
        tables = fig.build()
        for table in tables:
            table.show()
        try:
            fig.check(*tables)
        except AssertionError as exc:
            failed.append(name)
            print(f"[{name}] shape check failed: {exc}", file=sys.stderr)
        print(f"[{name} took {time.time() - t0:.1f}s]")
    return 1 if failed else 0


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
                        shrink=not args.no_shrink, export=args.export)
        results = doc["results"]
        if args.export:
            print(f"wrote {args.export}")

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
        return _list_scenarios(chaos=True)

    if args.action == "report":
        if not args.names:
            raise ConfigError("chaos report requires a verdict JSON path")
        return _chaos_print_campaign(_load_json(args.names[0]))

    kernels = KERNELS if args.both_kernels else [args.kernel]

    if args.action == "run":
        verdict = run_campaign(
            scenarios=args.names or ["locks", "ddss-repl"],
            seed=args.seed, n_schedules=args.schedules, kernels=kernels,
            workers=args.workers, store_path=args.store)
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

    from repro.lab import ResultStore, SWEEPS, store_for

    name = args.sweep
    if name in SWEEPS:
        sweep = SWEEPS[name]
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

    from repro.lab import DEFAULT_ROOT, Runner, SWEEPS, merge_tables, store_for

    if args.action == "ls":
        print("packaged sweeps:")
        for name, sweep in sorted(SWEEPS.items()):
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
    report = Runner(sweep, store, workers=args.workers,
                    timeout_s=args.timeout,
                    progress=sys.stderr.isatty()).run()
    print(f"[lab {sweep.name}] {report['completed']} ran, "
          f"{report['skipped']} skipped, {report['failed']} failed "
          f"({report['wall_s']:.1f}s wall, workers={args.workers})")
    for failure in report["failures"]:
        print(f"  FAILED {failure['run_id']} "
              f"params={failure['params']} seed={failure['seed']}: "
              f"{failure['error']}", file=sys.stderr)
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


# ---------------------------------------------------------------------------
# lock-arena subcommand
# ---------------------------------------------------------------------------

def _locks_main(args) -> int:
    if args.action == "ls":
        from repro.dlm import DESIGNS

        for name, design in DESIGNS.items():
            print(f"{name:8s} {design.description}")
        print("chaos modes: none | crash "
              "(two crashes, lease-fenced schemes reclaim)")
        return 0

    from repro.dlm.tournament import lock_tournament
    from repro.sim import pin_kernel

    try:
        with pin_kernel(args.kernel):
            stats = lock_tournament(args.scheme, n_clients=args.clients,
                                    alpha=args.alpha, chaos=args.chaos,
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
        print(f"  {k}={v:.1f}" if isinstance(v, float) else f"  {k}={v}")
    print(f"verdict={stats['verdict']} (oracle-replayed, "
          f"0 violations, {stats['grants']} grants)")
    if args.json:
        _write_json(args.json, stats)
    return 0 if stats["verdict"] == "ok" else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _nonneg_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _pos_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _int_list(text: str) -> List[int]:
    return [_nonneg_int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    from repro.dlm import DESIGNS

    def flag(*names, **kw):
        """A parent parser carrying one flag several commands repeat.
        Children share its Action, so a per-command default needs its
        own parent, never set_defaults."""
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
    workers = flag("--workers", type=int, default=0,
                   help="lab pool workers (default 0 = serial "
                        "in-process, the byte-identical reference mode)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate and check the paper's figures; drive the "
                    "scenario table, oracles and lab")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the paper's figures")
    runp = sub.add_parser("run", help="build, print and check figures")
    runp.add_argument("ids", nargs="+", help="figure names (or 'all')")
    checkp = sub.add_parser(
        "check", parents=[seed, kernel, both, json_out, workers],
        help="replay scenarios or trace files against the correctness "
             "oracles (locks / DDSS coherence / caching / txn / HA)")
    checkp.add_argument("action",
                        choices=["list", "run", "trace", "meta"])
    checkp.add_argument("names", nargs="*",
                        help="scenario names (or 'all') for run/meta; "
                             "trace file path(s) for trace")
    checkp.add_argument("--no-shrink", action="store_true",
                        help="skip reproducer shrinking on violation")
    checkp.add_argument("--export", metavar="PATH", default=None,
                        help="run: write one row's trace, metrics and "
                             "verdict record here (replayable with "
                             "'repro check trace')")
    checkp.add_argument("--seeds", type=_int_list, default=[0, 1],
                        help="meta: comma-separated seed list")
    checkp.add_argument("--nodes", type=_int_list, default=[0],
                        help="meta: comma-separated node counts "
                             "(0 = per-scenario default)")
    chaosp = sub.add_parser(
        "chaos", parents=[seed, kernel, both, json_out, workers],
        help="randomized fault-schedule campaigns judged by oracles, "
             "with reproducer shrinking")
    chaosp.add_argument("action",
                        choices=["list", "run", "replay", "shrink",
                                 "report"])
    chaosp.add_argument("names", nargs="*",
                        help="scenario names for run/replay/shrink "
                             "(run default: locks ddss-repl); verdict "
                             "JSON path for report")
    chaosp.add_argument("--schedules", type=_pos_int, default=10,
                        help="schedules per scenario per kernel "
                             "(run), or samples scanned for a failure "
                             "(shrink without --index)")
    chaosp.add_argument("--index", type=_nonneg_int, default=None,
                        help="replay/shrink this sampled schedule index")
    chaosp.add_argument("--schedule", metavar="PATH", default=None,
                        help="replay/shrink a schedule from this JSON "
                             "file (bare list, run record, or shrink "
                             "report)")
    chaosp.add_argument("--store", metavar="DIR", default=None,
                        help="run: resumable lab result store directory")
    chaosp.add_argument("--max-probes", type=_pos_int, default=64,
                        help="shrink: probe budget (default 64)")
    locksp = sub.add_parser(
        "locks", parents=[seed, kernel, json_out],
        help="lock-design arena: run one oracle-checked tournament cell")
    locksp.add_argument("action", choices=["ls", "run"])
    locksp.add_argument("scheme", nargs="?", default="ncosed",
                        choices=list(DESIGNS),
                        help="scheme for 'run' (default: ncosed)")
    locksp.add_argument("--clients", type=int, default=64,
                        help="run: contending clients (default 64)")
    locksp.add_argument("--alpha", type=float, default=1.2,
                        help="Zipf skew of the lock-choice "
                             "distribution (default 1.2)")
    locksp.add_argument("--chaos", choices=["none", "crash"],
                        default="none",
                        help="run: fault plan (default none)")
    labp = sub.add_parser(
        "lab", help="parallel experiment sweeps with a resumable "
                    "result store")
    labsub = labp.add_subparsers(dest="action", required=True)
    store_root = flag("--store-root", default=None,
                      help="override benchmarks/results/lab/ as the "
                           "store root")
    labsub.add_parser("ls", parents=[store_root],
                      help="list packaged sweeps + on-disk stores")
    for act, hlp in (("run", "run a sweep (skips completed runs)"),
                     ("resume", "re-invoke a killed sweep: only missing "
                                "runs execute"),
                     ("show", "merged tables + completion state of a "
                              "store")):
        p = labsub.add_parser(
            act, help=hlp,
            parents=[store_root] + ([] if act == "show" else [workers]))
        p.add_argument("sweep", help="packaged sweep name or store "
                                     "directory")
        if act != "show":
            p.add_argument("--timeout", type=float, default=None,
                           help="per-run wall-clock timeout in "
                                "seconds (> 0)")
            p.add_argument("--report", metavar="PATH", default=None,
                           help="write the runner summary JSON here")
            p.add_argument("--no-tables", action="store_true",
                           help="skip the merged-table rendering")
    return parser


_COMMANDS = {
    "list": _list_main, "run": _run_main, "check": _check_main,
    "chaos": _chaos_main, "locks": _locks_main, "lab": _lab_main,
}


def main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
