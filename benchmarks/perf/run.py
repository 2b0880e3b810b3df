"""One command for the whole benchmark.

    python3 benchmarks/perf/run.py --seed 0            # every workload
    python3 benchmarks/perf/run.py --workload txn-closed --seed 3
    python3 benchmarks/perf/run.py --workload webcache --seed 1 \\
            --seconds 8 --trace 0                      # the driver's form

Each workload runs in its own fresh single-threaded child process with
``PYTHONHASHSEED=0``.  Every metric is printed by name with unit and
clock; ``result.json`` and ``spans.jsonl`` go to ``--out``.  With
``--trace 0|1`` (one workload) the last line of standard output is the
result object of the benchmark contract: end-to-end metrics for 0,
per-layer metrics for 1.  A failed correctness check ends the run with
exit code 3 and the check's name on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# import this directory as the package ``perf`` rather than leaving its
# modules (trace.py, stats.py) importable as top-level names
if os.path.abspath(sys.path[0]) == HERE:
    sys.path[0] = os.path.dirname(HERE)

from perf import spec  # noqa: E402
from perf.workloads import MODULES  # noqa: E402

CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, spans: str):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(HERE), os.path.join(spec.ROOT, "src")]))
    cmd = [sys.executable, "-m", "perf.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--spans", spans]
    # subprocess.run kills and reaps the child if the timeout expires
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return proc.returncode, None
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


def report(res: dict, bench: dict) -> None:
    name = res["workload"]
    spread = res["host_spread"]
    print(f"\n== {name}  seed={res['seed']}  k={res['k']} timed rounds "
          f"({res['timed_wall_s']:.1f} s)  ops attempted={res['attempted']} "
          f"failed={res['failed']}")
    print("   end to end")
    notes = {
        "setup_s": f"imports {spread['import_s']:.3f} s + builds, per-round "
                   f"build median {spread['build_s_per_round']['median']:.3f}"
                   f" q1 {spread['build_s_per_round']['q1']:.3f} q3 "
                   f"{spread['build_s_per_round']['q3']:.3f} k={res['k']}",
        "ops_per_host_s": f"per-round drain median "
                          f"{spread['drain_s_per_round']['median']:.3f} s q1 "
                          f"{spread['drain_s_per_round']['q1']:.3f} q3 "
                          f"{spread['drain_s_per_round']['q3']:.3f} "
                          f"k={res['k']}",
        "py_calls_per_op": "counting round, n=1 (exact)",
        "peak_rss_mb": "after the timed rounds, n=1",
        "sim_lat_p50_us": f"n={res['lat_samples']} samples",
        "sim_lat_p99_us": f"n={res['lat_samples']} samples",
    }
    rows = [(m["name"], m["unit"], m["better"], f"{m['bound']:.0%}")
            for m in bench["end_to_end"]]
    rows.append(("fail_ratio", "failed/attempted", "lower", "+0"))
    for mname, unit, better, bound in rows:
        print(f"   {mname:<18}{spec.fmt(res['end_to_end'][mname]):>12} "
              f"{unit:<16} {spec.clock_of(mname):<5} {better:<6} "
              f"bound {bound:<4} {notes.get(mname, '')}")
    print(f"   per layer (counting round: {res['spans']} spans)")
    units = {m["name"]: m for m in bench["per_layer"]}
    for mname, value in res["per_layer"].items():
        m = units[mname]
        print(f"   {mname:<36}{spec.fmt(value):>12} {m['unit']:<9} "
              f"{spec.clock_of(mname):<5} {m['better']}")
    print("   per cell: ops, makespan, agenda entries/op, drain CPU-s "
          "min/median over k")
    for cell, c in res["cells"].items():
        agenda = c["counters"].get("sim.agenda", 0) / max(c["ops"], 1)
        print(f"   {cell:<12}{c['ops']:>7} ops {c['makespan_us']:>12.1f} us "
              f"{agenda:>8.1f} {c['drain_s']['min']:>8.3f} "
              f"{c['drain_s']['median']:>8.3f}  digest {c['digest']}")


def contract_line(res: dict, bench: dict, trace: int) -> str:
    table = bench["per_layer"] if trace else bench["end_to_end"]
    source = res["per_layer"] if trace else res["end_to_end"]
    metrics = {m["name"]: {"value": source.get(m["name"]) or 0.0,
                           "unit": m["unit"]} for m in table}
    return json.dumps({"correct": True, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def main(argv=None) -> int:
    bench = spec.load()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", nargs="+", choices=list(MODULES),
                    default=list(MODULES), metavar="NAME")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="wall seconds of timed rounds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--out", default=os.path.join(HERE, "results", "latest"))
    args = ap.parse_args(argv)
    if args.trace is not None and len(args.workload) != 1:
        ap.error("--trace prints one result object: name one --workload")

    if not os.path.isdir(os.path.join(spec.ROOT, "src", "repro")):
        print(f"no src/repro under {spec.ROOT}: the benchmark measures the "
              f"repo it is checked out in", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    spans = os.path.join(args.out, "spans.jsonl") if args.trace != 0 else ""
    if spans:
        open(spans, "w").close()
    results = {}
    for workload in args.workload:
        code, res = run_child(workload, args.seed, args.seconds, spans)
        if code != 0:
            print(f"{workload}: child exited with code {code}",
                  file=sys.stderr)
            return code
        results[workload] = res
        report(res, bench)
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"schema": "perf-result-v1", "seed": args.seed,
                   "seconds": args.seconds, "workloads": results}, fh,
                  indent=1)
    print(f"\nwrote {args.out}/result.json"
          + (f" and {spans}" if spans else ""))
    if args.trace is not None:
        print(contract_line(results[args.workload[0]], bench, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
