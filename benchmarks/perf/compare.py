"""Compare two runs of the benchmark: ``compare.py A/result.json
B/result.json`` (A = before or first set, B = after or second set).

Per workload, every end-to-end metric is judged against its bound from
``BENCHMARK.json``:

* ``ok``          B is not worse than A by more than the bound;
* ``worse``       it is (exit code 1);
* ``unresolved``  the metric is on the host clock and the quartile
                  spread of its per-round samples, on either side, is
                  wider than the bound, so neither verdict is earned.

Sim- and count-clock metrics carry an ``exact`` flag: bit-identical or
not.  For two runs of one commit at one seed they must all be exact.
Then comes the per-layer table with deltas (no bounds there).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if os.path.abspath(sys.path[0]) == HERE:
    sys.path[0] = os.path.dirname(HERE)

from perf import spec  # noqa: E402

#: host-clock end-to-end metric -> its per-round samples in the result
ROUND_SAMPLES = {"ops_per_host_s": "drain_s_per_round",
                 "setup_s": "build_s_per_round"}


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def rel_spread(res: dict, metric: str) -> float:
    """Inter-quartile range of the metric's per-round samples over
    their median — for ``setup_s`` over the whole of it, since the
    imports are most of it and are sampled once."""
    key = ROUND_SAMPLES.get(metric)
    if key is None:
        return 0.0
    s = res["host_spread"][key]
    base = (res["end_to_end"]["setup_s"] if metric == "setup_s"
            else s["median"])
    return (s["q3"] - s["q1"]) / base if base else 0.0


def judge(metric: dict, a: dict, b: dict) -> dict:
    name = metric["name"]
    va, vb = a["end_to_end"][name], b["end_to_end"][name]
    clock = spec.clock_of(name)
    row = {"name": name, "a": va, "b": vb, "clock": clock,
           "bound": metric["bound"]}
    if va is None or vb is None:
        row.update(worse_by=None,
                   verdict="ok" if va is vb else "worse")
        return row
    row["worse_by"] = worse_by(va, vb, metric["better"])
    if clock != "host":
        row["exact"] = va == vb
    spread = max(rel_spread(a, name), rel_spread(b, name))
    row["spread"] = spread
    if spread > metric["bound"]:
        row["verdict"] = "unresolved"
    elif row["worse_by"] > metric["bound"]:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "ok"
    return row


def compare(doc_a: dict, doc_b: dict, bench: dict, out=sys.stdout) -> int:
    """Print the report; return the number of ``worse`` verdicts."""
    n_worse = 0
    if doc_a["seed"] != doc_b["seed"]:
        print(f"note: seeds differ ({doc_a['seed']} vs {doc_b['seed']}): "
              f"sim and count metrics are not expected to be exact",
              file=out)
    for wl in bench["workloads"]:
        name = wl["name"]
        a = doc_a["workloads"].get(name)
        b = doc_b["workloads"].get(name)
        if a is None or b is None:
            print(f"\n== {name}: missing on one side, skipped", file=out)
            continue
        print(f"\n== {name}  (k={a['k']} vs k={b['k']})", file=out)
        print(f"   {'end-to-end metric':<18}{'A':>14}{'B':>14}"
              f"{'worse by':>10}{'bound':>7}{'spread':>8}  verdict",
              file=out)
        for metric in bench["end_to_end"]:
            row = judge(metric, a, b)
            n_worse += row["verdict"] == "worse"
            flag = ""
            if "exact" in row:
                flag = "  exact" if row["exact"] else "  NOT exact"
            wb = ("" if row["worse_by"] is None
                  else f"{row['worse_by']:+.2%}")
            print(f"   {row['name']:<18}{spec.fmt(row['a']):>14}"
                  f"{spec.fmt(row['b']):>14}{wb:>10}{row['bound']:>7.0%}"
                  f"{row.get('spread', 0.0):>8.1%}  {row['verdict']}"
                  f"{flag}  [{row['clock']}]", file=out)
        fa, fb = (a["failed"] / a["attempted"], b["failed"] / b["attempted"])
        verdict = "ok" if fb <= fa else "worse"
        n_worse += verdict == "worse"
        print(f"   {'fail_ratio':<18}{spec.fmt(fa):>14}{spec.fmt(fb):>14}"
              f"{'':>10}{'+0':>7}{'':>8}  {verdict}  [count]", file=out)
        print(f"   {'per-layer metric':<36}{'A':>14}{'B':>14}{'delta':>9}",
              file=out)
        for metric in bench["per_layer"]:
            mname = metric["name"]
            va, vb = a["per_layer"].get(mname), b["per_layer"].get(mname)
            if not va and not vb:
                continue
            delta = "" if not va or vb is None else f"{(vb - va) / va:+.2%}"
            exact = ""
            if spec.clock_of(mname) != "host":
                exact = "  exact" if va == vb else "  NOT exact"
            print(f"   {mname:<36}{spec.fmt(va):>14}{spec.fmt(vb):>14}"
                  f"{delta:>9}{exact}", file=out)
    return n_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    n_worse = compare(docs[0], docs[1], spec.load())
    print(f"\n{n_worse} metric(s) worse than the bound allows")
    return 1 if n_worse else 0


if __name__ == "__main__":
    sys.exit(main())
