"""compare.py verdicts on synthetic results."""

import copy
import io

from perf import compare, spec

BENCH = spec.load()


def result(**e2e):
    base = {"setup_s": 1.0, "ops_per_host_s": 1000.0,
            "py_calls_per_op": 200.0, "peak_rss_mb": 60.0,
            "sim_ops_per_s": 5e4, "sim_lat_p50_us": 40.0,
            "sim_lat_p99_us": 900.0}
    base.update(e2e)
    tight = {"median": 1.0, "q1": 0.99, "q3": 1.01, "k": 5}
    return {"seed": 0, "workloads": {"ddss-rw": {
        "k": 5, "attempted": 100, "failed": 0, "end_to_end": base,
        "per_layer": {"ddss.py_calls_per_op": 24.0,
                      "ddss.null-r95.host_us_per_op": 23.0},
        "host_spread": {"drain_s_per_round": dict(tight),
                        "build_s_per_round": dict(tight)}}}}


def run(a, b):
    out = io.StringIO()
    return compare.compare(a, b, BENCH, out=out), out.getvalue()


def verdicts(text):
    return {line.split()[0]: line for line in text.splitlines()
            if "[host]" in line or "[sim]" in line or "[count]" in line}


def test_identical_runs_are_ok_and_exact():
    n, text = run(result(), result())
    assert n == 0
    rows = verdicts(text)
    assert " ok" in rows["ops_per_host_s"] and "exact" not in rows["setup_s"]
    assert "ok  exact" in rows["sim_ops_per_s"]
    assert "ok  exact" in rows["py_calls_per_op"]


def test_direction_and_bound_decide_worse():
    bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    slower = result(ops_per_host_s=1000.0 * (1 - bound["ops_per_host_s"]) * 0.98)
    n, text = run(result(), slower)
    assert n == 1 and "worse" in verdicts(text)["ops_per_host_s"]
    faster = result(ops_per_host_s=2000.0, sim_lat_p99_us=100.0)
    assert run(result(), faster)[0] == 0
    within = result(sim_lat_p99_us=900.0 * (1 + bound["sim_lat_p99_us"] * 0.5))
    n, text = run(result(), within)
    assert n == 0 and "NOT exact" in verdicts(text)["sim_lat_p99_us"]


def test_wide_quartiles_make_a_host_metric_unresolved():
    noisy = result(ops_per_host_s=500.0)
    wl = noisy["workloads"]["ddss-rw"]
    wl["host_spread"]["drain_s_per_round"] = {
        "median": 1.0, "q1": 0.7, "q3": 1.3, "k": 5}
    n, text = run(result(), noisy)
    assert n == 0
    assert "unresolved" in verdicts(text)["ops_per_host_s"]
    # the spread of drain samples says nothing about a simulated metric
    assert " ok" in verdicts(text)["sim_ops_per_s"]


def test_more_failures_is_worse_and_exit_code(tmp_path):
    import json
    bad = copy.deepcopy(result())
    bad["workloads"]["ddss-rw"]["failed"] = 1
    n, text = run(result(), bad)
    assert n == 1 and "worse" in verdicts(text)["fail_ratio"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result()))
    b.write_text(json.dumps(bad))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a)]) == 2


def test_per_layer_table_lists_deltas():
    b = result()
    b["workloads"]["ddss-rw"]["per_layer"]["ddss.py_calls_per_op"] = 12.0
    _, text = run(result(), b)
    line = next(l for l in text.splitlines()
                if l.split()[:1] == ["ddss.py_calls_per_op"])
    assert "-50.00%" in line and "NOT exact" in line
