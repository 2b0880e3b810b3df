"""BENCHMARK.json against the contract it is written to, and against
the metrics the code computes."""

import importlib
import re

from perf import harness, spec
from perf.trace import LAYERS
from perf.workloads import MODULES, topo_checked

BENCH = spec.load()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_contract_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/perf"]
    assert BENCH["command"][-1].startswith(BENCH["paths"][0] + "/")
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert names[:len(MODULES)] == list(MODULES)


def test_setup_s_is_declared_with_the_largest_bound():
    by_name = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_declared_per_layer_metrics_are_exactly_the_computed_ones():
    expect = {f"{layer}.{kind}" for layer in LAYERS
              for kind in ("py_calls_per_op", "host_self_share")}
    expect |= set(harness.RATIOS)
    expect |= {"datacenter.queue_peak", "trace_overhead_ratio"}
    expect |= {"verify.replay_host_us_per_event",
               "verify.sha_host_us_per_event",
               "obs.export_host_us_per_event", "obs.record_overhead_ratio"}
    for mod_name in MODULES.values():
        mod = importlib.import_module(f"perf.workloads.{mod_name}")
        for cell in mod.CELLS:
            expect.add(f"{mod.LAYER}.{cell}.host_us_per_op")
            expect.add(f"{mod.LAYER}.{cell}.sim_ops_per_s")
            if mod.LAYER in harness.P99_LAYERS:
                expect.add(f"{mod.LAYER}.{cell}.sim_lat_p99_us")
    assert {m["name"] for m in BENCH["per_layer"]} == expect
    assert len(expect) == 119


def test_phase_metric_names_match(small_locks):
    rounds = [{"lab": {"phases": {"run": 2.0, "replay": 1.0, "sha": 0.5,
                                  "export": 0.25},
                       "result": harness.CellResult(
                           1, 1, 0, 1.0, [], {"obs.events": 1000})},
               "lab-bare": {"phases": {"run": 1.6}}}]
    got = topo_checked.phase_metrics(rounds)
    assert got["obs.record_overhead_ratio"] == 1.25
    assert got["verify.replay_host_us_per_event"] == 1000.0
    declared = {m["name"] for m in BENCH["per_layer"]}
    assert set(got) <= declared
    out = harness.run_workload(small_locks, 0, 0.0, 0.0)
    assert set(out["per_layer"]) <= declared
    assert set(out["end_to_end"]) == \
        {m["name"] for m in BENCH["end_to_end"]} | {"fail_ratio"}


def test_clock_of():
    clocks = {m["name"]: spec.clock_of(m["name"])
              for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert clocks["setup_s"] == clocks["ops_per_host_s"] == "host"
    assert clocks["peak_rss_mb"] == clocks["trace_overhead_ratio"] == "host"
    assert clocks["sim.host_self_share"] == "host"
    assert clocks["dlm.mcs.host_us_per_op"] == "host"
    assert clocks["sim_ops_per_s"] == clocks["txn.occ-hot.sim_lat_p99_us"] \
        == "sim"
    assert clocks["py_calls_per_op"] == clocks["net.verbs_per_op"] == "count"
    assert clocks["sim.py_calls_per_op"] == "count"
    assert clocks["sim.agenda_entries_per_op"] == "count"
