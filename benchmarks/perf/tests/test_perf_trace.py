"""Profile bucketing and span arithmetic on synthetic inputs."""

import json

from perf.trace import (LAYERS, SpanRecorder, bucket_profile, layer_of,
                        self_times)

REPRO = "/x/src/repro"
DRIVER = "/x/benchmarks/perf"


def test_layer_of_buckets_by_package_directory():
    assert layer_of(f"{REPRO}/sim/core.py", REPRO, DRIVER) == "sim"
    assert layer_of(f"{REPRO}/dlm/ncosed.py", REPRO, DRIVER) == "dlm"
    # not a layer of its own: lab, cli, errors land in other
    assert layer_of(f"{REPRO}/lab/runner.py", REPRO, DRIVER) == "other"
    assert layer_of(f"{REPRO}/errors.py", REPRO, DRIVER) == "other"
    assert layer_of(f"{DRIVER}/workloads/ddss_rw.py", REPRO, DRIVER) == "driver"
    assert layer_of("/usr/lib/python3/heapq.py", REPRO, DRIVER) == "other"
    assert layer_of("~", REPRO, DRIVER) is None


def test_builtins_are_charged_to_their_callers():
    step = (f"{REPRO}/sim/core.py", 10, "step")
    post = (f"{REPRO}/net/nic.py", 20, "_post_verb")
    client = (f"{DRIVER}/workloads/verbs_small.py", 30, "_client")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    disable = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        step: (100, 100, 1.0, 3.0, {}),
        post: (40, 40, 0.5, 0.6, {client: (40, 40, 0.5, 0.6)}),
        client: (8, 8, 0.25, 4.0, {}),
        # 70 pops from the kernel, 30 from the NIC
        heappop: (100, 100, 0.2, 0.2, {step: (70, 70, 0.15, 0.15),
                                       post: (30, 30, 0.05, 0.05)}),
        disable: (1, 1, 0.0, 0.0, {}),
    }
    b = bucket_profile(stats, REPRO, DRIVER)
    assert set(b) == set(LAYERS)
    assert b["sim"][0] == 170 and abs(b["sim"][1] - 1.15) < 1e-12
    assert b["net"][0] == 70 and abs(b["net"][1] - 0.55) < 1e-12
    assert b["driver"] == [8, 0.25]
    assert b["other"][0] == 1 and abs(b["other"][1]) < 1e-12
    assert sum(v[0] for v in b.values()) == 249  # == Stats.total_calls


def test_span_self_time_is_duration_minus_children(tmp_path):
    rec = SpanRecorder("topo-checked")
    rec.cell = "lab"
    batch = rec.begin("topo", "batch", 100.0)
    lock = rec.begin("shard", "lock-round", 130.0, batch)
    rec.end(lock, 150.0)
    put = rec.begin("ddss", "put", 150.0, batch)
    rec.end(put, 160.0)
    cut_off = rec.begin("ddss", "get", 160.0, batch)  # never ends
    rec.end(batch, 200.0)
    spans = list(rec.spans())
    assert [s["parent"] for s in spans] == [None, batch, batch, batch]
    assert spans[0]["cell"] == "lab" and spans[0]["workload"] == "topo-checked"
    own = self_times(spans)
    assert own[batch][0] == 100.0 - 20.0 - 10.0
    assert own[lock][0] == 20.0 and own[put][0] == 10.0
    assert cut_off not in own
    host = {s["id"]: s["host_end_s"] - s["host_start_s"]
            for s in spans if s["host_end_s"] is not None}
    assert abs(own[batch][1] - (host[batch] - host[lock] - host[put])) < 1e-9

    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == spans
    assert set(rows[0]) == {"id", "parent", "workload", "cell", "layer",
                            "name", "sim_start_us", "sim_end_us",
                            "host_start_s", "host_end_s"}
