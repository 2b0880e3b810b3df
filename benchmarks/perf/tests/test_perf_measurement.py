"""Regression tests for measurement bugs: each one is a way a benchmark
can report a number that does not measure what its name says."""

import time
import types

import pytest

from perf import harness
from perf.harness import Cell, CellResult, run_workload
from perf.workloads import (locks_zipf, txn_closed, verbs_small, webcache)

from conftest import reduced


def drain(cell):
    cell.build()
    cell.drain()
    return cell.finish()


def test_throughput_divides_by_last_completion_not_by_the_horizon():
    """``BENCH_txn.commit_per_s`` was 160.0 in every cell because it
    divided by the horizon.  Here OCC and 2PL separate, and the horizon
    is not in the formula at all."""
    occ = drain(txn_closed.TxnCell("occ-hot", 0, None, workers=8, txns=6))
    tpl = drain(txn_closed.TxnCell("2pl-hot", 0, None, workers=8, txns=6))
    assert occ.ops == tpl.ops == 48
    assert occ.ops / occ.makespan_us != tpl.ops / tpl.makespan_us

    short, long = (drain(locks_zipf.LockCell("ncosed", 0, None, n_clients=24,
                                            rounds=2, horizon_us=h))
                   for h in (50_000.0, 100_000.0))
    assert short.ops == long.ops == 48
    assert short.makespan_us == long.makespan_us < 50_000.0
    assert short.digest() == long.digest()


def test_timed_region_excludes_build_and_warm_up():
    class Slow(Cell):
        def build(self):
            end = time.process_time() + 0.05
            while time.process_time() < end:
                pass

        def drain(self):
            pass

        def finish(self):
            return CellResult(1, 1, 0, 1.0, [1.0])

    mod = types.SimpleNamespace(NAME="fake", LAYER="net", CELLS=("slow",),
                                make_cell=lambda n, s, r: Slow())
    cell = harness._run_round(mod, 0, None, None)["slow"]
    assert cell["build_s"] >= 0.05
    assert cell["drain_s"] < 0.01

    # the web-cache warm-up is load the servers see but the window does not
    cache = webcache.CacheCell("bcc", 0, None, sessions=16,
                               warmup_us=5_000.0, measure_us=5_000.0)
    cache.build()
    served_in_warmup = sum(s.served for s in cache.dc.servers)
    cache.drain()
    res = cache.finish()
    served = sum(s.served for s in cache.dc.servers)
    assert served_in_warmup > 0
    assert res.ops == served - served_in_warmup
    assert 0 < res.makespan_us <= 5_000.0


def test_latencies_are_exact_samples_one_per_op():
    res = drain(webcache.CacheCell("hybcc", 0, None, sessions=16,
                                   warmup_us=5_000.0, measure_us=10_000.0))
    assert len(res.latencies) == res.ops
    # a log2-bucket histogram could report at most ~64 distinct values
    assert len(set(res.latencies)) > 64


def test_p99_is_null_below_1000_samples_and_a_number_above(small_locks):
    out = run_workload(small_locks, 0, 0.0, 0.0)
    assert out["lat_samples"] == 96
    assert out["end_to_end"]["sim_lat_p99_us"] is None
    assert out["end_to_end"]["sim_lat_p50_us"] > 0
    assert out["per_layer"]["dlm.ncosed.sim_lat_p99_us"] is None

    few = reduced(verbs_small, ("few",),
                  lambda n, s, r: verbs_small._VerbCell(n, s, r, 8, 40, True))
    out = run_workload(few, 0, 0.0, 0.0)
    assert out["lat_samples"] == 1280
    assert out["end_to_end"]["sim_lat_p99_us"] > 0


def test_same_seed_same_digest_and_calls_other_seed_other_digest(small_txn):
    first = run_workload(small_txn, 5, 0.0, 0.0)
    again = run_workload(small_txn, 5, 0.0, 0.0)
    other = run_workload(small_txn, 6, 0.0, 0.0)
    digests = [{n: c["digest"] for n, c in r["cells"].items()}
               for r in (first, again, other)]
    assert digests[0] == digests[1]
    assert all(digests[0][n] != digests[2][n] for n in digests[0])
    assert again["end_to_end"]["py_calls_per_op"] == \
        first["end_to_end"]["py_calls_per_op"]
    sim = ("sim_ops_per_s", "sim_lat_p50_us", "fail_ratio")
    assert [first["end_to_end"][m] for m in sim] == \
        [again["end_to_end"][m] for m in sim]


def test_rounds_that_disagree_fail_the_run():
    calls = []

    class Drifting(Cell):
        def build(self):
            calls.append(1)

        def drain(self):
            pass

        def finish(self):
            return CellResult(1, 1, 0, float(len(calls) > 2), [1.0])

    mod = types.SimpleNamespace(NAME="fake", LAYER="net", CELLS=("c",),
                                make_cell=lambda n, s, r: Drifting())
    with pytest.raises(harness.CheckFailed) as err:
        run_workload(mod, 0, 0.0, 0.0)
    assert err.value.check == "deterministic-rounds"
