"""The correctness gate: a broken check must end the run with a
non-zero exit that names the check."""

import pytest

from perf import worker
from perf.harness import CellResult, CheckFailed
from perf.workloads import (ddss_rw, locks_zipf, topo_checked, txn_closed,
                            webcache)


def run_to_finish(cell):
    cell.build()
    cell.drain()
    return cell


def test_corrupted_account_sum_names_the_conservation_check(monkeypatch):
    cell = run_to_finish(txn_closed.TxnCell("occ-cold", 0, None,
                                            workers=4, txns=4))
    assert cell.finish().failed == 0
    monkeypatch.setattr(txn_closed, "ACCOUNT_START", 101)
    with pytest.raises(CheckFailed) as err:
        cell.finish()
    assert err.value.check == "txn-conservation"


def test_worker_exits_3_and_prints_the_check(monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise CheckFailed("txn-conservation", "account sum 6399 != 6400")

    monkeypatch.setattr(worker, "run_workload", broken)
    code = worker.main(["--workload", "txn-closed", "--seed", "0",
                        "--seconds", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert "CHECK FAILED txn-conservation" in captured.err
    assert captured.out == ""


def test_commits_plus_aborts_must_equal_transactions():
    cell = run_to_finish(txn_closed.TxnCell("2pl-hot", 0, None,
                                            workers=4, txns=4))
    cell.clients[0].commits += 1
    with pytest.raises(CheckFailed) as err:
        cell.finish()
    assert err.value.check == "txn-accounting"


def test_a_get_must_return_bytes_some_put_wrote():
    cell = run_to_finish(ddss_rw.DdssCell("delta-w50", 0, None,
                                          actors=8, ops=20))
    assert cell.finish().failed == 0
    cell = ddss_rw.DdssCell("null-w50", 0, None, actors=8, ops=20)
    cell.build()
    for allowed in cell.written:
        allowed.clear()  # now every payload is one "no put wrote"
    cell.drain()
    with pytest.raises(CheckFailed) as err:
        cell.finish()
    assert err.value.check == "ddss-payload"


def test_lock_accounting_and_ledger():
    cell = run_to_finish(locks_zipf.LockCell("alock", 0, None,
                                             n_clients=16, rounds=2))
    res = cell.finish()
    assert res.ops == res.attempted == 32 and res.failed == 0
    cell.grants -= 1
    with pytest.raises(CheckFailed) as err:
        cell.finish()
    assert err.value.check == "lock-accounting"
    cell.grants += 1
    cell.manager.holders[0] = {(1, locks_zipf.LockMode.EXCLUSIVE)}
    with pytest.raises(CheckFailed) as err:
        cell.finish()
    assert err.value.check == "lock-ledger"


def test_cache_requests_and_hit_ratio():
    cell = run_to_finish(webcache.CacheCell(
        "ac", 0, None, sessions=8, warmup_us=2_000.0, measure_us=4_000.0))
    res = cell.finish()
    assert 0 <= res.counters["cache.hits"] <= res.counters["cache.lookups"]
    cell.dc.scheme.local_hits -= 10_000
    with pytest.raises(CheckFailed) as err:
        cell.finish()
    assert err.value.check == "cache-hit-ratio"
    cell.lat.clear()
    with pytest.raises(CheckFailed) as err:
        cell.finish()
    assert err.value.check == "cache-requests"


@pytest.fixture(scope="module")
def small_topo():
    """lab and lab-bare at 2 racks x 4 hosts."""
    out = {}
    for name in topo_checked.CELLS:
        cell = run_to_finish(topo_checked.TopoCell(
            name, 0, None, racks=2, hosts=4, batches=4, horizon_us=24_000.0,
            crash_us=3_000.0, restart_us=12_000.0))
        out[name] = cell
    return out


def test_topo_lab_is_checked_and_agrees_with_lab_bare(small_topo):
    results = {n: c.finish() for n, c in small_topo.items()}
    lab = results["lab"]
    assert lab.failed == 0 and lab.ops == 4 * 4 * 7
    assert lab.facts["evictions"] >= 1 and lab.facts["lock_rehomes"] >= 1
    assert len(lab.facts["trace_sha"]) == 16
    assert lab.counters["obs.events"] > 0
    assert "obs.events" not in results["lab-bare"].counters
    topo_checked.cross_check(results)
    results["lab-bare"].facts["xrack_bytes"] += 1
    with pytest.raises(CheckFailed) as err:
        topo_checked.cross_check(results)
    assert err.value.check == "obs-changes-results"


def test_topo_violations_and_short_ring_are_named(small_topo):
    lab = small_topo["lab"]
    lab.violations = [{"oracle": "ha", "msg": "ha.expect failover unmet"}]
    with pytest.raises(CheckFailed) as err:
        lab.finish()
    assert err.value.check == "oracle-violations"
    lab.violations = []
    lab.view.emitted += 1  # one event fell off the ring
    with pytest.raises(CheckFailed) as err:
        lab.finish()
    assert err.value.check == "trace-complete"
    lab.view.emitted -= 1


def test_zero_ops_is_a_failure():
    from perf import harness
    import types
    from perf.harness import Cell

    class Idle(Cell):
        def build(self):
            pass

        def drain(self):
            pass

        def finish(self):
            return CellResult(0, 1, 1, 0.0, [])

    mod = types.SimpleNamespace(NAME="fake", LAYER="net", CELLS=("c",),
                                make_cell=lambda n, s, r: Idle())
    with pytest.raises(CheckFailed) as err:
        harness.run_workload(mod, 0, 0.0, 0.0)
    assert err.value.check == "no-ops"
