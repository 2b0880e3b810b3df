"""Packaged topo scenarios: oracles, kernels, CLI, sweep wiring."""

import json

import pytest

from repro.cli import main
from repro.scenarios import SCENARIOS, judged_run, lab_run


class TestShardCheck:
    def test_cross_kernel_trace_identity(self):
        runs = [lab_run("shard", kernel=kernel)
                for kernel in ("fast", "slow")]
        assert [r["verdict"] for r in runs] == ["ok", "ok"]
        assert runs[0]["trace_sha"] == runs[1]["trace_sha"]

    def test_exercises_bounce_and_migration(self):
        from repro.topo.scenarios import shard_check

        obs = shard_check(0, 8)
        assert obs.trace.select("shard.bounce")
        assert obs.trace.select("ddss.migrate")
        kinds = [e.fields["kind"]
                 for e in obs.trace.select("shard.rebalance")]
        assert "evict" in kinds and "restore" in kinds


class TestLabScenario:
    """The packaged datacenter-scale scenario (~3 s wall)."""

    @pytest.fixture(scope="class")
    def run(self):
        record, obs = judged_run("lab")
        return record, obs, record["stats"]

    def test_meets_scale_floor(self, run):
        _record, _obs, stats = run
        assert SCENARIOS["lab"].n_nodes == stats["nodes"] >= 100
        assert stats["racks"] >= 4
        assert stats["sessions"] >= 1_000_000

    def test_chaos_fault_survived_with_oracles_green(self, run):
        record, obs, stats = run
        assert obs.clean
        assert record["verdict"] == "ok" and record["violations"] == 0
        assert record["oracles"]["ha"]["checked"] > 0
        # the crash actually triggered failover work on every layer
        assert stats["evictions"] >= 1
        assert stats["lock_rehomes"] >= 1
        assert stats["ring_rebalances"] >= 1
        assert stats["units_moved"] >= 1
        assert stats["xrack_transfers"] > 0


class TestTopoCLI:
    def test_ls(self, capsys):
        assert main(["topo", "ls"]) == 0
        out = capsys.readouterr().out
        assert "lab" in out and "shard" in out

    def test_run_shard_json(self, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        assert main(["topo", "run", "shard",
                     "--json", str(path)]) == 0
        assert "verdict=ok" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "ok"
        assert doc["scenario"] == "shard" and doc["n_nodes"] == 8
        assert doc["sanitizers"] == []


class TestLabSweep:
    def test_topo16_packaged(self):
        from repro.lab.scenarios import SWEEPS, packaged_sweep

        assert "topo16" in SWEEPS
        sweep = packaged_sweep("topo16")
        assert sweep.grid["racks"] == [2, 4]
        assert sweep.grid["oversub"] == [1.0, 4.0]

    def test_topo_point_runs(self):
        from repro.lab.scenarios import topo_point

        r = topo_point(racks=2, oversub=1.0, seed=0)
        assert r["xrack_transfers"] > 0 and r["sim_now_us"] > 0
