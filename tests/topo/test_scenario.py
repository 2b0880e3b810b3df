"""Packaged topo scenarios: oracles, kernels, CLI, sweep wiring."""

import json

import pytest

from repro.cli import main
from repro.scenarios import SCENARIOS, lab_run


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

    @pytest.fixture
    def run(self, lab_product):
        record, obs = lab_product
        return record, obs, record["stats"]

    def test_meets_scale_floor(self, run):
        _record, _obs, stats = run
        assert SCENARIOS["lab"].n_nodes == stats["nodes"] >= 100
        assert stats["racks"] >= 4
        assert stats["sessions"] >= 1_000_000

    def test_chaos_fault_survived_with_oracles_green(self, run):
        record, obs, stats = run
        assert not obs.violations()
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
        assert main(["check", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert {"lab", "shard"} <= set(names)

    def test_run_shard_json(self, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        assert main(["check", "run", "shard",
                     "--json", str(path)]) == 0
        assert "verdict=ok" in capsys.readouterr().out
        doc = json.loads(path.read_text())["results"][0]
        assert doc["verdict"] == "ok"
        assert doc["scenario"] == "shard" and doc["n_nodes"] == 8
        assert doc["violations"] == 0
