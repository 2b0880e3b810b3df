"""Packaged topo scenarios: oracles, kernels, CLI, sweep wiring."""

import json

import pytest

from repro.cli import main
from repro.verify import CHECKS, canonical_trace_sha, run_check
from repro.verify.suites import _kernel


class TestShardCheck:
    def test_registered_and_green(self):
        assert "shard" in CHECKS
        out = run_check("shard", seed=0)
        assert out["verdict"] == "ok"
        assert out["events"] > 0

    def test_cross_kernel_trace_identity(self):
        from repro.topo.scenarios import shard_check

        shas = set()
        for kernel in ("fast", "slow"):
            with _kernel(kernel):
                obs = shard_check(0, 8)
            assert obs.clean
            shas.add(canonical_trace_sha(obs.trace_dict()))
        assert len(shas) == 1

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
        from repro.topo.scenarios import build_topo_scenario

        return build_topo_scenario(seed=0)

    def test_meets_scale_floor(self, run):
        obs, stats = run
        assert stats["nodes"] >= 100
        assert stats["racks"] >= 4
        assert stats["sessions"] >= 1_000_000

    def test_chaos_fault_survived_with_oracles_green(self, run):
        from repro.verify import ALL_ORACLES
        from repro.verify.trace import TraceView, replay

        obs, stats = run
        assert obs.clean
        view = TraceView.from_obs(obs).require_complete()
        oracles = [f() for f in ALL_ORACLES]
        assert replay(view, oracles) == []
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
        assert "lab" in out and "shard-check" in out

    def test_run_shard_check_json(self, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        assert main(["topo", "run", "shard-check",
                     "--json", str(path)]) == 0
        assert "verdict=ok" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "ok"
        assert doc["sanitizers"] == []

    def test_bench_deterministic_and_gated(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["topo", "bench", "--out", str(a),
                     "--no-archive"]) == 0
        assert main(["topo", "bench", "--out", str(b), "--no-archive",
                     "--baseline", str(a)]) == 0
        assert a.read_text() == b.read_text()
        out = capsys.readouterr().out
        assert "regression gate passed" in out
        doc = json.loads(a.read_text())
        res = doc["results"]
        assert res["verb_latency"]["cross_rack_us"] > \
            res["verb_latency"]["intra_rack_us"]
        assert res["lock_throughput"]["speedup"] > 1.0


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
