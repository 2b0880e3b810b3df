"""The `repro txn` CLI surface: run verdicts."""

import json

from repro.cli import main


class TestTxnRun:
    def test_run_prints_verdict_and_writes_json(self, tmp_path, capsys):
        path = tmp_path / "verdict-txn.json"
        assert main(["txn", "run", "--variant", "occ",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict=ok" in out
        assert "conserved=True" in out
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "ok"
        assert doc["sanitizers"] == []
        assert doc["oracles"]["txn"]["checked"] > 0
        assert doc["stats"]["conserved"] is True

    def test_run_slow_kernel_2pl(self, capsys):
        assert main(["txn", "run", "--variant", "2pl",
                     "--kernel", "slow"]) == 0
        assert "verdict=ok" in capsys.readouterr().out

    def test_check_list_includes_txn_scenarios(self, capsys):
        assert main(["check", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert {"txn-occ", "txn-2pl", "txn-mixed"} <= set(names)
