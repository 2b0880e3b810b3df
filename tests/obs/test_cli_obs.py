"""The ``repro obs`` CLI subcommand: list, run, JSON export, errors."""

import json

from repro.cli import main
from repro.scenarios import SCENARIOS


class TestObsCli:
    def test_list_scenarios(self, capsys):
        assert main(["obs", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(SCENARIOS)

    def test_run_prints_summary(self, capsys):
        assert main(["obs", "run", "ncosed"]) == 0
        out = capsys.readouterr().out
        assert "[ncosed] sim time:" in out
        assert "lock.grant" in out
        assert "violation(s)" in out
        assert "verdict=ok" in out

    def test_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "export.json"
        assert main(["obs", "run", "flow", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["metrics"]["counters"]["fabric.transfers"] > 0
        assert "flow.credit.take" in data["events"]["by_type"]

    def test_seed_changes_export(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["obs", "run", "ncosed", "--json", str(a)]) == 0
        assert main(["obs", "run", "ncosed", "--seed", "9",
                     "--json", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_unknown_scenario_fails(self, capsys):
        assert main(["obs", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_without_scenario_fails(self, capsys):
        assert main(["obs", "run"]) == 2
        assert "requires a scenario" in capsys.readouterr().err
