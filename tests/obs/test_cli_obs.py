"""One row's observability export, ``repro check run <row> --export``:
listing, the exported document, errors."""

import json

import pytest

from repro.cli import main
from repro.scenarios import SCENARIOS
from repro.verify import check_trace


class TestObsCli:
    def test_list_scenarios(self, capsys):
        assert main(["check", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(SCENARIOS)

    def test_run_prints_summary(self, tmp_path, capsys):
        path = tmp_path / "ncosed.json"
        assert main(["check", "run", "ncosed", "--export", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[ncosed] seed=0 events=" in out
        assert "verdict=ok" in out
        assert f"wrote {path}" in out

    def test_run_writes_json(self, tmp_path, capsys):
        """One document: the trace, the metrics and the verdict record,
        which ``check trace`` replays unchanged."""
        path = tmp_path / "flow.json"
        assert main(["check", "run", "flow", "--export", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-trace-v1"
        assert doc["metrics"]["counters"]["fabric.transfers"] > 0
        assert any(ev[2] == "flow.credit.take" for ev in doc["events"])
        record = doc["record"]
        assert record["verdict"] == "ok"
        assert record["oracles"]["flow"]["checked"] > 0
        again = check_trace(str(path))
        assert again["trace_sha"] == record["trace_sha"]
        assert again["oracles"] == record["oracles"]

    def test_seed_changes_export(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", "run", "ncosed", "--export", str(a)]) == 0
        assert main(["check", "run", "ncosed", "--seed", "9",
                     "--export", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_unknown_scenario_fails(self, tmp_path, capsys):
        assert main(["check", "run", "nope",
                     "--export", str(tmp_path / "x.json")]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_without_scenario_fails(self, tmp_path, capsys):
        self.test_export_needs_exactly_one_run(tmp_path, capsys, [])

    @pytest.mark.parametrize("names", [["all"], ["ncosed", "flow"],
                                       ["flow", "flow"]],
                             ids=["all", "two", "twice"])
    def test_export_needs_exactly_one_run(self, tmp_path, capsys, names):
        path = tmp_path / "x.json"
        assert main(["check", "run", *names, "--export", str(path)]) == 2
        assert "--export writes one run's document" in (
            capsys.readouterr().err)
        assert not path.exists()
