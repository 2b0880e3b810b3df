"""Tests for ASCII bars and the CLI wiring."""

import pytest

from repro.bench.plot import ascii_bars
from repro.cli import EXPERIMENTS, main


class TestAsciiBars:
    def test_bar_lengths_proportional(self):
        out = ascii_bars({"big": 100.0, "small": 25.0}, width=40)
        lines = {l.split("|")[0].strip(): l for l in out.splitlines()}
        assert lines["big"].count("#") == 40
        assert lines["small"].count("#") == 10

    def test_bad_input(self):
        with pytest.raises(ValueError):
            ascii_bars({})
        with pytest.raises(ValueError):
            ascii_bars({"x": 0.0})


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in ("fig3a", "fig5a", "fig8a", "reconfig"):
            assert exp in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_covers_every_paper_figure(self):
        assert {"fig3a", "fig3b", "fig5a", "fig5b", "fig6",
                "fig8a", "fig8b"} <= set(EXPERIMENTS)

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "flowctl"]) == 0
        out = capsys.readouterr().out
        assert "Flow control" in out
        assert "speedup" in out

    @pytest.mark.parametrize("argv", [["bench"], ["locks", "bench"],
                                      ["topo", "bench"], ["txn", "bench"],
                                      ["lab", "bench"]], ids=" ".join)
    def test_removed_bench_verbs_are_usage_errors(self, argv, capsys):
        """The simulated numbers live in ``benchmarks/`` figure tests,
        the host cost in ``benchmarks/perf``; no verb is left behind."""
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
