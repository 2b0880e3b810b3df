"""``repro list`` / ``repro run`` over the FIGURES table, and the
retired bench verbs."""

import pytest

from repro.bench.figures import FIGURES
from repro.cli import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_registry_covers_every_paper_figure(self):
        assert {"fig3a", "fig3b", "fig5", "fig6", "fig8a",
                "fig8b"} <= set(FIGURES)

    def test_run_quick_experiment(self, capsys):
        """The published flow-control figure takes well under a second."""
        assert main(["run", "flowctl"]) == 0
        out = capsys.readouterr().out
        assert "Flow-control bandwidth" in out
        assert "speedup" in out

    def test_failed_shape_check_exits_1(self, monkeypatch, capsys):
        def fail(table):
            raise AssertionError("shape does not hold")

        monkeypatch.setitem(FIGURES, "flowctl",
                            FIGURES["flowctl"]._replace(check=fail))
        assert main(["run", "flowctl"]) == 1
        assert "shape does not hold" in capsys.readouterr().err

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
