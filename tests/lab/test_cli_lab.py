"""The ``repro lab`` CLI: ls, run, resume, show, error paths."""

import json
import os

from repro.cli import main
from repro.lab.scenarios import SWEEPS


class TestLabCli:
    def test_ls_lists_packaged_sweeps(self, capsys):
        assert main(["lab", "ls"]) == 0
        out = capsys.readouterr().out
        for name in SWEEPS:
            assert name in out

    def test_run_show_resume_cycle(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["lab", "run", "smoke8", "--workers", "0",
                     "--store-root", root, "--no-progress",
                     "--no-tables"]) == 0
        out = capsys.readouterr().out
        assert "8 ran, 0 skipped, 0 failed" in out
        assert os.path.exists(os.path.join(root, "smoke8",
                                           "records.jsonl"))

        assert main(["lab", "resume", "smoke8", "--store-root", root,
                     "--no-progress", "--no-tables"]) == 0
        out = capsys.readouterr().out
        assert "0 ran, 8 skipped" in out

        assert main(["lab", "show", "smoke8",
                     "--store-root", root]) == 0
        out = capsys.readouterr().out
        assert "lab sweep: smoke8" in out
        assert "8/8 runs complete" in out

    def test_run_writes_report_json(self, tmp_path, capsys):
        root = str(tmp_path)
        report_path = str(tmp_path / "report.json")
        assert main(["lab", "run", "smoke8", "--store-root", root,
                     "--no-progress", "--no-tables",
                     "--report", report_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["completed"] == 8
        assert report["metrics"]["counters"]["lab.runs.completed"] == 8

    def test_show_from_store_directory(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["lab", "run", "smoke8", "--store-root", root,
                     "--no-progress", "--no-tables"]) == 0
        capsys.readouterr()
        store_dir = os.path.join(root, "smoke8")
        assert main(["lab", "show", store_dir]) == 0
        assert "lab sweep: smoke8" in capsys.readouterr().out

    def test_ls_reports_on_disk_state(self, tmp_path, capsys):
        root = str(tmp_path)
        main(["lab", "run", "smoke8", "--store-root", root,
              "--no-progress", "--no-tables"])
        capsys.readouterr()
        assert main(["lab", "ls", "--store-root", root]) == 0
        assert "[8/8 complete on disk]" in capsys.readouterr().out

    def test_unknown_sweep_fails(self, tmp_path, capsys):
        assert main(["lab", "run", "nope", "--store-root",
                     str(tmp_path), "--no-progress"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_resume_without_store_fails(self, tmp_path, capsys):
        assert main(["lab", "resume", "smoke8", "--store-root",
                     str(tmp_path), "--no-progress"]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_show_empty_store_fails(self, tmp_path, capsys):
        assert main(["lab", "show", "smoke8",
                     "--store-root", str(tmp_path)]) == 1
        assert "no completed runs" in capsys.readouterr().err
