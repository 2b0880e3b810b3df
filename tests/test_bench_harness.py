"""Tests for the bench-table formatting helpers."""

import json
import os
from pathlib import Path

import pytest

from repro.bench import BenchTable, dump_tables, improvement_pct, replay
from repro.bench.harness import RENDERED


class TestBenchTable:
    def test_render_contains_data(self):
        t = BenchTable("Throughput", ["scheme", "tps"], paper_ref="Fig 6a")
        t.add("AC", 1234.5)
        t.add("HYBCC", 2468)
        out = t.render()
        assert "Throughput" in out
        assert "Fig 6a" in out
        assert "1,234.5" in out
        assert "2,468" in out
        assert "HYBCC" in out

    def test_row_arity_checked(self):
        t = BenchTable("x", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_save_json_roundtrip(self, tmp_path):
        t = BenchTable("x", ["a"], paper_ref="Fig 1")
        t.add(42)
        path = tmp_path / "out" / "t.json"
        t.save_json(str(path))
        data = json.loads(path.read_text())
        assert data == {"title": "x", "paper_ref": "Fig 1",
                        "columns": ["a"], "rows": [[42]]}

    def test_empty_table_renders(self):
        t = BenchTable("empty", ["col"])
        assert "empty" in t.render()

    def test_show_returns_serializable_dict(self, capsys):
        t = BenchTable("x", ["a"], paper_ref="Fig 1")
        t.add(42)
        shown = t.show()
        capsys.readouterr()
        assert shown == t.to_dict()
        json.dumps(shown)  # must survive a process boundary

    def test_from_dict_roundtrip(self):
        t = BenchTable("x", ["a", "b"], paper_ref="Fig 2")
        t.add(1, 2.5)
        clone = BenchTable.from_dict(t.to_dict())
        assert clone.render() == t.render()


class TestReplay:
    def test_replay_reregisters_tables(self, capsys):
        t = BenchTable("worker table", ["a"])
        t.add(7)
        before = len(RENDERED)
        rebuilt = replay([t.to_dict()])
        capsys.readouterr()
        assert len(RENDERED) == before + 1
        assert RENDERED[-1] == t.render()
        assert rebuilt[0].render() == t.render()


class TestDumpTables:
    def test_same_title_no_longer_overwrites(self, tmp_path):
        a = BenchTable("Fig 5: cascade", ["n"])
        a.add(1)
        b = BenchTable("Fig 5: cascade", ["n"])
        b.add(2)
        paths = dump_tables([a, b], str(tmp_path))
        assert len(paths) == len(set(paths)) == 2
        assert all(os.path.exists(p) for p in paths)
        dumped = sorted(json.loads(Path(p).read_text())["rows"][0][0]
                        for p in paths)
        assert dumped == [1, 2]

    def test_titles_slugified(self, tmp_path):
        t = BenchTable("Fig 3a: DDSS put() latency (us)", ["x"])
        (path,) = dump_tables([t], str(tmp_path))
        name = os.path.basename(path)
        assert name == "fig_3a_ddss_put_latency_us.json"


def test_improvement_pct():
    assert improvement_pct(135.0, 100.0) == pytest.approx(35.0)
    assert improvement_pct(50.0, 100.0) == pytest.approx(-50.0)
    with pytest.raises(ValueError):
        improvement_pct(1.0, 0.0)
