"""Tests for the bench-table formatting helpers."""

import json

import pytest

from repro.bench import BenchTable, improvement_pct


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

    def test_json_roundtrip(self):
        t = BenchTable("x", ["a"], paper_ref="Fig 1")
        t.add(42)
        data = json.loads(json.dumps(t.to_dict()))
        assert data == {"title": "x", "paper_ref": "Fig 1",
                        "columns": ["a"], "rows": [[42]]}
        assert BenchTable.from_dict(data).to_dict() == data

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


def test_improvement_pct():
    assert improvement_pct(135.0, 100.0) == pytest.approx(35.0)
    assert improvement_pct(50.0, 100.0) == pytest.approx(-50.0)
    with pytest.raises(ValueError):
        improvement_pct(1.0, 0.0)
