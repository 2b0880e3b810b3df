"""The figure suite collects one case per FIGURES row, every row's
result files are committed, and every EXPERIMENTS.md table whose lead
paragraph names ``<file>.json`` shows that file: its header cells are
column names, its first column holds first-column keys, and each cell
equals the JSON value at the decimals the cell shows.  A table may show
a subset; a row matches when some JSON row agrees on every column shown.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.figures import FIGURES

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"


def test_benchmarks_collect_one_case_per_figure():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "benchmarks/"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    cases = re.findall(r"^benchmarks/test_figures\.py::test_figure\[(.+)\]$",
                       proc.stdout, re.M)
    assert cases == list(FIGURES)


def test_result_files_are_committed():
    assert [name for fig in FIGURES.values() for name in fig.files
            if not (RESULTS / name).is_file()] == []


def markdown_tables(text):
    """``(lead paragraph, header, rows)`` per markdown table."""
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text)]
    for lead, block in zip(paragraphs, paragraphs[1:]):
        lines = block.splitlines()
        if all(line.startswith("|") for line in lines):
            cells = [[c.strip() for c in line.strip().strip("|").split("|")]
                     for line in lines]
            yield lead, cells[0], cells[2:]


def cited(lead):
    return sorted(set(re.findall(r"[\w-]+\.json", lead)))


def shows(value, cell):
    """Does markdown ``cell`` show JSON ``value`` at its own precision?"""
    text = cell.strip("*").strip()
    if isinstance(value, (str, bool)):
        return text == str(value)
    number = text.replace(",", "")
    return f"{value:.{len(number.partition('.')[2])}f}" == number


TABLES = list(markdown_tables((ROOT / "EXPERIMENTS.md").read_text(
    encoding="utf-8")))
CITED = [(cited(lead)[0], header, rows) for lead, header, rows in TABLES
         if len(cited(lead)) == 1]


def test_measured_tables_cite_one_result_file():
    """A **Measured** lead cites exactly one file and no lead cites two:
    the checker must know which file a table shows."""
    for lead, _, _ in TABLES:
        n = len(cited(lead))
        assert (n == 1 if "**Measured**" in lead else n <= 1), lead


def test_every_paper_figure_has_a_checked_table():
    cited = {name for name, _, _ in CITED}
    for fig in FIGURES.values():
        if fig.name.startswith("fig"):
            assert set(fig.files) <= cited, fig.name


@pytest.mark.parametrize("name, header, rows", CITED,
                         ids=[f"{t[0]}#{i}" for i, t in enumerate(CITED)])
def test_experiments_table_matches_its_json(name, header, rows):
    doc = json.loads((RESULTS / name).read_text(encoding="utf-8"))
    columns = doc["columns"]
    assert header[0] == columns[0], header
    assert set(header) <= set(columns), set(header) - set(columns)
    index = [columns.index(h) for h in header]
    for row in rows:
        keyed = [r for r in doc["rows"] if shows(r[0], row[0])]
        assert keyed, f"{name} has no row {row[0]!r}"
        drifts = [[(h, cell, r[i]) for h, i, cell in zip(header, index, row)
                   if not shows(r[i], cell)] for r in keyed]
        assert [] in drifts, (name, "(column, shown, json)",
                              min(drifts, key=len))
