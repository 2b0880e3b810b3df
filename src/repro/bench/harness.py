"""Paper-style result tables for the benchmark suite.

Every figure/table bench builds a :class:`BenchTable`, prints it (so it
lands in ``bench_output.txt``) and can dump it as JSON next to the
pytest-benchmark data for later inspection.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["BenchTable", "RENDERED", "check_regression", "dump_tables",
           "format_series", "improvement_pct", "replay", "write_report"]

#: every table ever ``show()``-n, in order — the benchmark conftest
#: replays these in the pytest terminal summary so they survive output
#: capture and land in bench_output.txt
RENDERED: List[str] = []


def improvement_pct(new: float, old: float) -> float:
    """Percent improvement of ``new`` over ``old``."""
    if old == 0:
        raise ValueError("baseline is zero")
    return 100.0 * (new / old - 1.0)


def check_regression(current: Dict[str, object],
                     baseline: Optional[Dict[str, object]],
                     guarded: Iterable[Tuple[str, str]],
                     threshold: float = 0.25,
                     decimals: int = 1) -> List[str]:
    """CI gate: every ``results.<bench>.<key>`` rate named in ``guarded``
    must stay within ``threshold`` of the baseline's.

    Returns human-readable failure lines (empty = pass), rates printed
    with ``decimals`` places.  A ``None`` or structurally alien baseline
    skips the gate — first runs and schema bumps must not brick CI.
    """
    if not isinstance(baseline, dict):
        return []
    base_results = baseline.get("results")
    cur_results = current.get("results", {})
    if not isinstance(base_results, dict):
        return []
    failures = []
    for bench, key in guarded:
        base = base_results.get(bench, {})
        cur = cur_results.get(bench, {})
        if not (isinstance(base, dict) and isinstance(cur, dict)):
            continue
        b, c = base.get(key), cur.get(key)
        if not (isinstance(b, (int, float)) and isinstance(c, (int, float))
                and b > 0):
            continue
        if c < b * (1.0 - threshold):
            failures.append(
                f"{bench}.{key}: {c:,.{decimals}f}/s is "
                f"{(1 - c / b) * 100:.1f}% below baseline "
                f"{b:,.{decimals}f}/s (threshold {threshold * 100:.0f}%)")
    return failures


def write_report(report: Dict[str, object], out_path: str,
                 results_dir: Optional[str], prefix: str) -> List[str]:
    """Write ``out_path`` plus, unless ``results_dir`` is None, a
    timestamped ``<prefix>-<stamp>.json`` archive copy; returns paths."""
    paths = []
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    paths.append(out_path)
    if results_dir is not None:
        os.makedirs(results_dir, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        archive = os.path.join(results_dir, f"{prefix}-{stamp}.json")
        with open(archive, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(archive)
    return paths


def format_series(xs: Sequence[float], ys: Sequence[float],
                  fmt: str = "{:.1f}") -> str:
    return "  ".join(f"{x}:{fmt.format(y)}" for x, y in zip(xs, ys))


class BenchTable:
    """Column-aligned table with a title and a paper reference."""

    def __init__(self, title: str, columns: Sequence[str],
                 paper_ref: str = ""):
        self.title = title
        self.columns = list(columns)
        self.paper_ref = paper_ref
        self.rows: List[List[object]] = []

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, expected {len(self.columns)}")
        self.rows.append(list(values))

    def _cell(self, v) -> str:
        if isinstance(v, float):
            return f"{v:,.1f}"
        if isinstance(v, int):
            return f"{v:,}"
        return str(v)

    def render(self) -> str:
        cells = [[self._cell(v) for v in row] for row in self.rows]
        widths = [max(len(col), *(len(r[i]) for r in cells))
                  if cells else len(col)
                  for i, col in enumerate(self.columns)]
        lines = []
        bar = "=" * (sum(widths) + 2 * (len(widths) - 1))
        lines.append(bar)
        header = self.title
        if self.paper_ref:
            header += f"   [{self.paper_ref}]"
        lines.append(header)
        lines.append(bar)
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(self.columns, widths)))
        lines.append("-" * len(bar))
        for row in cells:
            lines.append("  ".join(c.rjust(w)
                                   for c, w in zip(row, widths)))
        lines.append(bar)
        return "\n".join(lines)

    def show(self) -> Dict[str, object]:
        """Print + register the table; returns :meth:`to_dict`.

        The return value is the table's serializable form so callers in
        worker processes can ship the table across a process boundary
        (module-global ``RENDERED`` only exists per process) and the
        parent can re-register it with :func:`replay`.
        """
        rendered = self.render()
        RENDERED.append(rendered)
        print()
        print(rendered)
        return self.to_dict()

    def to_dict(self) -> Dict[str, object]:
        return {"title": self.title, "paper_ref": self.paper_ref,
                "columns": self.columns, "rows": self.rows}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchTable":
        table = cls(data["title"], data["columns"],
                    paper_ref=data.get("paper_ref", ""))
        for row in data.get("rows", []):
            table.add(*row)
        return table

    def save_json(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def replay(tables: Iterable[Dict[str, object]]) -> List[BenchTable]:
    """Rebuild + ``show()`` tables serialized by another process.

    Entry point for the lab merge step: worker processes return
    ``table.show()`` dicts in their run records, and the parent replays
    them here so they land in this process's ``RENDERED`` (and therefore
    in the pytest terminal summary / bench_output.txt).
    """
    rebuilt = []
    for data in tables:
        table = BenchTable.from_dict(data)
        table.show()
        rebuilt.append(table)
    return rebuilt


def _slug(title: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
    return slug or "table"


def dump_tables(tables: Iterable[BenchTable], out_dir: str) -> List[str]:
    """Write one ``<title-slug>.json`` per table under ``out_dir``.

    Two tables with the same title get ``-2``, ``-3``… suffixes instead
    of silently overwriting each other (the old per-title dump path lost
    all but the last table of a multi-table figure).
    """
    os.makedirs(out_dir, exist_ok=True)
    used: Dict[str, int] = {}
    paths = []
    for table in tables:
        base = _slug(table.title)
        n = used.get(base, 0) + 1
        used[base] = n
        name = base if n == 1 else f"{base}-{n}"
        path = os.path.join(out_dir, f"{name}.json")
        table.save_json(path)
        paths.append(path)
    return paths
