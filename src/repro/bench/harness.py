"""Paper-style result tables for the benchmark suite.

Every figure builds :class:`BenchTable` objects, prints them (so they land
in the figure suite's terminal summary) and saves them as JSON under
``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["BenchTable", "RENDERED", "improvement_pct"]

#: every table ever ``show()``-n, in order — the benchmark conftest
#: replays these in the pytest terminal summary so they survive output
#: capture and land in bench_output.txt
RENDERED: List[str] = []


def improvement_pct(new: float, old: float) -> float:
    """Percent improvement of ``new`` over ``old``."""
    if old == 0:
        raise ValueError("baseline is zero")
    return 100.0 * (new / old - 1.0)


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
        """Print + register the table; returns :meth:`to_dict`."""
        rendered = self.render()
        RENDERED.append(rendered)
        print()
        print(rendered)
        return self.to_dict()

    def to_dict(self) -> Dict[str, object]:
        return {"title": self.title, "paper_ref": self.paper_ref,
                "columns": self.columns, "rows": self.rows}
