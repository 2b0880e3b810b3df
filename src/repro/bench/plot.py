"""ASCII bar charts for bench output (paper-figure flavour).

Terminal-friendly rendering so ``bench_output.txt`` carries not just
tables but the *shape* of a figure, without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["ascii_bars"]


def ascii_bars(values: Dict[str, float], width: int = 44,
               title: str = "", fmt: str = "{:,.1f}") -> str:
    """Horizontal bar chart."""
    if not values:
        raise ValueError("no values to plot")
    peak = max(values.values())
    if peak <= 0:
        raise ValueError("all values non-positive")
    name_w = max(len(k) for k in values)
    lines = [title] if title else []
    for name, value in values.items():
        bar = "#" * max(1, int(round(value / peak * width)))
        lines.append(f"{name:>{name_w}} | {bar} {fmt.format(value)}")
    return "\n".join(lines)
