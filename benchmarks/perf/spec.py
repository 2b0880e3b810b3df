"""The metric tables.  ``BENCHMARK.json`` at the repo root is the one
place a metric's name, unit, direction and bound are written down; the
clock is a function of the name."""

from __future__ import annotations

import json
import os
from typing import Dict, List

__all__ = ["load", "clock_of", "fmt"]

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def clock_of(name: str) -> str:
    """``host`` (CPU seconds of this box, noisy), ``sim`` (simulated
    time, exact) or ``count`` (events counted by the program, exact)."""
    if "host" in name or name in ("setup_s", "peak_rss_mb") \
            or name.endswith("overhead_ratio"):
        return "host"
    if name.startswith("sim_") or ".sim_" in name:
        return "sim"
    return "count"


def fmt(value) -> str:
    """A metric value as printed in reports (``null`` = not reportable)."""
    return "null" if value is None else f"{value:.6g}"
