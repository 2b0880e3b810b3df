"""Benchmark harness helpers (tables, ASCII charts, result capture)
and the wall-clock engine suite (:mod:`repro.bench.engine`)."""

from repro.bench.engine import run_suite
from repro.bench.harness import (BenchTable, check_regression, dump_tables,
                                 format_series, improvement_pct, replay,
                                 write_report)
from repro.bench.plot import ascii_bars, ascii_chart

__all__ = ["BenchTable", "ascii_bars", "ascii_chart", "check_regression",
           "dump_tables", "format_series", "improvement_pct", "replay",
           "run_suite", "write_report"]
