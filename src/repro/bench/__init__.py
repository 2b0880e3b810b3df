"""Paper-style result tables and ASCII bars for the figure benchmarks
under ``benchmarks/`` and the ``repro run`` quick figures."""

from repro.bench.harness import (BenchTable, dump_tables, improvement_pct,
                                 replay)
from repro.bench.plot import ascii_bars

__all__ = ["BenchTable", "ascii_bars", "dump_tables", "improvement_pct",
           "replay"]
