"""Paper-style result tables, and the paper's figures built from them.

:class:`BenchTable` is the table every figure, lab fold and example
prints and saves; :data:`repro.bench.figures.FIGURES` holds one row per
paper figure (import it from there: it pulls in every subsystem).
"""

from repro.bench.harness import (BenchTable, dump_tables, improvement_pct,
                                 replay)

__all__ = ["BenchTable", "dump_tables", "improvement_pct", "replay"]
