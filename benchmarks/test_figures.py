"""One case per row of ``repro.bench.figures.FIGURES``: build once (the
output is the simulated numbers, not the wall clock), write each table
to ``benchmarks/results/<file>``, then check the shape.  Gate::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -q
    git diff --exit-code benchmarks/results/
"""

import json
import os

import pytest

from repro.bench.figures import FIGURES

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.mark.parametrize("fig", FIGURES.values(), ids=list(FIGURES))
def test_figure(benchmark, fig):
    tables = benchmark.pedantic(fig.build, rounds=1, iterations=1)
    for name, table in zip(fig.files, tables, strict=True):
        table.show()
        with open(os.path.join(RESULTS_DIR, name), "w") as fh:
            json.dump(table.to_dict(), fh, indent=2)
    fig.check(*tables)
