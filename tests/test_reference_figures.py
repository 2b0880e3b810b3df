"""The paper's figures rebuilt on the reference kernel.

Every table of ``benchmarks/results/`` is written by the product kernel
(``benchmarks/test_figures.py``).  A figure number that hangs on the
order of two same-instant agenda entries would read differently on the
reference kernel of ``tests/sim/reference_kernel.py``, so each row here
is built there and every table must equal the committed file.  Two rows
stay out: ``lock-arena``, whose crash column is a proven tie
(``LOCK_BENCH_TIES`` in ``tests/verify/test_known_ties.py``), and
``fig6``, seven of whose cells differ (its first is proven a tie by
``test_fig6_cell_starts_at_a_same_instant_pair`` there) and which takes
minutes on the reference.

Tier-1 builds two sub-second rows; ``REPRO_REFERENCE_FIGURES=1`` (CI's
``figures`` job) builds all fourteen, about 30 s on two cores.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench.figures import FIGURES

from tests.sim.reference_kernel import pin_kernel

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks/results"
ALL = os.environ.get("REPRO_REFERENCE_FIGURES") == "1"
ROWS = ([name for name in FIGURES if name not in ("lock-arena", "fig6")]
        if ALL else ["fig3a", "sdp"])


@pytest.mark.parametrize("name", ROWS)
def test_row_on_the_reference_kernel_writes_the_committed_tables(name):
    fig = FIGURES[name]
    with pin_kernel("slow"):
        tables = fig.build()
    for file, table in zip(fig.files, tables, strict=True):
        committed = json.loads((RESULTS / file).read_text(encoding="utf-8"))
        assert json.loads(json.dumps(table.to_dict())) == committed, file
