"""The product kernel against the reference kernel, over the harness grids.

``tests/sim/reference_kernel.py`` is the heap-only kernel with the
generator transfers and verbs.  Every run here is a judged run on each
of its :data:`~tests.sim.reference_kernel.KERNELS`, fanned through
:mod:`repro.lab` (entry point ``tests.sim.reference_kernel:lab_run``),
and the records are folded per cell: both kernels must judge it ``ok``
and export one canonical digest.  The grids:

* every scenario row at seed 0;
* the metamorphic grid, every row at seeds 0-5 (default node counts);
* the chaos campaign of CI's ``chaos`` job: ``locks``, ``ddss-repl``
  and ``txn`` at seed 7, ten schedules each.

Tier-1 runs a slice of each; ``REPRO_KERNEL_FOLD_ALL=1`` (CI's
``check`` and ``chaos`` jobs) runs the full grids on two lab workers.

A FIFO in the library *observes* the order of two same-instant events,
which the kernels are free to break differently: an egress link serves
two same-instant injections from one node in pop order, a receive queue
hands two same-instant arrivals to its server in pop order, and every
instant downstream of such a pair may move (DESIGN.md §9).  Cells where
that happens are listed in :data:`KNOWN_TIES` rather than dodged by seed
choice, and the fold checks the list both ways.
"""

import os
from typing import Dict, Tuple

from repro.lab import ResultStore, Runner, Sweep
from repro.scenarios import SCENARIOS

from tests.sim.reference_kernel import KERNELS

ALL = os.environ.get("REPRO_KERNEL_FOLD_ALL") == "1"
WORKERS = 2 if ALL else 0
ENTRY = "tests.sim.reference_kernel:lab_run"

#: ``(scenario, n_nodes, seed)`` cells (``n_nodes`` 0 = the scenario's
#: default) whose digests differ across kernels because a FIFO saw two
#: same-instant events in either order.  Each entry is proven to start
#: at such a pair — of the kind its reason names before the colon — by
#: ``tests/verify/test_known_ties.py``; a differing cell not listed
#: here fails the fold, and so does a listed cell that now matches.
KNOWN_TIES: Dict[Tuple[str, int, int], str] = {
    ("cache-hybcc", 0, 1):
        "link tie: node 0 injects a write ack and a host-posted write "
        "at t=317.2279726955068, the run's first same-instant pair",
    ("txn-mixed", 0, 0):
        "receiver tie: requests from nodes 1 and 3 reach node 0's "
        "server queue together at t=262.57777777777807; it answers "
        "them 2 us apart in pop order",
}

#: the scenario rows every fold runs; tier-1 takes a slice that holds
#: both known ties, a cross-rack row and a crash
ROWS = sorted(SCENARIOS) if ALL else ["cache-hybcc", "ncosed-chaos",
                                      "shard", "srsl", "txn-mixed"]


def sweep(name, grid, seeds, key):
    """Run ``grid`` × ``seeds`` on every kernel; returns the records as
    ``{key(params, seed): {kernel: record}}`` and the runner summary."""
    spec = Sweep(name=name, scenario=ENTRY,
                 grid={**grid, "kernel": list(KERNELS)},
                 seeds=[int(s) for s in seeds])
    store = ResultStore(None)
    summary = Runner(spec, store=store, workers=WORKERS).run()
    cells = {}
    for rec in store.records():
        cells.setdefault(key(rec["params"], rec["seed"]),
                         {})[rec["params"]["kernel"]] = rec["result"]
    return cells, summary


def fold(cells, known=None):
    """The kernel fold: ``pairs`` (cells run on every kernel), the
    ``mismatches`` and ``ties`` among them (a differing cell is a tie
    when ``known`` lists it), ``stale`` entries of ``known`` that ran
    and agree, and the non-``ok`` ``verdicts``."""
    known = KNOWN_TIES if known is None else known
    report = {"pairs": 0, "mismatches": [], "ties": [], "stale": [],
              "verdicts": []}
    for key, by_kernel in sorted(cells.items()):
        report["verdicts"] += [(key, kernel, rec["verdict"])
                               for kernel, rec in sorted(by_kernel.items())
                               if rec["verdict"] != "ok"]
        if len(by_kernel) < len(KERNELS):
            continue  # a failed run; already in the runner summary
        report["pairs"] += 1
        if len({rec["trace_sha"] for rec in by_kernel.values()}) > 1:
            report["ties" if key in known else "mismatches"].append(key)
        elif key in known:
            report["stale"].append(key)
    return report


def meta_cells(rows, seeds):
    return sweep("kernel-fold-meta", {"scenario": list(rows),
                                      "n_nodes": [0]}, seeds,
                 lambda p, seed: (p["scenario"], p["n_nodes"], seed))


def test_every_row_at_seed_0():
    cells, summary = meta_cells(ROWS, [0])
    rep = fold(cells)
    assert summary["failed"] == 0 and rep["pairs"] == len(ROWS)
    assert rep["mismatches"] == [] and rep["verdicts"] == []
    assert set(rep["ties"]) <= {("txn-mixed", 0, 0)}


def test_metamorphic_grid():
    """Every row at seeds 0-5: the ties are exactly :data:`KNOWN_TIES`
    (in tier-1, the slice's rows at the seeds of their ties)."""
    seeds = range(6) if ALL else [0, 1]
    cells, summary = meta_cells(ROWS, seeds)
    rep = fold(cells)
    assert summary["failed"] == 0
    assert rep["pairs"] == len(ROWS) * len(seeds)
    assert rep["mismatches"] == [] and rep["stale"] == []
    assert rep["verdicts"] == []
    assert rep["ties"] == sorted(KNOWN_TIES)


def test_chaos_campaign():
    """CI's campaign on both kernels: every schedule ``ok`` on each,
    one digest per schedule."""
    names = ["locks", "ddss-repl", "txn"] if ALL else ["locks", "txn"]
    n = 10 if ALL else 2
    cells, summary = sweep(
        "kernel-fold-chaos-7", {"scenario": names, "index": list(range(n))},
        [7], lambda p, seed: (p["scenario"], p["index"]))
    rep = fold(cells, known={})
    assert summary["failed"] == 0 and rep["pairs"] == len(names) * n
    assert rep["mismatches"] == [] and rep["verdicts"] == []
