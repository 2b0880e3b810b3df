"""Make ``perf`` (this benchmark) and ``repro`` importable, and build
reduced-size stand-ins for the workload modules: the CLI has no size
option, so tests call the drivers directly."""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARKS = os.path.dirname(os.path.dirname(HERE))
for path in (BENCHMARKS, os.path.join(os.path.dirname(BENCHMARKS), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


def reduced(mod, cells, make_cell):
    """A module-like object with ``mod``'s identity but small cells."""
    return types.SimpleNamespace(NAME=mod.NAME, LAYER=mod.LAYER,
                                 CELLS=tuple(cells), make_cell=make_cell)


@pytest.fixture
def small_txn():
    from perf.workloads import txn_closed as t
    return reduced(t, ("occ-hot", "2pl-hot"),
                   lambda name, seed, rec: t.TxnCell(name, seed, rec,
                                                     workers=8, txns=6))


@pytest.fixture
def small_locks():
    from perf.workloads import locks_zipf as l
    return reduced(l, ("ncosed", "mcs-ft"),
                   lambda name, seed, rec: l.LockCell(name, seed, rec,
                                                      n_clients=24, rounds=2))
