"""Fold per-run records into paper-style tables.

The merge step turns a store back into :class:`BenchTable`\\ s: the
sweep's ``fold`` callable (resolved by dotted path) when it names one,
else :func:`fold_by_param`'s one row per run.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..bench.harness import BenchTable
from .spec import Sweep, resolve_dotted
from .store import ResultStore

__all__ = ["fold_by_param", "merge_tables"]


def fold_by_param(records: List[Dict[str, Any]],
                  title: str = "lab sweep") -> List[BenchTable]:
    """Generic fold: one row per run, param columns then result columns."""
    if not records:
        return [BenchTable(title, ["(empty)"])]
    params = sorted({k for r in records for k in r["params"]})
    res_keys = sorted({k for r in records
                       for k, v in r["result"].items()
                       if isinstance(v, (int, float, str))})
    table = BenchTable(title, params + ["seed", "rep"] + res_keys)
    for r in sorted(records, key=lambda r: tuple(
            r["params"].get(k) for k in params) + (r["seed"], r["repeat"])):
        row = [r["params"].get(k, "") for k in params]
        row += [r["seed"], r["repeat"]]
        row += [r["result"].get(k, "") for k in res_keys]
        table.add(*row)
    return [table]


def merge_tables(sweep: Sweep, store: ResultStore) -> List[BenchTable]:
    """Fold a store's records, in run-id order, into tables."""
    records = sorted(store.records(), key=lambda r: r["run_id"])
    if sweep.fold:
        return resolve_dotted(sweep.fold)(records)
    return fold_by_param(records, title=f"lab sweep: {sweep.name}")
