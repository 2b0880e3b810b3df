"""Everything the counting round adds: spans around the driver's calls
into each layer, and a cProfile bucketed by ``src/repro`` package.

Nothing here runs in the timed rounds; drivers guard every span call
with ``if rec is not None``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["LAYERS", "SpanRecorder", "self_times", "layer_of",
           "bucket_profile"]

#: ``src/repro`` packages that get their own row, plus ``driver`` (files
#: of this benchmark) and ``other`` (stdlib, numpy, the rest of repro)
LAYERS = ("sim", "net", "transport", "dlm", "ddss", "txn", "cache",
          "datacenter", "monitor", "reconfig", "shard", "topo", "faults",
          "obs", "verify", "workloads", "driver", "other")

_SPAN_FIELDS = ("id", "parent", "workload", "cell", "layer", "name",
                "sim_start_us", "sim_end_us", "host_start_s", "host_end_s")


class SpanRecorder:
    """In-memory span list; written out once when the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cell = ""
        self._rows: List[list] = []

    def begin(self, layer: str, name: str, sim_now: float,
              parent: int = 0) -> int:
        """Open a span; returns its id (ids start at 1, 0 = no parent)."""
        self._rows.append([parent, self.cell, layer, name, sim_now, None,
                           time.perf_counter(), None])
        return len(self._rows)

    def end(self, sid: int, sim_now: float) -> None:
        row = self._rows[sid - 1]
        row[5] = sim_now
        row[7] = time.perf_counter()

    def __len__(self) -> int:
        return len(self._rows)

    def spans(self) -> Iterable[dict]:
        for i, (parent, cell, *rest) in enumerate(self._rows):
            yield dict(zip(_SPAN_FIELDS,
                           (i + 1, parent or None, self.workload, cell,
                            *rest)))

    def write_jsonl(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: Iterable[dict]) -> Dict[int, Tuple[float, float]]:
    """``id -> (sim_self_us, host_self_s)``: a span's duration minus its
    children's.  Spans never closed (op cut off by the horizon) are
    skipped, as parents and as children."""
    own: Dict[int, List[float]] = {}
    closed = [s for s in spans if s["sim_end_us"] is not None]
    for s in closed:
        own[s["id"]] = [s["sim_end_us"] - s["sim_start_us"],
                        s["host_end_s"] - s["host_start_s"]]
    for s in closed:
        mine = own.get(s["parent"])
        if mine is not None:
            mine[0] -= s["sim_end_us"] - s["sim_start_us"]
            mine[1] -= s["host_end_s"] - s["host_start_s"]
    return {sid: (v[0], v[1]) for sid, v in own.items()}


def layer_of(filename: str, repro_root: str, driver_root: str
             ) -> Optional[str]:
    """Layer that owns a profiled file; ``None`` for builtins (``~``),
    which are charged to whoever called them."""
    if filename == "~":
        return None
    if filename.startswith(repro_root + os.sep):
        pkg = filename[len(repro_root) + 1:].split(os.sep, 1)[0]
        return pkg if pkg in LAYERS else "other"
    if filename.startswith(driver_root + os.sep):
        return "driver"
    return "other"


def bucket_profile(stats: dict, repro_root: str, driver_root: str
                   ) -> Dict[str, List[float]]:
    """Bucket ``pstats.Stats(...).stats`` rows by layer.

    Returns ``layer -> [calls, self_seconds]``.  A builtin's calls and
    self time go to the layer of each Python caller in proportion to the
    exact per-caller counts cProfile keeps; a builtin nobody visible
    called (the profiler's own ``disable``) lands in ``other``.
    """
    out = {layer: [0, 0.0] for layer in LAYERS}
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in \
            stats.items():
        layer = layer_of(filename, repro_root, driver_root)
        if layer is not None:
            out[layer][0] += nc
            out[layer][1] += tt
            continue
        for (cfile, _cl, _cn), (_ccc, cnc, ctt, _cct) in callers.items():
            owner = layer_of(cfile, repro_root, driver_root) or "other"
            out[owner][0] += cnc
            out[owner][1] += ctt
            nc -= cnc
            tt -= ctt
        out["other"][0] += nc
        out["other"][1] += tt
    return out
