"""Resumable on-disk result store (JSON lines, append-only).

Layout under one sweep's directory (default
``benchmarks/results/lab/<sweep-name>/``)::

    sweep.json       the Sweep that produced the records (resume + drift guard)
    records.jsonl    one canonical-JSON line per *completed* run

``records.jsonl`` lines contain only deterministic fields (run id, spec,
scenario result), serialized with sorted keys and no whitespace — the
same run therefore produces the same bytes whether it executed in-process
(``--workers 0``) or inside a pool worker.  A failed run writes nothing,
so resuming runs it again.

Appends are line-atomic-in-practice (single ``write`` + flush); a run
killed mid-write leaves at most one truncated final line, which the
reader skips — that is what makes ``repro lab resume`` safe after a
hard kill.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set

from ..errors import ConfigError
from .spec import Sweep, canonical_json

__all__ = ["DEFAULT_ROOT", "ResultStore", "record_for", "store_for"]

#: default root for sweep stores, relative to the working directory
DEFAULT_ROOT = os.path.join("benchmarks", "results", "lab")


def record_for(spec, result: Any) -> Dict[str, Any]:
    """The deterministic record written for one completed run."""
    return {
        "run_id": spec.run_id,
        "scenario": spec.scenario,
        "params": dict(spec.params),
        "seed": spec.seed,
        "repeat": spec.repeat,
        "result": result,
    }


class ResultStore:
    """Append-only store for one sweep; ``path=None`` keeps everything
    in memory (used by one-shot sweeps such as a chaos campaign)."""

    RECORDS = "records.jsonl"
    SWEEP = "sweep.json"

    def __init__(self, path: Optional[str]):
        self.path = path
        self._memory: List[Dict[str, Any]] = []
        if path is not None:
            os.makedirs(path, exist_ok=True)

    # -- helpers --------------------------------------------------------
    def _file(self, name: str) -> str:
        assert self.path is not None
        return os.path.join(self.path, name)

    @staticmethod
    def _read_jsonl(path: str) -> List[Dict[str, Any]]:
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        out = []
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except ValueError as exc:
                if all(not rest.strip() for rest in lines[lineno:]):
                    # truncated tail from a mid-write kill: forgive; the
                    # run will simply re-execute on resume
                    break
                # unparseable line *followed by* more records is not a
                # torn tail — it is corruption, and skipping it would
                # silently drop a completed run on resume
                raise ConfigError(
                    f"corrupt record at {path}:{lineno}: {exc}")
            # every line the store writes is one object, so a line that
            # parses as anything else is corruption, never a torn tail
            if not isinstance(record, dict):
                raise ConfigError(f"corrupt record at {path}:{lineno}: "
                                  f"not a JSON object: {stripped[:40]}")
            out.append(record)
        return out

    # -- sweep metadata -------------------------------------------------
    def write_sweep(self, sweep: Sweep) -> None:
        if self.path is None:
            return
        doc = {"sweep": sweep.to_dict(), "spec_hash": sweep.spec_hash()}
        with open(self._file(self.SWEEP), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def load_sweep(self) -> Sweep:
        if self.path is None:
            raise ConfigError("in-memory store holds no sweep.json")
        path = self._file(self.SWEEP)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"no resumable sweep at {path}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"corrupt sweep.json at {path}: {exc}")
        if not isinstance(doc, dict) or "sweep" not in doc:
            raise ConfigError(f"corrupt sweep.json at {path}: field "
                              f"'sweep' missing")
        try:
            return Sweep.from_dict(doc["sweep"])
        except ConfigError as exc:
            raise ConfigError(f"corrupt sweep.json at {path}: {exc}") from None

    def has_sweep(self) -> bool:
        return (self.path is not None
                and os.path.exists(self._file(self.SWEEP)))

    # -- records --------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        if self.path is None:
            self._memory.append(record)
            return
        with open(self._file(self.RECORDS), "a", encoding="utf-8") as fh:
            fh.write(canonical_json(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def records(self) -> List[Dict[str, Any]]:
        if self.path is None:
            return list(self._memory)
        path = self._file(self.RECORDS)
        # last-write-wins dedup (a crash between append and the runner's
        # bookkeeping could double-submit one run)
        by_id: Dict[str, Dict[str, Any]] = {}
        for r in self._read_jsonl(path):
            rid = r.get("run_id")
            if not isinstance(rid, str):
                raise ConfigError(f"corrupt record in {path}: field "
                                  f"'run_id' must be a string, got {rid!r}")
            by_id[rid] = r
        return list(by_id.values())

    def completed_ids(self) -> Set[str]:
        return {r["run_id"] for r in self.records()}

    def record_lines(self) -> Dict[str, str]:
        """run_id -> canonical serialized bytes (determinism checks)."""
        return {r["run_id"]: canonical_json(r) for r in self.records()}


def store_for(name: str, root: Optional[str] = None) -> ResultStore:
    """The on-disk store for a sweep name under ``root`` (or the
    default ``benchmarks/results/lab/``)."""
    return ResultStore(os.path.join(root or DEFAULT_ROOT, name))
