"""Parallel experiment runner: a map over a sweep's grid, with resume.

The :class:`Runner` expands a :class:`~repro.lab.spec.Sweep`, skips runs
the :class:`~repro.lab.store.ResultStore` already holds, and executes
the rest either in-process (``workers=0`` — the byte-identical reference
path) or on a :class:`~concurrent.futures.ProcessPoolExecutor`.

Every run is a seeded simulation, so a run that raises would raise
again: each run gets **one attempt**.

* **Seeded dispatch order** — the pending runs are shuffled by a PRNG
  seeded from the sweep's content hash, so the dispatch order is
  deterministic, identical for serial and parallel modes, and spreads
  expensive grid neighbours across workers instead of clumping them.
* **Failures are recorded once** — a run that raises (or exceeds the
  per-run ``timeout_s``, enforced inside the worker with an interval
  timer) is listed in the report with its error, params and seed, and
  writes no record, so ``repro lab resume`` runs it again.  A worker
  crash breaks the whole pool (``BrokenProcessPool``): every run in
  flight fails once and a fresh pool takes the runs not yet submitted.
* **Graceful Ctrl-C** — the first ``KeyboardInterrupt`` stops new
  submissions, drains the in-flight runs and flushes their records, so
  ``repro lab resume`` picks up exactly where the sweep stopped.
"""

from __future__ import annotations

import random
import signal
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from .spec import RunSpec, Sweep, canonical_json
from .store import ResultStore, record_for

__all__ = ["Runner", "RunFailure", "execute_run"]

CRASHED = "worker crashed (pool broken)"


@dataclass
class RunFailure:
    run_id: str
    params: Dict[str, Any]
    seed: int
    repeat: int
    error: str


class _RunTimeout(Exception):
    pass


def _alarm_handler(signum, frame):  # pragma: no cover - signal context
    raise _RunTimeout()


def execute_run(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one run; also the pool-worker entry point (picklable).

    ``payload`` is ``{"spec": RunSpec.to_dict(), "timeout_s": float|None}``.
    Returns the run's deterministic record.  Raises whatever the
    scenario raises; a timeout raises :class:`TimeoutError`.
    """
    spec = RunSpec.from_dict(payload["spec"])
    timeout_s = payload.get("timeout_s")
    fn = spec.resolve()
    use_alarm = timeout_s is not None and hasattr(signal, "SIGALRM")
    old_handler = None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        result = fn(seed=spec.effective_seed, **spec.params)
    except _RunTimeout:
        raise TimeoutError(
            f"run {spec.run_id} exceeded {timeout_s}s") from None
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)
    record = record_for(spec, result)
    # fail *here* if the scenario returned something JSON can't carry:
    # the parent sees an ordinary run failure instead of a store crash
    canonical_json(record)
    return record


class Runner:
    """Drive one sweep to completion against one result store."""

    def __init__(self, sweep: Sweep, store: Optional[ResultStore] = None,
                 workers: int = 0, timeout_s: Optional[float] = None,
                 progress: bool = False):
        if workers < 0:
            raise ConfigError("workers must be >= 0")
        if timeout_s is not None and not timeout_s > 0:
            raise ConfigError(
                f"timeout must be > 0 seconds, got {timeout_s}")
        self.sweep = sweep
        self.store = store if store is not None else ResultStore(None)
        self.workers = workers
        self.timeout_s = timeout_s
        self.progress = progress
        self.failures: List[RunFailure] = []
        self.interrupted = False
        self._done = 0
        self._total = 0
        self._skipped = 0

    # -- bookkeeping ----------------------------------------------------
    def _payload(self, spec: RunSpec) -> Dict[str, Any]:
        return {"spec": spec.to_dict(), "timeout_s": self.timeout_s}

    def _tick(self, state: str = "") -> None:
        if not self.progress:
            return
        line = (f"\r[lab {self.sweep.name}] "
                f"{self._done + self._skipped}/{self._total} "
                f"(skipped {self._skipped}, failed {len(self.failures)})")
        if state:
            line += f" {state}"
        sys.stderr.write(line.ljust(72))
        sys.stderr.flush()

    def _complete(self, record: Dict[str, Any]) -> None:
        self.store.append(record)
        self._done += 1
        self._tick()

    def _fail(self, spec: RunSpec, error: str) -> None:
        self.failures.append(RunFailure(
            run_id=spec.run_id, params=dict(spec.params), seed=spec.seed,
            repeat=spec.repeat, error=error))
        self._tick()

    # -- public API -----------------------------------------------------
    def pending_specs(self) -> List[RunSpec]:
        """Expanded runs minus completed ones, in seeded-shuffle
        dispatch order."""
        done = self.store.completed_ids()
        specs = [s for s in self.sweep.expand() if s.run_id not in done]
        order = random.Random(int(self.sweep.spec_hash(), 16))
        order.shuffle(specs)
        return specs

    def run(self) -> Dict[str, Any]:
        """Execute every pending run; returns the summary report."""
        all_specs = self.sweep.expand()
        seen = set()
        for s in all_specs:
            if s.run_id in seen:
                raise ConfigError(
                    f"duplicate run in sweep {self.sweep.name!r}: "
                    f"{s.to_dict()}")
            seen.add(s.run_id)
        self.store.write_sweep(self.sweep)
        pending_specs = self.pending_specs()
        self._total = len(all_specs)
        self._skipped = self._total - len(pending_specs)
        t0 = time.perf_counter()
        self._tick()
        try:
            if self.workers == 0:
                self._run_serial(pending_specs)
            else:
                self._run_pool(pending_specs)
        except KeyboardInterrupt:
            self.interrupted = True
        if self.progress:
            self._tick("interrupted" if self.interrupted else "done")
            sys.stderr.write("\n")
        return self.report(wall_s=time.perf_counter() - t0)

    def report(self, wall_s: float = 0.0) -> Dict[str, Any]:
        return {
            "sweep": self.sweep.name,
            "spec_hash": self.sweep.spec_hash(),
            "total": self._total,
            "completed": self._done,
            "skipped": self._skipped,
            "failed": len(self.failures),
            "interrupted": self.interrupted,
            "workers": self.workers,
            "wall_s": round(wall_s, 4),
            "failures": [vars(f) for f in self.failures],
        }

    # -- serial (reference) path ---------------------------------------
    def _run_serial(self, specs: List[RunSpec]) -> None:
        for spec in specs:
            try:
                record = execute_run(self._payload(spec))
            except KeyboardInterrupt:
                raise
            except BaseException as exc:
                # BaseException: a scenario calling sys.exit() must not
                # kill the whole sweep
                self._fail(spec, repr(exc))
                continue
            self._complete(record)

    # -- process-pool path ---------------------------------------------
    def _settle(self, spec: RunSpec, fut) -> bool:
        """Record one finished future; True if its worker died."""
        try:
            record = fut.result()
        except BrokenProcessPool:
            self._fail(spec, CRASHED)
            return True
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            self._fail(spec, repr(exc))
            return False
        self._complete(record)
        return False

    def _run_pool(self, specs: List[RunSpec]) -> None:
        pending = deque(specs)
        pool = ProcessPoolExecutor(max_workers=self.workers)
        inflight: Dict[Any, RunSpec] = {}
        draining = False
        try:
            while pending or inflight:
                broken = False
                while (not draining and pending
                       and len(inflight) < self.workers):
                    try:
                        fut = pool.submit(execute_run,
                                          self._payload(pending[0]))
                    except BrokenProcessPool:
                        broken = True
                        break
                    inflight[fut] = pending.popleft()
                    self._tick(f"{len(inflight)} running")
                if draining and not inflight:
                    break
                if not broken:
                    try:
                        done, _ = wait(list(inflight),
                                       return_when=FIRST_COMPLETED)
                    except KeyboardInterrupt:
                        if draining:
                            raise
                        draining = True
                        self._tick("draining (Ctrl-C again to abort)")
                        continue
                    for fut in done:
                        broken |= self._settle(inflight.pop(fut), fut)
                if broken:
                    # a broken pool resolves every future it still holds:
                    # the runs in flight fail once, a fresh pool takes
                    # the rest
                    for fut in wait(list(inflight)).done:
                        self._settle(inflight.pop(fut), fut)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=self.workers)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if draining:
            raise KeyboardInterrupt
