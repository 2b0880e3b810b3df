"""Reference twin of the processor-sharing CPU (``repro.sim.cpu``).

A frozen copy of the model as it stood before wake-ups became bare
agenda calls: every job-set change runs ``_advance`` then
``_reschedule``, and a wake-up is an ``env.timeout`` with a closure
callback.  The product class must reproduce it float for float and
agenda slot for agenda slot (``tests/sim/test_cpu_twin.py``).  Only the
class name and the job handle differ from the original (the job is its
own completion event, as in the product); do not optimise this file.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["ReferenceCPU", "CPUJob"]

_job_ids = itertools.count(1)


class CPUJob(Event):
    """A job submitted to a :class:`CPU`, and its own completion event.

    ``cancel()`` withdraws the job (the event then fails with
    :class:`SimulationError`).
    """

    __slots__ = ("jid", "name", "remaining", "_cpu")

    def __init__(self, cpu: "ReferenceCPU", work: float, name: str):
        super().__init__(cpu.env)
        self.jid = next(_job_ids)
        self.name = name
        self.remaining = float(work)
        self._cpu = cpu

    def cancel(self) -> None:
        self._cpu._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CPUJob {self.name}#{self.jid} rem={self.remaining:.2f}us>"


class ReferenceCPU:
    """Multi-core egalitarian processor-sharing queue."""

    def __init__(self, env: Environment, cores: int = 1, name: str = "cpu"):
        if cores <= 0:
            raise SimulationError("CPU needs at least one core")
        self.env = env
        self.cores = cores
        self.name = name
        self._jobs: Dict[int, CPUJob] = {}
        self._background = 0  # permanent compute-bound jobs (never finish)
        self._last_update = env.now
        self._generation = 0
        self._busy_integral = 0.0  # ∫ min(active, cores) dt, for utilization

    # -- public API ------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Jobs currently competing for the CPU (incl. background load)."""
        return len(self._jobs) + self._background

    @property
    def load(self) -> float:
        """Run-queue length normalised by core count (like loadavg/cores)."""
        return self.active_jobs / self.cores

    def run(self, work: float, name: str = "job") -> CPUJob:
        """Submit ``work`` microseconds of CPU demand; returns the job,
        its own completion event.  Zero work completes at the current
        time (one event hop)."""
        if work < 0:
            raise SimulationError(f"negative CPU work: {work}")
        return self.submit(work, name)

    def submit(self, work: float, name: str = "job") -> CPUJob:
        job = CPUJob(self, work, name)
        self._advance()
        self._jobs[job.jid] = job
        self._reschedule()
        return job

    def set_background(self, n: int) -> None:
        """Pin ``n`` permanent compute-bound jobs (synthetic load)."""
        if n < 0:
            raise SimulationError("background job count must be >= 0")
        self._advance()
        self._background = n
        self._reschedule()

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of cores busy over ``[since, now]``."""
        self._advance()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return self._busy_integral / (horizon * self.cores)

    # -- internals ---------------------------------------------------------
    def _rate(self) -> float:
        """Per-job progress rate under processor sharing."""
        n = self.active_jobs
        if n == 0:
            return 0.0
        return min(1.0, self.cores / n)

    def _advance(self) -> None:
        """Decay remaining work for elapsed wall time; finish ripe jobs."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            n = self.active_jobs
            self._busy_integral += dt * min(n, self.cores)
            rate = self._rate()
            if rate > 0 and self._jobs:
                served = dt * rate
                for job in self._jobs.values():
                    job.remaining -= served
        self._last_update = now
        # Complete ripe jobs even when no time elapsed (zero-work jobs).
        finished = [j for j in self._jobs.values() if j.remaining <= 1e-9]
        for job in finished:
            del self._jobs[job.jid]
            job.succeed()

    def _reschedule(self) -> None:
        """Arm a wake-up at the earliest projected completion."""
        self._generation += 1
        gen = self._generation
        if not self._jobs:
            return
        rate = self._rate()
        if rate <= 0:  # pragma: no cover - impossible while jobs exist
            return
        shortest = min(job.remaining for job in self._jobs.values())
        delay = shortest / rate
        if not math.isfinite(delay):  # pragma: no cover - defensive
            raise SimulationError("non-finite CPU completion delay")
        wake = self.env.timeout(delay)
        wake.add_callback(lambda _ev: self._on_wake(gen))

    def _on_wake(self, gen: int) -> None:
        if gen != self._generation:
            return  # superseded by a later job-set change
        self._advance()
        self._reschedule()

    def _cancel(self, job: CPUJob) -> None:
        self._advance()
        if job.jid in self._jobs:
            del self._jobs[job.jid]
            job.fail(SimulationError(f"job {job.name} cancelled"))
            self._reschedule()
