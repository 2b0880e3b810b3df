"""Processor-sharing CPU model.

Each simulated node owns a :class:`CPU`.  Jobs demand a fixed amount of
CPU *work* (microseconds of a dedicated core); while ``n`` jobs are
active on ``c`` cores every job progresses at rate ``min(1, c / n)``.
This is the classic egalitarian processor-sharing (PS) queue and it is
what couples *host-based* protocol latency to node load: a socket-based
monitoring daemon on a node running 30 compute threads gets ~1/30th of a
core, while an RDMA read bypasses the CPU entirely.

The implementation keeps exact remaining-work accounting: one frame,
:meth:`CPU._update`, per change of the active-job set decays every
remaining work by the elapsed virtual service, finishes ripe jobs and
re-arms the wake-up: a bare agenda call tagged with a generation, so a
superseded wake stays one no-op entry (DESIGN.md §9).  A job is its
own completion event: :meth:`CPU.run` returns the :class:`CPUJob`,
which a process yields.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.sim.core import _PENDING, Environment, Event, SimulationError

__all__ = ["CORES", "CPU", "CPUJob"]

_INF = float("inf")
#: cores of every simulated node's CPU (the paper's testbed hosts are
#: dual-processor machines)
CORES = 2


class CPUJob(Event):
    """A job submitted to a :class:`CPU`, and its own completion event."""

    __slots__ = ("name", "remaining")

    def __init__(self, cpu: "CPU", work: float, name: str):
        self.env = cpu.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.name = name
        self.remaining = float(work)


class CPU:
    """Egalitarian processor-sharing queue over :data:`CORES` cores."""

    def __init__(self, env: Environment, name: str = "cpu"):
        self.env = env
        self.name = name
        self._jobs: List[CPUJob] = []  # in submission order
        self._background = 0  # permanent compute-bound jobs (never finish)
        self._last_update = env.now
        self._generation = 0

    # -- public API ------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Jobs currently competing for the CPU (incl. background load)."""
        return len(self._jobs) + self._background

    @property
    def load(self) -> float:
        """Run-queue length normalised by core count (like loadavg/cores)."""
        return self.active_jobs / CORES

    def run(self, work: float, name: str = "job") -> CPUJob:
        """Submit ``work`` microseconds of CPU demand; returns the job,
        which is its completion event.  Zero work completes at the
        current time (one event hop).  Refuses anything but
        ``0 <= work < inf``."""
        if not 0 <= work < _INF:
            raise SimulationError(
                f"CPU job {name!r}: work must be finite and >= 0, got {work}")
        job = CPUJob(self, work, name)
        if self._jobs or self._background:
            self._update(job)
        else:
            # Idle: the frame reduces to no decay, rate 1.0, delay = work.
            now = self._last_update = self.env.now
            self._jobs.append(job)
            self._generation = gen = self._generation + 1
            self.env._schedule_call(now + job.remaining,
                                    partial(self._on_wake, gen))
        return job

    def set_background(self, n: int) -> None:
        """Pin ``n`` permanent compute-bound jobs (synthetic load)."""
        if n < 0:
            raise SimulationError("background job count must be >= 0")
        self._update(rearm=False)
        self._background = n
        self._update()

    # -- internals ---------------------------------------------------------
    def _update(self, job: Optional[CPUJob] = None,
                rearm: bool = True) -> None:
        """Decay, finish ripe jobs in submission order (zero-work ones
        too), admit ``job``, and with ``rearm`` re-arm the wake-up."""
        now = self.env.now
        jobs = self._jobs
        cores = CORES
        dt = now - self._last_update
        self._last_update = now
        served = 0.0
        # Comparisons, not min(): the same floats (min keeps its first
        # argument on a tie, and cores / n >= 1.0 when n <= cores).
        if dt > 0 and jobs:
            n = len(jobs) + self._background
            served = dt if n <= cores else dt * (cores / n)
        shortest = _INF
        live = []
        for j in jobs:
            rem = j.remaining = j.remaining - served
            if rem <= 1e-9:
                j.succeed()
            else:
                live.append(j)
                if rem < shortest:
                    shortest = rem
        self._jobs = jobs = live
        if job is not None:
            jobs.append(job)
            if job.remaining < shortest:
                shortest = job.remaining
        if rearm:
            self._generation = gen = self._generation + 1
            if jobs:
                n = len(jobs) + self._background
                rate = 1.0 if n <= cores else cores / n
                self.env._schedule_call(now + shortest / rate,
                                        partial(self._on_wake, gen))

    def _on_wake(self, gen: int) -> None:
        if gen == self._generation:  # else superseded by a later change
            self._update()
