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
superseded wake stays one no-op entry (DESIGN.md §14).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["CPU", "CPUJob"]

_INF = float("inf")


class CPUJob:
    """Handle for a job submitted to a :class:`CPU`.

    ``done`` is the completion event.  ``cancel()`` withdraws the job
    (its event then fails with :class:`SimulationError`).
    """

    __slots__ = ("name", "remaining", "done", "_cpu")

    def __init__(self, cpu: "CPU", work: float, name: str):
        self.name = name
        self.remaining = float(work)
        self.done = Event(cpu.env)
        self._cpu = cpu

    def cancel(self) -> None:
        self._cpu._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CPUJob {self.name} rem={self.remaining:.2f}us>"


class CPU:
    """Multi-core egalitarian processor-sharing queue."""

    def __init__(self, env: Environment, cores: int = 1, name: str = "cpu"):
        if cores <= 0:
            raise SimulationError("CPU needs at least one core")
        self.env = env
        self.cores = cores
        self.name = name
        self._jobs: List[CPUJob] = []  # in submission order
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

    def run(self, work: float, name: str = "job") -> Event:
        """Submit ``work`` microseconds of CPU demand; returns completion
        event.  Zero work completes at the current time (one event hop)."""
        return self.submit(work, name).done

    def submit(self, work: float, name: str = "job") -> CPUJob:
        """Admit a job; refuses anything but ``0 <= work < inf`` first."""
        if not 0 <= work < _INF:
            raise SimulationError(
                f"CPU job {name!r}: work must be finite and >= 0, got {work}")
        job = CPUJob(self, work, name)
        if self._jobs or self._background:
            self._update(job)
        else:
            # Idle: the frame reduces to no decay, rate 1.0, delay = work.
            now = self._last_update = self.env._now
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

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of cores busy over ``[since, now]``."""
        self._update(rearm=False)
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return self._busy_integral / (horizon * self.cores)

    # -- internals ---------------------------------------------------------
    def _update(self, job: Optional[CPUJob] = None,
                rearm: bool = True) -> None:
        """Decay, finish ripe jobs in submission order (zero-work ones
        too), admit ``job``, and with ``rearm`` re-arm the wake-up."""
        now = self.env._now
        jobs = self._jobs
        dt = now - self._last_update
        self._last_update = now
        served = 0.0
        if dt > 0:
            n = len(jobs) + self._background
            self._busy_integral += dt * min(n, self.cores)
            if jobs:
                served = dt * min(1.0, self.cores / n)
        shortest = _INF
        live = []
        for j in jobs:
            rem = j.remaining = j.remaining - served
            if rem <= 1e-9:
                j.done.succeed()
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
                rate = min(1.0, self.cores / (len(jobs) + self._background))
                self.env._schedule_call(now + shortest / rate,
                                        partial(self._on_wake, gen))

    def _on_wake(self, gen: int) -> None:
        if gen == self._generation:  # else superseded by a later change
            self._update()

    def _cancel(self, job: CPUJob) -> None:
        self._update(rearm=False)
        if job in self._jobs:
            self._jobs.remove(job)
            job.done.fail(SimulationError(f"job {job.name} cancelled"))
            self._update()
