"""Discrete-event simulation kernel.

This package provides the simulation substrate on which the whole
reproduction runs: a deterministic event loop (:class:`Environment`),
generator-based processes, timeout/condition events, FIFO stores,
counting resources, and a processor-sharing CPU model.

The design follows the classic event/process paradigm (cf. SimPy) but is
implemented from scratch so the repository is self-contained.  Time is a
float in **microseconds** everywhere.

Quickstart::

    from repro.sim import Environment

    env = Environment()

    def hello(env):
        yield env.timeout(5.0)
        return env.now

    proc = env.process(hello(env))
    env.run()
    assert proc.value == 5.0
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    KERNELS,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    pin_kernel,
    settle,
    slow_kernel_requested,
)
from repro.sim.cpu import CPU, CPUJob
from repro.sim.resources import Gate, Resource, Store
from repro.sim.rng import RngStreams, spawn_child

__all__ = [
    "AllOf",
    "AnyOf",
    "CPU",
    "CPUJob",
    "Environment",
    "Event",
    "Gate",
    "Interrupt",
    "KERNELS",
    "Process",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Store",
    "Timeout",
    "pin_kernel",
    "settle",
    "slow_kernel_requested",
    "spawn_child",
]
