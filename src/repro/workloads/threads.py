"""Thread-churn traces for the monitoring-accuracy experiment (Fig. 8a).

The experiment needs a back-end node whose *actual* number of running
application threads fluctuates over time; each monitoring scheme then
reports its view of that number and the figure plots the deviation.
:class:`ThreadChurn` drives a node's processor-sharing CPU background
load through a seeded random walk; ``current`` is the ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.net.node import Node

__all__ = ["ThreadChurn"]

#: the thread count every walk starts from and swings around
BASE = 12


class ThreadChurn:
    """Random-walk thread count applied to a node's CPU as load."""

    def __init__(self, node: Node, rng: np.random.Generator,
                 swing: int = 10, step_every_us: float = 2_000.0,
                 max_step: int = 3):
        if swing < 0 or BASE - swing < 0:
            raise ConfigError("thread count walk would go negative")
        if max_step <= 0:
            raise ConfigError("max_step must be positive")
        self.node = node
        self.env = node.env
        self.rng = rng
        self.swing = swing
        self.step_every_us = step_every_us
        self.max_step = max_step
        self.current = BASE
        self._apply(BASE)
        self.env.process(self._walk(), name=f"churn@{node.name}")

    def _apply(self, n: int) -> None:
        self.current = n
        self.node.cpu.set_background(n)

    def _walk(self):
        while True:
            yield self.env.timeout(self.step_every_us)
            lo = max(0, BASE - self.swing)
            hi = BASE + self.swing
            step = int(self.rng.integers(-self.max_step, self.max_step + 1))
            self._apply(int(np.clip(self.current + step, lo, hi)))
