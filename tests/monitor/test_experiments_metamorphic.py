"""Metamorphic audit of the Fig. 8 harnesses in
:mod:`repro.monitor.experiments`.

A rate measured over a steady-state window must not depend on the
window's length, nor on how long the warm-up before it ran; a deviation
averaged over a trace must not depend on the trace's length.

The bounds come from the harnesses' own spread over seeds 0-7 (all
simulated, so exact per seed):

* ``lb_throughput`` (``rdma-async``, ``socket-async``, ``rdma-sync`` at
  alpha 0.5, windows of 50, 100 and 200 ms): the closed loop's count of
  completions in a window wanders by a bounded amount, not by its square
  root, so the counts of two windows differed with a standard deviation
  of 85-122 completions at every length.  With sigma = 125 the bound is
  4 sigma = 500 completions.
* ``accuracy_trace`` (100 ms against 200 ms traces): per seed, the two
  mean absolute deviations differed with a standard deviation of at most
  11 % of the mean (``socket-async``; ``rdma-async`` 6 %).  Summed over
  four seeds that is 5.5 %, and the bound is 4 sigma = 22 %.
"""

import pytest

from repro.monitor import experiments
from repro.monitor.experiments import accuracy_trace, lb_throughput

SCHEME, ALPHA, SEED = "socket-async", 0.5, 0
WINDOW_US = 200_000.0
#: 4 sigma on the difference between two windows' completion counts
COUNT_BOUND = 500


def completions(tps, window_us):
    return tps * window_us / 1e6


@pytest.fixture(scope="module")
def first_window():
    """TPS over the window after the default warm-up."""
    return lb_throughput(SCHEME, ALPHA, measure_us=WINDOW_US, seed=SEED)


def test_lb_tps_holds_when_the_window_doubles(first_window):
    """The doubled window is the first one and the next: their counts
    differ by ``2T * (doubled - first)``."""
    doubled = lb_throughput(SCHEME, ALPHA, measure_us=2 * WINDOW_US,
                            seed=SEED)
    assert completions(abs(doubled - first_window),
                       2 * WINDOW_US) <= COUNT_BOUND


def test_lb_tps_holds_after_a_longer_warmup(first_window, monkeypatch):
    monkeypatch.setattr(experiments, "WARMUP_US",
                        2 * experiments.WARMUP_US)
    later = lb_throughput(SCHEME, ALPHA, measure_us=WINDOW_US, seed=SEED)
    assert completions(abs(later - first_window), WINDOW_US) <= COUNT_BOUND


@pytest.mark.parametrize("scheme", ["socket-async", "rdma-async"])
def test_accuracy_deviation_holds_when_the_trace_doubles(scheme):
    def deviation(duration_us):
        return sum(accuracy_trace(scheme, duration_us=duration_us,
                                  seed=seed).mean_abs_deviation
                   for seed in range(4))

    short, long = deviation(100_000.0), deviation(200_000.0)
    assert short > 0 and abs(long - short) <= 0.22 * short
