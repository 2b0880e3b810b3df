"""Unit tests for measurement helpers."""

import math

import pytest

from repro.sim.trace import Tally
from tests.obs.reference_hist import percentile


class TestTally:
    def test_mean_min_max(self):
        t = Tally()
        for x in [1.0, 2.0, 3.0, 4.0]:
            t.add(x)
        assert t.count == 4
        assert t.mean == pytest.approx(2.5)
        assert t.min == 1.0
        assert t.max == 4.0

    def test_empty_tally_mean_is_nan(self):
        assert math.isnan(Tally().mean)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_extremes(self):
        vals = list(range(1, 101))
        assert percentile(vals, 0) == 1
        assert percentile(vals, 100) == 100
        assert percentile(vals, 99) == 99

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
