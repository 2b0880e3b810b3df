"""The estimators on synthetic samples."""

import statistics

from perf.stats import P99_MIN_SAMPLES, percentile, spread, sum_of_mins


def test_sum_of_mins_takes_each_cells_quietest_round():
    # round sums are 9, 6, 10; the per-cell minima come from different
    # rounds, so the estimator is below the best single round
    cells = [[4.0, 1.0, 5.0], [5.0, 5.0, 2.0], [0.0, 0.0, 3.0]]
    assert sum_of_mins(cells) == 1.0 + 2.0 + 0.0
    assert sum_of_mins(cells) < min(map(sum, zip(*cells)))


def test_spread_is_median_and_python_quartiles():
    samples = [2.63, 3.11, 2.54, 2.68, 2.9]
    s = spread(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    assert s == {"median": 2.68, "q1": q1, "q3": q3, "k": 5}


def test_percentile_is_nearest_rank_on_exact_samples():
    data = sorted(float(i) for i in range(1, 101))
    assert percentile(data, 50.0) == 50.0
    assert percentile(data, 1.0) == 1.0
    assert percentile([3.25], 50.0) == 3.25
    assert percentile([], 50.0) is None


def test_p99_is_null_under_1000_samples():
    short = sorted(float(i) for i in range(P99_MIN_SAMPLES - 1))
    full = sorted(float(i) for i in range(1, P99_MIN_SAMPLES + 1))
    assert percentile(short, 99.0) is None
    assert percentile(short, 50.0) is not None
    # ten samples lie beyond the reported one
    assert percentile(full, 99.0) == 990.0
    assert sum(x > 990.0 for x in full) == 10
