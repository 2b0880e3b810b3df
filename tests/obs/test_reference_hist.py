"""Buffered latency histograms against the per-sample twin.

``tests/obs/reference_hist.py`` records one Welford step and one bucket
count per observation, as the library did before histograms buffered
their samples and folded them on read.  Both must report the same
floats: the fold runs the same update over the samples in arrival order.
"""

import random

import pytest

from repro.obs import LatencyHistogram
from repro.obs.metrics import FOLD_AT
from repro.scenarios import judged_run

from tests.obs.reference_hist import ReferenceHistogram, patch_reference


def _sample(rng, halves):
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.2 and halves:  # frexp exponent 0, the zeros' exponent too
        return rng.uniform(0.5, 1.0)
    return 1.0 + rng.expovariate(1 / 40.0)


@pytest.mark.parametrize("halves", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_to_dict_matches_the_per_sample_twin(seed, halves):
    """Across the fold bound and with reads made mid-stream, which fold
    a partial buffer; with and without samples that share the zeros'
    exponent."""
    rng = random.Random(seed)
    product, twin = LatencyHistogram("h"), ReferenceHistogram("h")
    assert product.to_dict() == twin.to_dict()
    reads = sorted(rng.sample(range(1, 3 * FOLD_AT), 12))
    for i in range(3 * FOLD_AT + 7):
        us = _sample(rng, halves)
        product.observe(us)
        twin.observe(us)
        if reads and i == reads[0]:
            reads.pop(0)
            assert product.to_dict() == twin.to_dict()
            assert (product.zeros, product.buckets) == (twin.zeros,
                                                        twin.buckets)
    assert len(product.samples) < FOLD_AT
    assert product.to_dict() == twin.to_dict()
    assert product.samples == []
    assert (product.zeros, product.buckets) == (twin.zeros, twin.buckets)


@pytest.mark.parametrize("row", ["ncosed", "ddss"])
def test_obs_row_exports_match_the_per_sample_twin(row, monkeypatch):
    obs = judged_run(row, seed=3)[1]
    product = obs.metrics.to_dict()
    patch_reference(monkeypatch)
    reference = judged_run(row, seed=3)[1].metrics.to_dict()
    assert product == reference
    counts = [h["count"] for h in product["histograms"].values()]
    assert counts and max(counts) > 0
