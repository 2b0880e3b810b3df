"""Tests for workload generators (Zipf, file sets, RUBiS, thread churn)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net import Cluster
from repro.workloads import (
    FileSet,
    RubisMix,
    ThreadChurn,
    ZipfGenerator,
    zipf_pmf,
)
from repro.workloads.threads import BASE


class TestZipf:
    def test_pmf_sums_to_one(self):
        pmf = zipf_pmf(1000, 0.8)
        assert pmf.sum() == pytest.approx(1.0)

    def test_pmf_monotone_decreasing(self):
        pmf = zipf_pmf(100, 0.9)
        assert (np.diff(pmf) <= 0).all()

    def test_alpha_zero_is_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert np.allclose(pmf, 0.1)

    def test_higher_alpha_more_concentrated(self):
        rng = np.random.default_rng(0)
        hot_09 = ZipfGenerator(1000, 0.9, rng)._cdf[49]
        hot_02 = ZipfGenerator(1000, 0.2, rng)._cdf[49]
        assert hot_09 > hot_02 + 0.2

    def test_generator_respects_range(self):
        gen = ZipfGenerator(50, 0.8, np.random.default_rng(1))
        docs = gen.batch(5000)
        assert docs.min() >= 0 and docs.max() < 50

    def test_empirical_frequency_tracks_pmf(self):
        gen = ZipfGenerator(20, 1.0, np.random.default_rng(2))
        docs = gen.batch(60_000)
        freq0 = (docs == 0).mean()
        assert freq0 == pytest.approx(zipf_pmf(20, 1.0)[0], rel=0.1)

    def test_deterministic_given_seed(self):
        a = ZipfGenerator(100, 0.7, np.random.default_rng(3)).batch(100)
        b = ZipfGenerator(100, 0.7, np.random.default_rng(3)).batch(100)
        assert (a == b).all()

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            zipf_pmf(0, 0.5)
        with pytest.raises(ConfigError):
            zipf_pmf(10, -1.0)
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                zipf_pmf(10, alpha)

    @given(st.integers(1, 500), st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_pmf_valid_distribution(self, n, alpha):
        pmf = zipf_pmf(n, alpha)
        assert pmf.shape == (n,)
        assert (pmf > 0).all()
        assert pmf.sum() == pytest.approx(1.0)


class TestFileSet:
    def test_fixed_sizes(self):
        fs = FileSet(10, 4096)
        assert fs.size(3) == 4096

    def test_per_doc_sizes(self):
        fs = FileSet(3, [100, 200, 300])
        assert [fs.size(i) for i in range(3)] == [100, 200, 300]

    def test_tokens_unique_and_deterministic(self):
        fs = FileSet(100, 1024, seed=5)
        tokens = {fs.token(i) for i in range(100)}
        assert len(tokens) == 100
        fs2 = FileSet(100, 1024, seed=5)
        assert fs.token(42) == fs2.token(42)

    def test_different_seed_different_tokens(self):
        assert (FileSet(10, 10, seed=1).token(0)
                != FileSet(10, 10, seed=2).token(0))

    def test_verify(self):
        fs = FileSet(10, 10)
        assert fs.verify(1, fs.token(1))
        assert not fs.verify(1, fs.token(2))

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            FileSet(0, 10)
        with pytest.raises(ConfigError):
            FileSet(2, [10])
        with pytest.raises(ConfigError):
            FileSet(2, [10, -1])
        with pytest.raises(ConfigError):
            FileSet(1, 10).token(5)


class TestRubis:
    def test_mix_samples_all_types_eventually(self):
        mix = RubisMix(np.random.default_rng(0))
        seen = {mix.next().name for _ in range(3000)}
        assert len(seen) == len(mix.mix)

    def test_mean_cpu_positive_and_divergent(self):
        mix = RubisMix(np.random.default_rng(0))
        assert mix.mean_cpu_us() > 0
        # divergence is the point: std dev comparable to the mean
        mean = mix.mean_cpu_us()
        variance = sum(p * (t.cpu_us - mean) ** 2
                       for t, p in zip(mix.mix, mix._p))
        assert variance ** 0.5 > 0.5 * mean

    def test_weights_respected_statistically(self):
        mix = RubisMix(np.random.default_rng(1))
        names = [mix.next().name for _ in range(20_000)]
        share = names.count("view-item") / len(names)
        assert share == pytest.approx(0.28, abs=0.03)


class TestThreadChurn:
    def test_walk_stays_in_bounds(self):
        cluster = Cluster(n_nodes=1, seed=0)
        churn = ThreadChurn(cluster.nodes[0], cluster.rng.get("c"),
                            swing=5, step_every_us=100.0)
        values = []

        def sample(env):
            # halfway between two steps, 500 times
            yield env.timeout(50.0)
            while True:
                values.append(churn.current)
                yield env.timeout(100.0)

        cluster.env.process(sample(cluster.env))
        cluster.env.run(until=50_000.0)
        assert len(values) == 500
        assert min(values) == BASE - 5
        assert max(values) == BASE + 5

    def test_background_load_applied(self):
        cluster = Cluster(n_nodes=1, seed=0)
        churn = ThreadChurn(cluster.nodes[0], cluster.rng.get("c"),
                            swing=0)
        assert cluster.nodes[0].cpu.active_jobs == BASE == churn.current

    def test_bad_config(self):
        cluster = Cluster(n_nodes=1, seed=0)
        with pytest.raises(ConfigError):
            ThreadChurn(cluster.nodes[0], cluster.rng.get("c"),
                        swing=BASE + 1)
        with pytest.raises(ConfigError):
            ThreadChurn(cluster.nodes[0], cluster.rng.get("c"),
                        swing=2, max_step=0)
