import numpy as np
import pytest

from lincfg import metrics, sampler
from lincfg.errors import DataError
from lincfg.stats import GaussianStats
from lincfg.synthetic import (random_stats, toy_conditional_stats,
                              toy_unconditional_stats)


class TestProjectHistogram:
    def test_all_samples_at_center(self):
        samples = np.tile([2.0, -1.0], (20, 1))
        hist = metrics.project_histogram(samples, np.array([1.0, 0.0]),
                                         np.array([2.0, -1.0]), n_bins=10)
        np.testing.assert_array_equal(hist.values, 0.0)
        assert hist.counts.sum() == 20
        assert np.all(np.diff(hist.bin_edges) > 0)

    def test_counts_conserve_samples(self):
        rng = np.random.default_rng(60)
        samples = rng.standard_normal((137, 3))
        hist = metrics.project_histogram(samples, np.array([0.0, 1.0, 0.0]),
                                         np.zeros(3), n_bins=13)
        assert hist.counts.sum() == 137
        assert len(hist.bin_edges) == 14

    def test_projection_std_matches_eigenvalue(self):
        stats = toy_conditional_stats()
        rng = np.random.default_rng(61)
        samples = rng.multivariate_normal(stats.mean, stats.covariance(),
                                          size=10_000)
        for i, lam in enumerate([10.0, 3.0]):
            hist = metrics.project_histogram(samples, stats.eigvecs[:, i],
                                             stats.mean)
            assert hist.std == pytest.approx(np.sqrt(lam), rel=0.05)

    def test_magnitude_flag(self):
        samples = np.array([[1.0], [-1.0], [2.0]])
        hist = metrics.project_histogram(samples, np.array([1.0]), np.zeros(1),
                                         magnitude=True)
        np.testing.assert_array_equal(np.sort(hist.values), [1.0, 1.0, 2.0])
        assert hist.values.min() >= 0

    def test_quantiles_by_linear_interpolation(self):
        samples = np.arange(1.0, 6.0)[:, None]  # 1..5
        hist = metrics.project_histogram(samples, np.array([1.0]), np.zeros(1))
        np.testing.assert_allclose(hist.quantiles,
                                   [1.2, 2.0, 3.0, 4.0, 4.8])

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            metrics.project_histogram(np.ones((3, 2)), np.array([1.0, 1.0]),
                                      np.zeros(2))

    def test_rejects_empty_batch(self):
        with pytest.raises(DataError):
            metrics.project_histogram(np.empty((0, 2)), np.array([1.0, 0.0]),
                                      np.zeros(2))


class TestGaussianFrechet:
    def test_identical_stats_zero(self):
        a = toy_conditional_stats()
        assert metrics.gaussian_frechet(a, a) == 0.0

    def test_mean_offset_only(self):
        a = GaussianStats(mean=np.array([1.0, 2.0]), eigvecs=np.eye(2),
                          eigvals=np.zeros(2))
        b = GaussianStats(mean=np.array([-2.0, 6.0]), eigvecs=np.eye(2),
                          eigvals=np.zeros(2))
        assert metrics.gaussian_frechet(a, b) == pytest.approx(9.0 + 16.0, abs=1e-12)

    def test_commuting_diagonal_case(self):
        lam_a = np.array([4.0, 1.0])
        lam_b = np.array([9.0, 0.25])
        a = GaussianStats(mean=np.zeros(2), eigvecs=np.eye(2), eigvals=lam_a)
        b = GaussianStats(mean=np.array([1.0, 0.0]), eigvecs=np.eye(2),
                          eigvals=lam_b)
        expect = 1.0 + np.sum((np.sqrt(lam_a) - np.sqrt(lam_b)) ** 2)
        assert metrics.gaussian_frechet(a, b) == pytest.approx(expect, rel=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            a = random_stats(4, rng)
            b = random_stats(4, rng)
            ab = metrics.gaussian_frechet(a, b)
            ba = metrics.gaussian_frechet(b, a)
            assert abs(ab - ba) < 1e-9 * max(1.0, ab)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(63)
        a = random_stats(3, rng)
        b = random_stats(3, rng)
        assert metrics.gaussian_frechet(a, b) > 0
        assert metrics.gaussian_frechet(a, a) == 0.0


class TestSimilarityMatrix:
    def test_identical_classes(self):
        a = toy_conditional_stats()
        m = metrics.class_similarity_matrix([a, a])
        np.testing.assert_array_equal(m, np.zeros((2, 2)))

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(64)
        stats = [random_stats(3, rng) for _ in range(4)]
        m = metrics.class_similarity_matrix(stats)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 0.0)
        assert np.all(m[np.triu_indices(4, 1)] > 0)

    def test_toy_pair_matches_diagonal_formula(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        m = metrics.class_similarity_matrix([cond, uncond])
        # shared eigenbasis: |dmu|^2 + sum (sqrt(lam_c) - sqrt(lam_uc))^2
        expect = 32.0 + 2.0 * (np.sqrt(10.0) - np.sqrt(3.0)) ** 2
        assert m[0, 1] == pytest.approx(expect, rel=1e-10)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            metrics.class_similarity_matrix([toy_conditional_stats()])


class TestMeanShiftedInit:
    def test_gamma_zero_is_zero_shift(self):
        spec = metrics.mean_shifted_init(toy_conditional_stats(),
                                         toy_unconditional_stats(), 0.0, 31.9)
        np.testing.assert_array_equal(spec.shift, 0.0)
        assert spec.std == 31.9

    def test_shift_formula(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        for gamma in (0.0, 1.0, 3.0, 5.0, 7.0, 9.0, 10.0, 15.0, 20.0):
            spec = metrics.mean_shifted_init(cond, uncond, gamma, 31.9)
            np.testing.assert_allclose(spec.shift,
                                       gamma * (cond.mean - uncond.mean))

    def test_domain(self):
        with pytest.raises(ValueError):
            metrics.mean_shifted_init(toy_conditional_stats(),
                                      toy_unconditional_stats(), -1.0, 31.9)
        # the start-noise std is checked where it is drawn
        spec = metrics.mean_shifted_init(toy_conditional_stats(),
                                         toy_unconditional_stats(), 1.0, -1.0)
        with pytest.raises(ValueError):
            sampler.draw_initial_states(2, 1, 0, sampler.make_schedule(), spec)
