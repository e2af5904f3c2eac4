from functools import partial

import numpy as np
import pytest

from lincfg import denoiser
from lincfg.errors import ShapeError
from lincfg.synthetic import random_stats, random_stats_pair, toy_conditional_stats


def dense_denoise(stats, x, sigma):
    """Brute-force matrix oracle: mu + U diag(f) U^T (x - mu)."""
    f = stats.eigvals / (stats.eigvals + sigma**2)
    M = stats.eigvecs @ np.diag(f) @ stats.eigvecs.T
    return stats.mean + M @ (x - stats.mean)


def test_shrinkage_values():
    stats = toy_conditional_stats()
    f = denoiser.shrinkage(stats, 80.0)
    np.testing.assert_allclose(f, [10.0 / 6410.0, 3.0 / 6403.0], rtol=1e-15)


def test_shrinkage_zero_eigenvalue_component():
    from lincfg.stats import GaussianStats
    stats = GaussianStats(mean=np.zeros(2), eigvecs=np.eye(2),
                          eigvals=np.array([4.0, 0.0]))
    f = denoiser.shrinkage(stats, 1.0)
    assert f[1] == 0.0
    assert 0.0 <= f[0] < 1.0


def test_shrinkage_small_sigma_limit():
    stats = toy_conditional_stats()
    f = denoiser.shrinkage(stats, 1e-9)
    np.testing.assert_allclose(f, 1.0, atol=1e-15)


def test_shrinkage_rejects_nonpositive_sigma():
    stats = toy_conditional_stats()
    with pytest.raises(ValueError):
        denoiser.shrinkage(stats, 0.0)
    with pytest.raises(ValueError):
        denoiser.shrinkage(stats, -1.0)
    for call in (denoiser.shrinkage, partial(denoiser.score, x=stats.mean),
                 partial(denoiser.denoise, x=stats.mean),
                 partial(denoiser.mean_shift, toy_conditional_stats())):
        with pytest.raises(ValueError, match="finite and positive"):
            call(stats, sigma=np.inf)


def test_denoise_fixed_point_at_mean():
    stats = toy_conditional_stats()
    for sigma in (0.01, 1.0, 500.0):
        np.testing.assert_allclose(denoiser.denoise(stats, stats.mean, sigma),
                                   stats.mean, atol=1e-14)


def test_denoise_infinite_noise_returns_mean():
    stats = toy_conditional_stats()
    x = np.array([37.0, -12.0])
    out = denoiser.denoise(stats, x, 1e9)
    np.testing.assert_allclose(out, stats.mean, atol=1e-12)


def test_denoise_toy_hand_value():
    # x = (1,1) is sqrt(2) u1 for the zero-mean toy; factor 10/11 at sigma=1
    stats = toy_conditional_stats(mu=(0.0, 0.0))
    out = denoiser.denoise(stats, np.array([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(out, [10.0 / 11.0, 10.0 / 11.0], rtol=1e-15)


def test_denoise_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        stats = random_stats(int(rng.integers(1, 9)), rng)
        x = rng.standard_normal(stats.d) * 5.0
        sigma = float(rng.uniform(0.05, 50.0))
        np.testing.assert_allclose(denoiser.denoise(stats, x, sigma),
                                   dense_denoise(stats, x, sigma), atol=1e-12)


def test_denoise_batched_matches_loop():
    rng = np.random.default_rng(11)
    stats = random_stats(4, rng)
    X = rng.standard_normal((6, 4))
    batch = denoiser.denoise(stats, X, 0.7)
    rows = np.stack([denoiser.denoise(stats, x, 0.7) for x in X])
    # batched matmul and per-row matvec may round differently
    np.testing.assert_allclose(batch, rows, atol=1e-13)


def test_denoise_dimension_mismatch():
    stats = toy_conditional_stats()
    with pytest.raises(ShapeError):
        denoiser.denoise(stats, np.zeros(3), 1.0)


def test_denoise_affine_in_x():
    rng = np.random.default_rng(12)
    stats = random_stats(5, rng)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    for alpha in (-0.5, 0.25, 2.0):
        lhs = denoiser.denoise(stats, alpha * x + (1 - alpha) * y, 0.8)
        rhs = (alpha * denoiser.denoise(stats, x, 0.8)
               + (1 - alpha) * denoiser.denoise(stats, y, 0.8))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_denoise_contraction():
    rng = np.random.default_rng(13)
    stats = random_stats(6, rng)
    for _ in range(50):
        x = rng.standard_normal(6) * rng.uniform(0.1, 100.0)
        sigma = float(rng.uniform(0.01, 100.0))
        d = denoiser.denoise(stats, x, sigma)
        assert np.linalg.norm(d - stats.mean) <= np.linalg.norm(x - stats.mean) + 1e-12


def test_score_zero_at_mean():
    stats = toy_conditional_stats()
    np.testing.assert_allclose(denoiser.score(stats, stats.mean, 2.0), 0.0, atol=1e-14)


def test_score_matches_dense_solve():
    # (D - x)/sigma^2 == -(Sigma + sigma^2 I)^-1 (x - mu), full-rank instances
    rng = np.random.default_rng(14)

    def rel_error(sigma):
        stats = random_stats(int(rng.integers(1, 9)), rng, lam_range=(0.05, 3.0))
        x = rng.standard_normal(stats.d) * 3.0
        got = denoiser.score(stats, x, sigma)
        ref = -np.linalg.solve(stats.covariance() + sigma**2 * np.eye(stats.d),
                               x - stats.mean)
        return float(np.linalg.norm(got - ref)) / max(1e-30, float(np.linalg.norm(ref)))

    assert max(rel_error(float(rng.uniform(0.05, 20.0))) for _ in range(100)) < 1e-8
    # the last steps of the default grid (sigma_min = 0.002): a form that
    # cancels in 1 - lam/(lam + sigma^2) loses eps * lam / sigma^2 here
    assert max(rel_error(sigma) for sigma in (1e-3, 2e-3) for _ in range(50)) < 1e-13


def test_score_isotropic_reduction():
    from lincfg.stats import GaussianStats
    c = 2.5
    stats = GaussianStats(mean=np.zeros(3), eigvecs=np.eye(3), eigvals=np.full(3, c))
    x = np.array([1.0, -2.0, 0.5])
    sigma = 1.3
    np.testing.assert_allclose(denoiser.score(stats, x, sigma),
                               -x / (c + sigma**2), rtol=1e-14)


def test_posterior_cov_zero_rank():
    from lincfg.stats import GaussianStats
    stats = GaussianStats(mean=np.zeros(2), eigvecs=np.eye(2), eigvals=np.zeros(2))
    np.testing.assert_array_equal(3.0**2 * denoiser.shrunk_covariance(stats, 3.0),
                                  np.zeros((2, 2)))


def test_posterior_cov_eigenvalue_bound():
    rng = np.random.default_rng(15)
    stats = random_stats(5, rng, lam_range=(0.0, 4.0))
    for sigma in (0.1, 1.0, 10.0):
        vals = np.linalg.eigvalsh(sigma**2 * denoiser.shrunk_covariance(stats, sigma))
        expect = np.sort(sigma**2 * stats.eigvals / (stats.eigvals + sigma**2))
        np.testing.assert_allclose(vals, expect, atol=1e-12)
        assert np.all(vals <= np.minimum(np.sort(stats.eigvals), sigma**2) + 1e-12)


@pytest.mark.parametrize("sigma", [1e-2, 1e-3])
@pytest.mark.parametrize("d", [8, 32])
def test_mean_shift_matches_dense_solve(d, sigma):
    """mean_shift is sigma^2 (Sigma_uc + sigma^2)^-1 (mu_c - mu_uc). The form
    w - S~_uc w cancels at small sigma: it misses by about 1e-9 at 1e-3."""
    cond, uncond = random_stats_pair(d, np.random.default_rng(d))
    w = cond.mean - uncond.mean
    ref = sigma**2 * np.linalg.solve(uncond.covariance() + sigma**2 * np.eye(d), w)
    got = denoiser.mean_shift(cond, uncond, sigma)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
