import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincfg import cpca
from lincfg.errors import ShapeError
from lincfg.synthetic import (random_orthonormal, random_stats_pair, toy_conditional_stats,
                              toy_unconditional_stats)


def test_no_contrast_gives_zero_spectrum():
    A = np.diag([2.0, 1.0])
    spec = cpca.contrastive_components(A, A)
    np.testing.assert_array_equal(spec.eigvals, 0.0)
    assert spec.n_pos == 0 and spec.n_neg == 0


def test_toy_posterior_cpcs_at_sigma_one():
    spec = cpca.posterior_cpcs(toy_conditional_stats(), toy_unconditional_stats(), 1.0)
    gap = 10.0 / 11.0 - 3.0 / 4.0  # 0.159090909...
    np.testing.assert_allclose(spec.eigvals, [gap, -gap], atol=1e-14)
    assert spec.n_pos == 1 and spec.n_neg == 1
    top = spec.eigvecs[:, 0]
    np.testing.assert_allclose(np.abs(top), [1.0 / np.sqrt(2.0)] * 2, atol=1e-12)


@pytest.mark.parametrize("sigma", [1e-2, 1e-3])
@pytest.mark.parametrize("d", [8, 128])
def test_posterior_cpcs_eigenvalues_match_dense_solves(d, sigma):
    """The contrast S~_c - S~_uc is sigma^2 [(Sigma_uc + sigma^2)^-1 - (Sigma_c
    + sigma^2)^-1]. The difference of the shrunk covariances cancels at small
    sigma and misses its eigenvalues by up to 2.4e-10 of max|lambda| at 1e-3."""
    cond, uncond = random_stats_pair(d, np.random.default_rng(d))
    inv_uc, inv_c = (np.linalg.solve(s.covariance() + sigma**2 * np.eye(d), np.eye(d))
                     for s in (uncond, cond))
    contrast = sigma**2 * (inv_uc - inv_c)
    ref = np.linalg.eigvalsh(0.5 * (contrast + contrast.T))[::-1]
    got = cpca.posterior_cpcs(cond, uncond, sigma).eigvals
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_grid_search_oracle():
    rng = np.random.default_rng(20)
    angles = np.linspace(0.0, np.pi, 3600, endpoint=False)
    vs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for _ in range(10):
        def sym():
            q = random_orthonormal(2, rng)
            return (q * rng.uniform(0.5, 10.0, 2)) @ q.T
        A, B = sym(), sym()
        spec = cpca.contrastive_components(A, B)
        quad = np.einsum("ij,jk,ik->i", vs, A - B, vs)
        v_grid = vs[int(np.argmax(quad))]
        cosang = abs(v_grid @ spec.eigvecs[:, 0])
        assert np.degrees(np.arccos(min(cosang, 1.0))) < 0.2


def test_asymmetric_input_rejected():
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        cpca.contrastive_components(A, np.eye(2))


def test_roundoff_asymmetry_absorbed():
    A = np.array([[1.0, 0.3], [0.3 + 1e-12, 1.0]])
    spec = cpca.contrastive_components(A, np.eye(2))
    recon = (spec.eigvecs * spec.eigvals) @ spec.eigvecs.T
    sym = 0.5 * (A + A.T) - np.eye(2)
    np.testing.assert_allclose(recon, sym, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
def test_reconstruction_property(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    A = 0.5 * (A + A.T)
    B = rng.standard_normal((d, d))
    B = 0.5 * (B + B.T)
    spec = cpca.contrastive_components(A, B)
    recon = (spec.eigvecs * spec.eigvals) @ spec.eigvecs.T
    tol = 1e-8 * max(1e-30, float(np.max(np.abs(A - B))))
    assert np.max(np.abs(recon - (A - B))) <= tol
    # orthonormality of the eigvecs
    assert np.max(np.abs(spec.eigvecs.T @ spec.eigvecs - np.eye(d))) < 1e-10
    # descending order
    assert np.all(np.diff(spec.eigvals) <= 1e-12)


def test_positive_negative_partition():
    A = np.diag([3.0, 1.0, 1.0, 0.2])
    B = np.diag([1.0, 1.0, 1.0, 1.0])
    spec = cpca.contrastive_components(A, B)
    pos_vals, pos_vecs = spec.positive
    neg_vals, neg_vecs = spec.negative
    assert spec.n_pos == 1 and spec.n_neg == 1
    assert pos_vals[0] == pytest.approx(2.0)
    assert neg_vals[-1] == pytest.approx(-0.8)
    # zero eigenvalues belong to neither set
    assert pos_vecs.shape[1] + neg_vecs.shape[1] == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_tolerance_scales_with_largest_magnitude(seed):
    # a dominant negative part leaves round-off of ~1e-8 on the zero
    # eigenvalues; it must not count as CPCs while the 1e-3 one still does
    lam = np.concatenate([[1e-3], np.zeros(10), np.full(39, -1e8)])
    q = random_orthonormal(lam.size, np.random.default_rng(seed))
    diff = (q * lam) @ q.T
    spec = cpca.contrastive_components(0.5 * (diff + diff.T), np.zeros_like(diff))
    assert (spec.n_pos, spec.n_neg) == (1, 39)
    assert spec.positive[1].shape[1] == 1 and spec.negative[1].shape[1] == 39


def test_posterior_cpcs_equal_stats_zero():
    cond = toy_conditional_stats()
    spec = cpca.posterior_cpcs(cond, cond, 2.0)
    np.testing.assert_allclose(spec.eigvals, 0.0, atol=1e-15)


def test_posterior_cpcs_sign_rule_under_common_basis():
    # under a shared eigenbasis the eigenvalue sign follows lam_c vs lam_uc
    cond = toy_conditional_stats()
    uncond = toy_unconditional_stats()
    for sigma in (0.05, 1.0, 20.0):
        spec = cpca.posterior_cpcs(cond, uncond, sigma)
        f = lambda lam: lam / (lam + sigma**2)
        np.testing.assert_allclose(sorted(spec.eigvals),
                                   sorted([f(10.) - f(3.), f(3.) - f(10.)]),
                                   atol=1e-14)


def test_variance_along_eigvec_gives_eigenvalue():
    cond = toy_conditional_stats()
    assert cpca.variance_along(cond, cond.eigvecs[:, 0]) == pytest.approx(10.0)
    assert cpca.variance_along(cond, cond.eigvecs[:, 1]) == pytest.approx(3.0)


def test_variance_along_toy_axis():
    assert cpca.variance_along(toy_conditional_stats(), np.array([1.0, 0.0])) \
        == pytest.approx(6.5)


def test_variance_along_zero_covariance():
    from lincfg.stats import GaussianStats
    z = GaussianStats(mean=np.zeros(3), eigvecs=np.eye(3), eigvals=np.zeros(3))
    assert cpca.variance_along(z, np.array([0.0, 1.0, 0.0])) == 0.0


def test_variance_along_requires_unit_vector():
    with pytest.raises(ValueError, match="unit"):
        cpca.variance_along(toy_conditional_stats(), np.array([1.0, 1.0]))


def test_dimension_mismatch():
    from lincfg.stats import GaussianStats
    other = GaussianStats(mean=np.zeros(3), eigvecs=np.eye(3), eigvals=np.ones(3))
    with pytest.raises(ShapeError):
        cpca.posterior_cpcs(toy_conditional_stats(), other, 1.0)
