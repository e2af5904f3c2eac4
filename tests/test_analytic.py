import warnings

import numpy as np
import pytest

from lincfg import analytic, sampler
from lincfg.analytic import CommonPCPair, CommonPCRejection
from lincfg.errors import DataError, QuadratureError, ShapeError
from lincfg.stats import spectral_from_covariance
from lincfg.synthetic import (toy_common_pair, toy_conditional_stats,
                              toy_unconditional_stats)
from lincfg.verify import b_equal_antiderivative, riemann_b_coefficient


class TestCheckCommonPC:
    def test_identical_stats_accepted(self):
        cond = toy_conditional_stats()
        res = analytic.check_common_pc(cond, cond)
        assert isinstance(res, CommonPCPair)
        np.testing.assert_allclose(res.lam_uc, res.lam_c, atol=1e-12)
        assert res.offdiag_mass < 1e-12

    def test_toy_pair_accepted_with_unsorted_lam_uc(self):
        res = analytic.check_common_pc(toy_conditional_stats(),
                                       toy_unconditional_stats())
        assert isinstance(res, CommonPCPair)
        np.testing.assert_allclose(res.lam_c, [10.0, 3.0], atol=1e-12)
        # expressed in the conditional basis the order is (3, 10): not sorted
        np.testing.assert_allclose(res.lam_uc, [3.0, 10.0], atol=1e-12)

    def test_rotated_covariance_rejected(self):
        cond = toy_conditional_stats()
        th = np.deg2rad(30.0)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        cov = R @ toy_unconditional_stats().covariance() @ R.T
        res = analytic.check_common_pc(cond, spectral_from_covariance(np.zeros(2), cov))
        assert isinstance(res, CommonPCRejection)
        assert res.commutator_norm > 1e-3

    def test_commutator_is_direct_computation(self):
        cond = toy_conditional_stats()
        th = np.deg2rad(30.0)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        sig_uc = R @ toy_unconditional_stats().covariance() @ R.T
        res = analytic.check_common_pc(cond, spectral_from_covariance(np.zeros(2), sig_uc))
        sig_c = cond.covariance()
        comm = np.linalg.norm(sig_c @ sig_uc - sig_uc @ sig_c)
        rel = comm / (np.linalg.norm(sig_c) * np.linalg.norm(sig_uc))
        assert res.commutator_norm == pytest.approx(rel, rel=1e-12)


class TestHFactor:
    def test_equal_eigenvalues_give_one(self):
        assert analytic.h_factor(7.0, 7.0, 0.01, 50.0) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_interval_gives_one(self):
        assert analytic.h_factor(10.0, 3.0, 2.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_toy_value(self):
        got = analytic.h_factor(10.0, 3.0, 0.002, 80.0)
        direct = (10.0 + 0.002**2) / (10.0 + 80.0**2) * (3.0 + 80.0**2) / (3.0 + 0.002**2)
        assert got == pytest.approx(direct, rel=1e-15)
        assert got == pytest.approx(3.3297, abs=5e-4)

    def test_monotone_amplification(self):
        lams = np.array([0.0, 0.1, 1.0, 5.0, 30.0])
        g = analytic.h_factor(lams[:, None], lams[None, :], 0.01, 40.0)
        bigger = lams[:, None] >= lams[None, :]
        # exact in real arithmetic; allow one ulp of ratio round-off
        assert np.all(g[bigger] >= 1.0 - 1e-15)
        assert np.all(g[~bigger] <= 1.0 + 1e-15)

    def test_gamma_monotonicity_of_scaling(self):
        gammas = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        up = analytic.h_factor(10.0, 3.0, 0.01, 40.0) ** (gammas / 2.0)
        down = analytic.h_factor(3.0, 10.0, 0.01, 40.0) ** (gammas / 2.0)
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            analytic.h_factor(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            analytic.h_factor(-1.0, 1.0, 1.0, 2.0)


class TestBCoefficient:
    def test_empty_interval_is_zero(self):
        assert analytic.b_coefficient(10.0, 3.0, 5.0, 5.0, 1.0) == 0.0

    def test_equal_lambda_closed_form(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            lam = float(rng.uniform(0.05, 10.0))
            st_ = float(rng.uniform(0.002, 1.0))
            sT = float(rng.uniform(5.0, 80.0))
            gamma = float(rng.uniform(0.0, 4.0))
            exact = b_equal_antiderivative(lam, st_, sT)
            assert analytic.b_coefficient(lam, lam, st_, sT, gamma) \
                == pytest.approx(exact, abs=1e-12)
            # force the quadrature path with a sub-1e-10 eigenvalue gap
            assert analytic.b_coefficient(lam, lam + 1e-11, st_, sT, gamma) \
                == pytest.approx(exact, abs=1e-10)

    def test_against_riemann_sum(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            lam_c = float(rng.uniform(0.1, 10.0))
            lam_uc = float(rng.uniform(0.1, 10.0))
            gamma = float(rng.uniform(0.0, 4.0))
            got = analytic.b_coefficient(lam_c, lam_uc, 0.002, 80.0, gamma)
            ref = riemann_b_coefficient(lam_c, lam_uc, 0.002, 80.0, gamma)
            assert got == pytest.approx(ref, abs=1e-8 * max(1.0, abs(ref)))

    def test_nonnegative(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            b = analytic.b_coefficient(float(rng.uniform(0, 10)),
                                       float(rng.uniform(0, 10)),
                                       0.01, float(rng.uniform(1, 80)),
                                       float(rng.uniform(0, 5)))
            assert b >= 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            analytic.b_coefficient(1.0, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            analytic.b_coefficient(1.0, 1.0, 0.1, 1.0, -0.5)


def test_adaptive_quadrature_smooth():
    got = analytic.adaptive_quadrature(np.sin, 0.0, np.pi, tol=1e-12)
    assert got == pytest.approx(2.0, abs=1e-12)


def test_adaptive_quadrature_nonconvergence_carries_estimate():
    rng_f = lambda s: np.sin(1e5 * s * s)
    with pytest.raises(QuadratureError) as exc:
        analytic.adaptive_quadrature(rng_f, 0.0, 10.0, tol=1e-14, max_depth=3)
    assert np.isfinite(exc.value.estimate)


_NON_FINITE = {
    "b_gamma_nan": lambda: analytic.b_coefficient(1.0, 2.0, 0.1, 1.0, np.nan),
    "b_gamma_inf": lambda: analytic.b_coefficient(1.0, 2.0, 0.1, 1.0, np.inf),
    "b_lam_c_nan": lambda: analytic.b_coefficient(np.nan, 2.0, 0.1, 1.0, 1.0),
    "b_lam_c_inf": lambda: analytic.b_coefficient(np.inf, 2.0, 0.1, 1.0, 1.0),
    "b_sigma_T_inf": lambda: analytic.b_coefficient(1.0, 2.0, 0.1, np.inf, 1.0),
    "h_lam_uc_nan": lambda: analytic.h_factor(1.0, np.nan, 0.1, 1.0),
    "h_sigma_T_inf": lambda: analytic.h_factor(1.0, 2.0, 0.1, np.inf),
    "cfg_gamma_inf": lambda: analytic.closed_form_cfg(toy_common_pair(), np.ones(2),
                                                      0.002, 80.0, np.inf),
    "cfg_sigma_T_inf": lambda: analytic.closed_form_cfg(toy_common_pair(), np.ones(2),
                                                        0.002, np.inf, 1.0),
}


@pytest.mark.parametrize("entry", [*_NON_FINITE, "quadrature"])
def test_non_finite_input_fails_fast(entry):
    """A non-finite sigma, eigenvalue or gamma is a ValueError, and a
    non-finite panel estimate stops the quadrature at once, where splitting
    it down to the depth limit never returned."""
    if entry == "quadrature":
        with pytest.raises(QuadratureError, match="non-finite"):
            analytic.adaptive_quadrature(lambda s: np.full_like(s, np.nan), 0.0, 1.0, tol=1e-10)
    else:
        with pytest.raises(ValueError, match="finite"):
            _NON_FINITE[entry]()


class TestCommonPCPairInputs:
    """A pair whose basis or means are not finite fails at construction,
    so ``closed_form_cfg`` never sees it and cannot return NaN."""

    @staticmethod
    def _pair(**bad):
        pair = toy_common_pair()
        fields = dict(eigvecs=pair.eigvecs, lam_c=pair.lam_c, lam_uc=pair.lam_uc,
                      mu_c=pair.mu_c, mu_uc=pair.mu_uc)
        return CommonPCPair(**{**fields, **bad})

    def test_nan_basis_is_rejected(self):
        with pytest.raises(DataError, match="^eigenbasis contains non-finite entries$"):
            self._pair(eigvecs=np.full((2, 2), np.nan))

    def test_inf_basis_entry_is_rejected_without_a_warning(self):
        U = toy_common_pair().eigvecs.copy()
        U[1, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^eigenbasis contains non-finite entries$"):
                self._pair(eigvecs=U)

    @pytest.mark.parametrize("name", ["mu_c", "mu_uc"])
    def test_nan_mean_is_rejected(self, name):
        with pytest.raises(DataError, match=f"^{name} contains non-finite entries$"):
            self._pair(**{name: np.array([np.nan, 0.0])})

    def test_closed_form_of_a_nan_pair_raises(self):
        with pytest.raises(DataError):
            analytic.closed_form_cfg(self._pair(mu_uc=np.array([0.0, np.nan])),
                                     np.ones((1, 2)), 0.1, 1.0, 2.0)


class TestClosedFormCfg:
    def test_gamma_zero_reduces_to_unguided(self):
        pair = toy_common_pair()
        cond = toy_conditional_stats()
        rng = np.random.default_rng(53)
        xT = rng.standard_normal((16, 2)) * 80.0
        a = analytic.closed_form_cfg(pair, xT, 0.002, 80.0, 0.0)
        b = sampler.closed_form_unguided(cond, xT, 80.0, 0.002)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_equal_means_drop_shift_term(self):
        pair = CommonPCPair(eigvecs=toy_common_pair().eigvecs,
                            lam_c=np.array([10.0, 3.0]), lam_uc=np.array([3.0, 10.0]),
                            mu_c=np.array([2.0, -1.0]), mu_uc=np.array([2.0, -1.0]))
        xT = np.array([30.0, -10.0])
        st_, sT, gamma = 0.01, 60.0, 1.5
        got = analytic.closed_form_cfg(pair, xT, st_, sT, gamma)
        # manual: only the h^(gamma/2)-scaled homogeneous part survives
        U, lam_c, lam_uc = pair.eigvecs, pair.lam_c, pair.lam_uc
        coef = (analytic.h_factor(lam_c, lam_uc, st_, sT) ** (gamma / 2)
                * np.sqrt((lam_c + st_**2) / (lam_c + sT**2)))
        expect = pair.mu_c + U @ (coef * (U.T @ (xT - pair.mu_c)))
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_rejects_a_non_finite_state(self):
        """The start rule of ``sampler.integrate``: same type, same message."""
        with pytest.raises(ShapeError) as exc:
            analytic.closed_form_cfg(toy_common_pair(), np.array([[np.nan, 0.0]]),
                                     0.1, 1.0, 2.0)
        assert str(exc.value) == "initial state contains non-finite entries"

    def test_sigma_identity_shortcut(self):
        pair = toy_common_pair()
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            analytic.closed_form_cfg(pair, x, 3.0, 3.0, 2.0), x)
