"""Optimal linear denoiser for a Gaussian data model.

All operations work in the eigenbasis of the covariance: apply U^T, scale
each direction, apply U; the dense inverse is never formed here. Every
guidance term is written with the resolvent R = (Sigma + sigma^2)^-1, never
as a difference of shrinkage factors S~ = Sigma R, which cancels at small
sigma: the score -R (x - mu), the mean shift sigma^2 R_uc (mu_c - mu_uc), the
CPC contrast sigma^2 (R_uc - R_c), formed as the product sigma^2 R_uc
(Sigma_c - Sigma_uc) R_c, which does not cancel at large sigma either
(``cpca.posterior_contrast``), the mixture's
gamma sum_{i != t} w_i (R_i - R_t)(x - mu_t) (``gmm.gmm_cfg_guidance``).
Gaussian sampling writes them in the cond eigenbasis
(``sampler._CondBasisFlow``), and its tests hold it to dense solves.

Vector arguments are states of ``errors.check_state``, of the stats'
dimension; the result matches the input shape.
"""

from __future__ import annotations

import numpy as np

from .errors import check_sigma, check_state
from .stats import GaussianStats, check_pair


def shrinkage(stats: GaussianStats, sigma: float) -> np.ndarray:
    """Per-eigendirection attenuation factors lam_i/(lam_i + sigma^2)."""
    check_sigma(sigma)
    lam = stats.eigvals
    return lam / (lam + sigma * sigma)


def _project(stats: GaussianStats, v: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """U diag(factors) U^T v in the eigenbasis of stats."""
    return ((v @ stats.eigvecs) * factors) @ stats.eigvecs.T


def shrink(stats: GaussianStats, v: np.ndarray, sigma: float) -> np.ndarray:
    """U diag(f) U^T v: v attenuated by the shrinkage factors at sigma."""
    return _project(stats, check_state(v, stats.d, "vector"), shrinkage(stats, sigma))


def denoise(stats: GaussianStats, x: np.ndarray, sigma: float) -> np.ndarray:
    """Posterior mean mu + U diag(f) U^T (x - mu) of the clean signal."""
    x = check_state(x, stats.d, "vector")
    return stats.mean + shrink(stats, x - stats.mean, sigma)


def score(stats: GaussianStats, x: np.ndarray, sigma: float) -> np.ndarray:
    """Score of the noise-mollified Gaussian, (denoise(x) - x) / sigma^2,
    evaluated as -U diag(1/(lam + sigma^2)) U^T (x - mu). The equal form
    sigma^-2 U diag(f - 1) U^T (x - mu) cancels in f - 1 at small sigma."""
    check_sigma(sigma)
    x = check_state(x, stats.d, "vector")
    return _project(stats, stats.mean - x, 1.0 / (stats.eigvals + sigma * sigma))


def mean_shift(cond: GaussianStats, uncond: GaussianStats, sigma: float) -> np.ndarray:
    """Mean-shift direction (I - S~_uc)(mu_c - mu_uc) = sigma^2 (Sigma_uc + sigma^2)^-1
    (mu_c - mu_uc), that is -sigma^2 score(uncond, mu_c, sigma)."""
    check_pair(cond, uncond)
    return -(sigma * sigma) * score(uncond, cond.mean, sigma)


def shrunk_covariance(stats: GaussianStats, sigma: float) -> np.ndarray:
    """U diag(f) U^T, the posterior covariance in shrinkage units (no sigma^2)."""
    U = stats.eigvecs
    return (U * shrinkage(stats, sigma)) @ U.T

