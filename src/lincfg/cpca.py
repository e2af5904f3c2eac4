"""Contrastive principal components: signed eigendecomposition of covariance
differences.

Positive eigenvalues mark directions with more target variance, negative ones
directions dominated by the background set. Eigenvalues within tolerance of
zero belong to neither group. The posterior contrast at a noise level,
which sampling's CPC terms and ``posterior_cpcs`` both read, has one formula,
``posterior_contrast``, written in the cond eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_dimension, check_sigma, check_unit
from .stats import GaussianStats, check_pair, fix_eigvec_signs

_ZERO_TOL_FLOOR = 1e-10
_SYM_TOL = 1e-8  # asymmetry contrastive_components accepts, relative to the largest entry


@dataclass(frozen=True)
class SignedSpectrum:
    """Eigenpairs of a symmetric difference matrix, sorted descending."""

    eigvals: np.ndarray
    eigvecs: np.ndarray
    n_pos: int
    n_neg: int

    @property
    def positive(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigvals, eigvecs) of the positive part; vecs are columns."""
        return self.eigvals[:self.n_pos], self.eigvecs[:, :self.n_pos]

    @property
    def negative(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigvals, eigvecs) of the negative part, still descending order."""
        k = self.eigvals.size - self.n_neg
        return self.eigvals[k:], self.eigvecs[:, k:]


def contrastive_components(A: np.ndarray, B: np.ndarray) -> SignedSpectrum:
    """Signed eigendecomposition of A - B for symmetric A, B.

    Inputs are symmetrized before decomposition to absorb round-off; genuine
    asymmetry beyond ``_SYM_TOL`` (relative to the largest entry) is rejected.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    if B.shape != A.shape:
        raise ShapeError(f"B shape {B.shape} != A shape {A.shape}")
    for name, M in (("A", A), ("B", B)):
        scale = max(1.0, float(np.max(np.abs(M))))
        asym = float(np.max(np.abs(M - M.T)))
        if asym > _SYM_TOL * scale:
            raise ValueError(f"{name} is asymmetric beyond tolerance: {asym:.3e}")
    return _spectrum(*signed_eigh(0.5 * (A + A.T) - 0.5 * (B + B.T)))


def _spectrum(lam: np.ndarray, V: np.ndarray, cut: float) -> SignedSpectrum:
    """The SignedSpectrum of a ``signed_eigh`` (lam, V, cut): descending,
    signs fixed, counted against the zero cut."""
    return SignedSpectrum(eigvals=lam[::-1].copy(), eigvecs=fix_eigvec_signs(V[:, ::-1]),
                          n_pos=int(np.sum(lam > cut)), n_neg=int(np.sum(lam < -cut)))


def signed_eigh(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(lam, V, cut): ``np.linalg.eigh`` of a symmetric difference matrix
    (its lower triangle is read), ascending, and the zero cut, the one
    definition of it: |lambda| <= cut belongs to neither sign. eigh's
    round-off is about d * eps * max|lambda|; the floor keeps the cut at
    1e-10 for shrinkage-unit spectra, whose |lambda| <= 1."""
    lam, V = np.linalg.eigh(diff)
    return lam, V, max(_ZERO_TOL_FLOOR,
                       lam.size * np.finfo(np.float64).eps * float(np.max(np.abs(lam))))


def posterior_contrast(cond: GaussianStats, uncond: GaussianStats, rot: np.ndarray,
                       sigma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """``signed_eigh`` of the posterior contrast S~_c - S~_uc = s^2 (R_uc -
    R_c), R_. = (Sigma_. + s^2)^-1, at s = sigma in the cond eigenbasis, R =
    U_c^T U_uc. This is the one formula of the per-sigma contrast: a
    one-sign sampling run cuts its split from it (``sampler._cpc_split``),
    and ``guidance_terms`` and ``posterior_cpcs`` read both signs from it.

    It is formed as the product s^2 R_uc (Sigma_c - Sigma_uc) R_c, which
    has no cancellation at any s, where the difference of R_uc and R_c, two
    matrices near I / s^2 at large s, would lose eps s^2 / |lam_c - lam_uc|
    of its size. With R^T R = I, R^T (diag(lam_c) - R diag(lam_uc) R^T) is
    R^T times lam_c,j - lam_uc,k entrywise, so the product is R T with T =
    (lam_c,j - lam_uc,k) s^2 / (lam_uc,k + s^2) / (lam_c,j + s^2) R^T: one
    (d, d) GEMM, of which ``signed_eigh`` reads the lower triangle."""
    s2 = sigma * sigma
    t = cond.eigvals - uncond.eigvals[:, None]
    t *= (s2 / (uncond.eigvals + s2))[:, None]
    t /= cond.eigvals + s2
    t *= rot.T
    t = rot @ t  # frees T, d^2 floats that eigh's own workspace need not sit beside
    return signed_eigh(t)


def posterior_cpcs(cond: GaussianStats, uncond: GaussianStats,
                   sigma: float) -> SignedSpectrum:
    """CPCs of the conditional vs unconditional posterior covariances at sigma:
    ``posterior_contrast`` taken back to x coordinates, U_c V.

    The posterior covariances share the factor sigma^2, which cancels in the
    contrast; eigenvalues are therefore reported in shrinkage units. The
    contrast S~_c - S~_uc is sigma^2 (R_uc - R_c), R = (Sigma + sigma^2)^-1.
    """
    check_pair(cond, uncond)
    check_sigma(sigma)
    lam, V, cut = posterior_contrast(cond, uncond, cond.eigvecs.T @ uncond.eigvecs, sigma)
    return _spectrum(lam, cond.eigvecs @ V, cut)


def variance_along(stats: GaussianStats, v: np.ndarray) -> float:
    """v^T Sigma v for a unit vector v, evaluated in the eigenbasis."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    check_dimension(v.shape[0], stats.d, "direction")
    check_unit(v)
    y = stats.eigvecs.T @ v
    return float(np.sum(stats.eigvals * y * y))
