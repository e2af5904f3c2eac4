"""Contrastive principal components: signed eigendecomposition of covariance
differences.

Positive eigenvalues mark directions with more target variance, negative ones
directions dominated by the background set. Eigenvalues within tolerance of
zero belong to neither group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_dimension, check_sigma
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
    lam, V, tol = signed_eigh(0.5 * (A + A.T) - 0.5 * (B + B.T))
    return SignedSpectrum(eigvals=lam[::-1].copy(), eigvecs=fix_eigvec_signs(V[:, ::-1]),
                          n_pos=int(np.sum(lam > tol)), n_neg=int(np.sum(lam < -tol)))


def signed_eigh(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(lam, V, cut): ``np.linalg.eigh`` of a symmetric difference matrix
    (its lower triangle is read), ascending, and the zero cut, the one
    definition of it: |lambda| <= cut belongs to neither sign. eigh's
    round-off is about d * eps * max|lambda|; the floor keeps the cut at
    1e-10 for shrinkage-unit spectra, whose |lambda| <= 1."""
    lam, V = np.linalg.eigh(diff)
    return lam, V, max(_ZERO_TOL_FLOOR,
                       lam.size * np.finfo(np.float64).eps * float(np.max(np.abs(lam))))


def posterior_cpcs(cond: GaussianStats, uncond: GaussianStats,
                   sigma: float) -> SignedSpectrum:
    """CPCs of the conditional vs unconditional posterior covariances at sigma.

    The posterior covariances share the factor sigma^2, which cancels in the
    contrast; eigenvalues are therefore reported in shrinkage units. The
    contrast S~_c - S~_uc is sigma^2 (R_uc - R_c), R = (Sigma + sigma^2)^-1.
    """
    check_pair(cond, uncond)
    check_sigma(sigma)
    s2 = sigma * sigma
    return contrastive_components(*((s.eigvecs * (s2 / (s.eigvals + s2))) @ s.eigvecs.T
                                    for s in (uncond, cond)))


def variance_along(stats: GaussianStats, v: np.ndarray) -> float:
    """v^T Sigma v for a unit vector v, evaluated in the eigenbasis."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    check_dimension(v.shape[0], stats.d, "direction")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"direction must be a unit vector, |v| = {nrm}")
    y = stats.eigvecs.T @ v
    return float(np.sum(stats.eigvals * y * y))
