"""Closed-form solution of the guided reverse ODE under the common-PC
assumption.

When the conditional and unconditional covariances share an eigenbasis the
guided linear ODE decouples per component: each coefficient picks up a scaling
h(lam_c, lam_uc)^(gamma/2), and the mean-shift guidance integrates to a
coefficient b obtained by quadrature. The sigma(t) = t schedule is assumed
throughout; no other schedule is accepted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (QuadratureError, ShapeError, check_basis, check_dimension, check_eigvals,
                     check_finite, check_gamma, check_sigma_pair, check_state)
from .stats import GaussianStats, check_pair

_EQUAL_LAMBDA_TOL = 1e-12
_QUAD_TOL = 1e-10
_QUAD_MAX_DEPTH = 48
_GAUSS_ORDER = 10


@dataclass(frozen=True)
class CommonPCPair:
    """Two Gaussians sharing the conditional eigenbasis.

    ``lam_uc`` follows the ordering of the conditional eigenvectors and is
    not necessarily sorted. ``offdiag_mass`` reports how much of the
    unconditional covariance (Frobenius norm) had to be discarded to express
    it in the shared basis; zero when the assumption holds exactly.
    """

    eigvecs: np.ndarray
    lam_c: np.ndarray
    lam_uc: np.ndarray
    mu_c: np.ndarray
    mu_uc: np.ndarray
    commutator_norm: float = 0.0
    offdiag_mass: float = 0.0

    def __post_init__(self):
        U = np.asarray(self.eigvecs, dtype=np.float64)
        check_basis(U, "eigenbasis")
        for name in ("lam_c", "lam_uc", "mu_c", "mu_uc"):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            check_dimension(len(v), len(U), name, "eigenbasis")
            check_eigvals(v) if name.startswith("lam") else check_finite(v, name)
            object.__setattr__(self, name, v)
        object.__setattr__(self, "eigvecs", U)

    @property
    def d(self) -> int:
        return self.eigvecs.shape[0]


@dataclass(frozen=True)
class CommonPCRejection:
    """Outcome of check_common_pc when the covariances do not commute."""

    commutator_norm: float
    tol: float


def check_common_pc(cond: GaussianStats, uncond: GaussianStats,
                    tol: float = 1e-8) -> CommonPCPair | CommonPCRejection:
    """Test simultaneous diagonalizability and build the shared-basis pair.

    The relative Frobenius norm of the commutator Sigma_c Sigma_uc -
    Sigma_uc Sigma_c decides acceptance. On acceptance the unconditional
    eigenvalues are re-expressed as diag(U_c^T Sigma_uc U_c), keeping the
    conditional ordering, with the dropped off-diagonal mass reported.
    """
    check_pair(cond, uncond)
    sig_c = cond.covariance()
    sig_uc = uncond.covariance()
    denom = float(np.linalg.norm(sig_c) * np.linalg.norm(sig_uc))
    comm = float(np.linalg.norm(sig_c @ sig_uc - sig_uc @ sig_c))
    rel = comm / denom if denom > 0 else 0.0
    if rel > tol:
        return CommonPCRejection(commutator_norm=rel, tol=tol)
    M = cond.eigvecs.T @ sig_uc @ cond.eigvecs
    lam_uc = np.clip(np.diag(M).copy(), 0.0, None)
    off = float(np.linalg.norm(M - np.diag(np.diag(M))))
    return CommonPCPair(eigvecs=cond.eigvecs, lam_c=cond.eigvals, lam_uc=lam_uc,
                        mu_c=cond.mean, mu_uc=uncond.mean,
                        commutator_norm=rel, offdiag_mass=off)


def h_factor(lam_c, lam_uc, sigma_t: float, sigma_T: float):
    """Per-component CFG scaling base:

    h = (lam_c + sigma_t^2)/(lam_c + sigma_T^2) * (lam_uc + sigma_T^2)/(lam_uc + sigma_t^2)

    h >= 1 exactly when lam_c >= lam_uc. Accepts scalars or arrays.
    """
    check_sigma_pair(sigma_t, sigma_T)
    lam_c = np.asarray(lam_c, dtype=np.float64)
    lam_uc = np.asarray(lam_uc, dtype=np.float64)
    check_eigvals(lam_c, lam_uc)
    st2, sT2 = sigma_t * sigma_t, sigma_T * sigma_T
    out = (lam_c + st2) / (lam_c + sT2) * (lam_uc + sT2) / (lam_uc + st2)
    return float(out) if out.ndim == 0 else out


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the Gauss-Legendre rule of order _GAUSS_ORDER,
    formed on first use, so importing lincfg does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(_GAUSS_ORDER)


def adaptive_quadrature(f, a: float, b: float, tol: float,
                        max_depth: int = _QUAD_MAX_DEPTH) -> float:
    """Integrate f over [a, b] by recursive bisection with a fixed-order
    Gauss-Legendre rule per panel.

    A panel is accepted when the whole-panel estimate agrees with the sum of
    its halves within the panel's share of ``tol``; otherwise it is split.
    A non-finite estimate raises QuadratureError at once: no split mends it.
    """

    nodes, weights = _gauss_legendre()

    def panel(lo: float, hi: float) -> float:
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        return half * float(np.dot(weights, f(mid + half * nodes)))

    if a == b:
        return 0.0
    total = 0.0
    achieved_bad = 0.0
    stack = [(a, b, panel(a, b), tol, 0)]
    failed = False
    while stack:
        lo, hi, whole, ptol, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        err = abs(whole - (left + right))
        if not np.isfinite(err):  # a non-finite whole, left or right
            raise QuadratureError(f"non-finite panel estimate on [{lo:g}, {hi:g}]",
                                  estimate=total)
        if err <= ptol or (hi - lo) <= abs(mid) * 1e-15:
            total += left + right
        elif depth >= max_depth:
            total += left + right
            achieved_bad += err
            failed = True
        else:
            stack.append((lo, mid, left, 0.5 * ptol, depth + 1))
            stack.append((mid, hi, right, 0.5 * ptol, depth + 1))
    if failed:
        raise QuadratureError(
            f"quadrature did not converge (residual error {achieved_bad:.3e} > tol)",
            estimate=total)
    return total


def b_coefficient(lam_c: float, lam_uc: float, sigma_t: float, sigma_T: float,
                  gamma: float) -> float:
    """Mean-shift coefficient of the closed-form guided solution:

    b = (lam_c + sigma_t^2)^(1/2) * ((lam_c + sigma_t^2)/(lam_uc + sigma_t^2))^(gamma/2)
        * int_{sigma_t}^{sigma_T} (lam_uc + s^2)^(gamma/2 - 1)
                                  / (lam_c + s^2)^((gamma+1)/2) * s ds

    Evaluated by adaptive quadrature; the equal-eigenvalue case falls back to
    its exact antiderivative 1 - sqrt((lam + sigma_t^2)/(lam + sigma_T^2)) to
    avoid cancellation.
    """
    check_sigma_pair(sigma_t, sigma_T)
    check_gamma(gamma)
    check_eigvals(np.array((lam_c, lam_uc)))
    if sigma_t == sigma_T:
        return 0.0
    if abs(lam_c - lam_uc) < _EQUAL_LAMBDA_TOL:
        lam = 0.5 * (lam_c + lam_uc)
        return 1.0 - np.sqrt((lam + sigma_t**2) / (lam + sigma_T**2))

    def integrand(s):
        s2 = s * s
        return (lam_uc + s2) ** (0.5 * gamma - 1.0) / (lam_c + s2) ** (0.5 * (gamma + 1.0)) * s

    # scale-aware absolute tolerance for the integral part
    probe = np.abs(integrand(np.linspace(sigma_t, sigma_T, 33)))
    scale = float(np.max(probe)) * (sigma_T - sigma_t)
    integral = adaptive_quadrature(integrand, sigma_t, sigma_T,
                                   tol=_QUAD_TOL * max(1.0, scale))
    pref = np.sqrt(lam_c + sigma_t**2) * ((lam_c + sigma_t**2) / (lam_uc + sigma_t**2)) ** (0.5 * gamma)
    return float(pref * integral)


def b_coefficients(pair: CommonPCPair, sigma_t: float, sigma_T: float,
                   gamma: float) -> np.ndarray:
    """b_coefficient evaluated for every component of a common-PC pair."""
    return np.array([b_coefficient(float(lc), float(lu), sigma_t, sigma_T, gamma)
                     for lc, lu in zip(pair.lam_c, pair.lam_uc)])


def closed_form_cfg(pair: CommonPCPair, x_T: np.ndarray, sigma_t: float,
                    sigma_T: float, gamma: float) -> np.ndarray:
    """Exact guided reverse-ODE solution under the common-PC assumption:

    x_t = mu_c + sum_i h_i^(gamma/2) sqrt((lam_c,i + sigma_t^2)/(lam_c,i + sigma_T^2))
                 u_i^T (x_T - mu_c) u_i
          + gamma U diag(b_i) U^T (mu_c - mu_uc)

    gamma = 0 reduces to the unguided closed form. Accepts batched x_T.
    """
    check_sigma_pair(sigma_t, sigma_T)
    check_gamma(gamma)
    x_T = check_state(x_T, pair.d, against="pair")
    check_finite(x_T, "initial state", ShapeError)
    if sigma_T == sigma_t:
        return x_T.copy()
    U = pair.eigvecs
    lam_c = pair.lam_c
    st2, sT2 = sigma_t * sigma_t, sigma_T * sigma_T
    coef = np.sqrt((lam_c + st2) / (lam_c + sT2))
    coef = coef * h_factor(lam_c, pair.lam_uc, sigma_t, sigma_T) ** (0.5 * gamma)
    y = (x_T - pair.mu_c) @ U
    out = pair.mu_c + (y * coef) @ U.T
    if gamma > 0.0:
        b = b_coefficients(pair, sigma_t, sigma_T, gamma)
        shift = gamma * (U @ (b * (U.T @ (pair.mu_c - pair.mu_uc))))
        out = out + shift
    return out
