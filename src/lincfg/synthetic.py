"""Built-in synthetic instances used by the verify suites, the demos and the
tests: the 2D anti-correlated toy pair, random full-rank stats, and small demo
mixtures."""

from __future__ import annotations

import numpy as np

from .analytic import CommonPCPair
from .gmm import MixtureModel
from .stats import GaussianStats, pool_stats, spectral_from_covariance

TOY_LAM_C = (10.0, 3.0)
TOY_LAM_UC = (3.0, 10.0)
TOY_MU_C = (4.0, 4.0)


def _toy_basis() -> np.ndarray:
    s = 1.0 / np.sqrt(2.0)
    return np.array([[s, s], [s, -s]])


def toy_conditional_stats(mu=TOY_MU_C) -> GaussianStats:
    """2D conditional toy: eigvecs (1,1)/sqrt2 and (1,-1)/sqrt2, lam (10, 3)."""
    return GaussianStats(mean=np.asarray(mu, dtype=np.float64),
                         eigvecs=_toy_basis(), eigvals=np.array(TOY_LAM_C))


def toy_unconditional_stats() -> GaussianStats:
    """2D unconditional toy: same eigvecs, lam (3, 10), zero mean.

    GaussianStats keeps eigenvalues sorted descending, so the stored basis
    lists (1,-1)/sqrt2 first; the covariance is identical either way.
    """
    U = _toy_basis()
    cov = (U * np.array(TOY_LAM_UC)) @ U.T
    return spectral_from_covariance(np.zeros(2), cov)


def toy_common_pair(mu=TOY_MU_C) -> CommonPCPair:
    """The conditional/unconditional toy as a shared-basis pair.

    lam_uc keeps the conditional ordering, i.e. (3, 10) against lam_c (10, 3).
    """
    return CommonPCPair(eigvecs=_toy_basis(),
                        lam_c=np.array(TOY_LAM_C), lam_uc=np.array(TOY_LAM_UC),
                        mu_c=np.asarray(mu, dtype=np.float64), mu_uc=np.zeros(2))


def random_orthonormal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_stats(d: int, rng: np.random.Generator, *,
                 lam_range: tuple[float, float] = (0.1, 2.0),
                 mean_scale: float = 1.0) -> GaussianStats:
    """Random full-rank stats with eigenvalues uniform in ``lam_range``."""
    lam = np.sort(rng.uniform(*lam_range, size=d))[::-1]
    U = random_orthonormal(d, rng)
    cov = (U * lam) @ U.T
    return spectral_from_covariance(rng.standard_normal(d) * mean_scale, cov)


def random_stats_pair(d: int, rng: np.random.Generator, **kw) -> tuple[GaussianStats, GaussianStats]:
    return random_stats(d, rng, **kw), random_stats(d, rng, **kw)


def random_mixture(d: int, k: int, rng: np.random.Generator, *,
                   lam_range: tuple[float, float] = (0.2, 2.0),
                   mean_scale: float = 3.0) -> MixtureModel:
    comps = tuple(random_stats(d, rng, lam_range=lam_range, mean_scale=mean_scale)
                  for _ in range(k))
    w = rng.uniform(0.5, 1.5, size=k)
    return MixtureModel(components=comps, weights=w / w.sum())


def demo_mixture() -> MixtureModel:
    """Three well-separated 2D clusters with anisotropic covariances."""
    angles = [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]
    comps = []
    for i, ang in enumerate(angles):
        c, s = np.cos(ang), np.sin(ang)
        U = np.array([[c, -s], [s, c]])
        lam = np.array([2.0 + i, 0.5])
        cov = (U * lam) @ U.T
        mu = 6.0 * np.array([c, s])
        comps.append(spectral_from_covariance(mu, cov))
    return MixtureModel(components=tuple(comps), weights=np.full(3, 1.0 / 3.0))


def three_class_setup(d: int = 8, seed: int = 2024,
                      ) -> tuple[list[GaussianStats], GaussianStats]:
    """Three classes with distinct means and partially shared covariances,
    plus their pooled unconditional stats.

    Each class shares a common covariance core and adds variance along a few
    class-private directions, mirroring classes that differ in a handful of
    discriminative features.
    """
    rng = np.random.default_rng(seed)
    base = random_orthonormal(d, rng)
    shared_lam = np.linspace(6.0, 1.0, d)
    classes = []
    for i in range(3):
        lam = shared_lam.copy()
        lam[2 * i] += 20.0       # class-private high-variance direction
        lam[2 * i + 1] += 8.0
        cov = (base * lam) @ base.T
        mu = np.zeros(d)
        mu[2 * i] = 12.0
        mu[2 * i + 1] = -6.0
        classes.append(spectral_from_covariance(mu, cov))
    pooled = pool_stats(classes)
    return classes, pooled
