"""Verification diagnostics: projection histograms, Gaussian Frechet
distances, and the mean-shifted initialization.

The Frechet distance here acts on raw fitted statistics: a desk-scale
similarity measure between classes, not comparable to feature-space metrics
computed with pretrained networks. Only ordering claims should be read off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError, check_components, check_gamma, check_unit
from .sampler import InitSpec
from .stats import GaussianStats, check_pair

QUANTILE_LEVELS = (5.0, 25.0, 50.0, 75.0, 95.0)
DEFAULT_BINS = 50


@dataclass(frozen=True)
class ProjectionHistogram:
    """Univariate distribution of samples projected onto one direction."""

    direction: np.ndarray
    center: np.ndarray
    values: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    quantiles: np.ndarray  # levels QUANTILE_LEVELS, linear interpolation


def project_histogram(samples: np.ndarray, direction: np.ndarray, center: np.ndarray,
                      n_bins: int = DEFAULT_BINS, *,
                      magnitude: bool = False) -> ProjectionHistogram:
    """Histogram of direction^T (sample - center) over the rows of an (m, d) array.

    ``magnitude`` switches to |direction^T (sample - center)|, the convention
    used for CPC directions. Bins are equal width over [min, max].
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError(f"need a nonempty (m, d) sample array, got shape {x.shape}")
    direction = np.asarray(direction, dtype=np.float64).reshape(-1)
    center = np.asarray(center, dtype=np.float64).reshape(-1)
    if direction.shape[0] != x.shape[1] or center.shape[0] != x.shape[1]:
        raise ShapeError("direction/center dimension does not match samples")
    check_unit(direction)
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")

    values = (x - center) @ direction
    if magnitude:
        values = np.abs(values)
    counts, edges = np.histogram(values, bins=n_bins)
    return ProjectionHistogram(
        direction=direction, center=center, values=values,
        bin_edges=edges, counts=counts,
        mean=float(values.mean()), std=float(values.std()),
        quantiles=np.percentile(values, QUANTILE_LEVELS))


def gaussian_frechet(a: GaussianStats, b: GaussianStats) -> float:
    """Frechet (2-Wasserstein^2) distance between two Gaussians:

    |mu_a - mu_b|^2 + tr(Sigma_a + Sigma_b - 2 (Sigma_a^1/2 Sigma_b Sigma_a^1/2)^1/2)

    computed spectrally and clamped at zero.
    """
    check_pair(a, b)
    if (np.array_equal(a.mean, b.mean) and np.array_equal(a.eigvals, b.eigvals)
            and np.array_equal(a.eigvecs, b.eigvecs)):
        return 0.0
    dmu = a.mean - b.mean
    root_a = (a.eigvecs * np.sqrt(a.eigvals)) @ a.eigvecs.T
    inner = root_a @ b.covariance() @ root_a
    cross = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    cross_tr = float(np.sum(np.sqrt(np.clip(cross, 0.0, None))))
    value = float(dmu @ dmu) + float(a.eigvals.sum() + b.eigvals.sum()) - 2.0 * cross_tr
    return max(value, 0.0)


def class_similarity_matrix(stats_list: list[GaussianStats]) -> np.ndarray:
    """Pairwise Gaussian Frechet distances with a zero diagonal."""
    check_components(stats_list, 2, "classes")
    n = len(stats_list)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = gaussian_frechet(stats_list[i], stats_list[j])
    return out


def mean_shifted_init(cond: GaussianStats, uncond: GaussianStats,
                      gamma: float, sigma_T: float | None = None) -> InitSpec:
    """Initialization x_T ~ N(gamma (mu_c - mu_uc), sigma_T^2 I).

    gamma = 0 recovers the standard zero-mean start. sigma_T follows the
    InitSpec.std rule of sampler.draw_initial_states (None: sigma_max).
    """
    check_pair(cond, uncond)
    check_gamma(gamma)
    with np.errstate(over="ignore"):
        shift = gamma * (cond.mean - uncond.mean)
    if not np.isfinite(shift).all():
        raise ValueError(f"gamma {gamma:g} overflows the init shift")
    return InitSpec(shift=shift, std=sigma_T)
