"""Gaussian-mixture extension: mixture scores, Tweedie denoisers, and the
two-term CFG decomposition against a mixture background.

Component solves run in each component's eigenbasis; posterior weights are
computed from log-densities with max-subtraction so they stay finite for
states far from every cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import denoiser, sampler
from .errors import FormatError, ShapeError
from .stats import GaussianStats, load_stats

_LOG_UNDERFLOW = -745.0  # below this, exp() is exactly 0 in float64
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class MixtureModel:
    """Weighted collection of Gaussian components sharing one dimension."""

    components: tuple[GaussianStats, ...]
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        d = comps[0].d
        if any(c.d != d for c in comps):
            raise ShapeError("all mixture components must share the same dimension")
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.shape != (len(comps),):
            raise ShapeError(f"need {len(comps)} weights, got {w.shape}")
        if np.any(w <= 0.0):
            raise ValueError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].d


@dataclass(frozen=True)
class PosteriorWeights:
    """Cluster responsibilities w_i(x) with their normalized logs."""

    w: np.ndarray
    log_w: np.ndarray


def _check_state(model: MixtureModel, x: np.ndarray, sigma: float) -> np.ndarray:
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.d:
        raise ShapeError(f"state dimension {x.shape[-1]} != mixture dimension {model.d}")
    return x


def _log_densities(model: MixtureModel, X: np.ndarray, sigma: float) -> np.ndarray:
    """log N(x; mu_i, Sigma_i + sigma^2 I) for each row of X, shape (m, K)."""
    m = X.shape[0]
    out = np.empty((m, model.k))
    s2 = sigma * sigma
    for i, comp in enumerate(model.components):
        var = comp.eigvals + s2
        y = (X - comp.mean) @ comp.eigvecs
        out[:, i] = -0.5 * (np.sum(y * y / var, axis=1)
                            + float(np.sum(np.log(var)))
                            + model.d * _LOG_2PI)
    return out


def _log_weights(model: MixtureModel, X: np.ndarray, sigma: float) -> np.ndarray:
    """Normalized log posterior weights, shape (m, K), via log-sum-exp."""
    logp = _log_densities(model, X, sigma) + np.log(model.weights)
    peak = logp.max(axis=1, keepdims=True)
    shifted = logp - peak
    norm = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    return shifted - norm


def posterior_weights(model: MixtureModel, x: np.ndarray,
                      sigma: float) -> PosteriorWeights:
    """Posterior probability that x belongs to each cluster at noise sigma.

    x is one state (d,) or a batch (m, d); the weights have shape (K,) or
    (m, K). Weights relatively below exp(-745) of the maximum are set to
    exactly 0; the log weights stay informative for diagnostics.
    """
    x = _check_state(model, x, sigma)
    log_w = _log_weights(model, x.reshape(-1, model.d), sigma)
    log_w = log_w.reshape(*x.shape[:-1], model.k)
    w = np.exp(log_w)
    w[log_w < _LOG_UNDERFLOW] = 0.0
    return PosteriorWeights(w=w, log_w=log_w)


def _weighted_sum(model: MixtureModel, x: np.ndarray, sigma: float,
                  component_fn) -> np.ndarray:
    """sum_i w_i(x) component_fn(component_i, x, sigma)."""
    x = _check_state(model, x, sigma)
    single = x.ndim == 1
    X = x[None, :] if single else x
    w = posterior_weights(model, X, sigma).w
    out = np.zeros_like(X)
    for i, comp in enumerate(model.components):
        out += w[:, i:i + 1] * component_fn(comp, X, sigma)
    return out[0] if single else out


def mixture_score(model: MixtureModel, x: np.ndarray, sigma: float) -> np.ndarray:
    """Score of the noise-mollified mixture:
    sum_i w_i(x) (Sigma_i + sigma^2 I)^-1 (mu_i - x)."""
    return _weighted_sum(model, x, sigma, denoiser.score)


def mixture_denoise(model: MixtureModel, x: np.ndarray, sigma: float) -> np.ndarray:
    """Tweedie denoiser of the mixture:
    sum_i w_i(x) (mu_i + U_i L~_i U_i^T (x - mu_i)).

    Satisfies D = x + sigma^2 * mixture_score(x) identically.
    """
    return _weighted_sum(model, x, sigma, denoiser.denoise)


@dataclass(frozen=True)
class GmmGuidanceTerms:
    """Mixture CFG guidance split into its covariance-contrast and mean-shift
    style parts."""

    g_cpc_like: np.ndarray
    g_mean_like: np.ndarray

    def total(self) -> np.ndarray:
        return self.g_cpc_like + self.g_mean_like


def gmm_cfg_guidance(model: MixtureModel, target: int, x: np.ndarray,
                     sigma: float, gamma: float) -> GmmGuidanceTerms:
    """CFG guidance toward mixture component ``target`` (0-based), decomposed as

    g_cpc_like  = (gamma/sigma^2) (S~_c - sum_i w_i S~_i)(x - mu_c)
    g_mean_like = (gamma/sigma^2) sum_{i != c} w_i (I - S~_i)(mu_c - mu_i)

    whose sum equals gamma * (D_c - D_mixture) / sigma^2.
    """
    if not 0 <= target < model.k:
        raise IndexError(f"target index {target} out of range for K={model.k}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    x = _check_state(model, x, sigma)
    single = x.ndim == 1
    X = x[None, :] if single else x
    w = posterior_weights(model, X, sigma).w
    coef = gamma / (sigma * sigma)
    tgt = model.components[target]

    z = X - tgt.mean
    cpc = denoiser.shrink(tgt, z, sigma)
    mean_like = np.zeros_like(X)
    for i, comp in enumerate(model.components):
        cpc -= w[:, i:i + 1] * denoiser.shrink(comp, z, sigma)
        if i != target:
            mean_like += w[:, i:i + 1] * denoiser.mean_shift(tgt, comp, sigma)
    g_cpc = coef * cpc
    g_mean = coef * mean_like
    if single:
        g_cpc, g_mean = g_cpc[0], g_mean[0]
    return GmmGuidanceTerms(g_cpc_like=g_cpc, g_mean_like=g_mean)


def sample_batch(model: MixtureModel, target: int, m: int, seed: int,
                 schedule: sampler.NoiseSchedule, cfg: sampler.GuidanceConfig,
                 init: sampler.InitSpec | None = None, *,
                 heun: bool = False) -> np.ndarray:
    """Final states (m, d) of guided mixture samples toward one component.

    Reuses the generic reverse-ODE driver by injecting the target component's
    linear score as the conditional score and the mixture score as the
    unconditional one; the per-term CPC toggles do not apply here. Seeding
    follows sampler.draw_initial_states.
    """
    if not 0 <= target < model.k:
        raise IndexError(f"target index {target} out of range for K={model.k}")
    tgt = model.components[target]
    x_T = sampler.draw_initial_states(model.d, m, seed, schedule, init)
    return sampler.integrate_with_scores(
        lambda x, s: denoiser.score(tgt, x, s),
        lambda x, s: mixture_score(model, x, s),
        x_T, schedule, cfg, heun=heun, scale=sampler.data_scale(*model.components))


def load_mixture(path) -> MixtureModel:
    """Read a mixture manifest: one "stats-path weight" pair per line.

    '#' starts a comment; blank lines are skipped; relative stats paths are
    resolved against the manifest's directory.
    """
    path = Path(path)
    comps: list[GaussianStats] = []
    weights: list[float] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'stats-path weight'")
        stats_path = Path(parts[0])
        if not stats_path.is_absolute():
            stats_path = path.parent / stats_path
        try:
            weight = float(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad weight {parts[1]!r}") from exc
        comps.append(load_stats(stats_path))
        weights.append(weight)
    if not comps:
        raise FormatError(f"{path}: manifest lists no components")
    return MixtureModel(components=tuple(comps), weights=np.array(weights))
