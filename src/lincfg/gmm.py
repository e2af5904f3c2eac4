"""Gaussian-mixture extension: mixture scores, Tweedie denoisers, and the
two-term CFG decomposition against a mixture background.

The weights, score, denoiser and guidance split all read one pass
(``_posterior``) that projects the states onto each component's eigenbasis
once; its log-sum-exp weights stay finite for states far from every cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import denoiser, sampler
from .errors import FormatError, ShapeError
from .stats import GaussianStats, load_stats

_LOG_UNDERFLOW = -745.0  # below this, exp() is exactly 0 in float64


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
        if not (np.all((w > 0.0) & (w < np.inf)) and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise ValueError("mixture weights must be finite and positive and sum to 1, "
                             f"got {w.tolist()}")
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


def _posterior(model: MixtureModel, x: np.ndarray, sigma: float) -> tuple:
    """(X, log_w, w, ys) of the state(s) x at noise sigma: the states as rows
    (m, d), the normalized log posterior weights and the weights (m, K), and
    y_i = (X - mu_i) U_i per component. The log densities drop their d/2 log 2pi
    term, which cancels out of normalized weights."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.d:
        raise ShapeError(f"state dimension {x.shape[-1]} != mixture dimension {model.d}")
    X = x.reshape(-1, model.d)
    s2 = sigma * sigma
    ys = [(X - comp.mean) @ comp.eigvecs for comp in model.components]
    logp = np.empty((len(X), model.k))
    for i, (comp, y) in enumerate(zip(model.components, ys)):
        var = comp.eigvals + s2
        logp[:, i] = -0.5 * ((y * y) @ (1.0 / var) + float(np.sum(np.log(var))))
    logp += np.log(model.weights)
    logp -= logp.max(axis=1, keepdims=True)
    log_w = logp - np.log(np.sum(np.exp(logp), axis=1, keepdims=True))
    w = np.exp(log_w)
    w[log_w < _LOG_UNDERFLOW] = 0.0
    return X, log_w, w, ys


def posterior_weights(model: MixtureModel, x: np.ndarray,
                      sigma: float) -> PosteriorWeights:
    """Posterior probability that x, of shape (d,) or (m, d), belongs to each
    cluster at noise sigma: shape (K,) or (m, K). Weights relatively below
    exp(-745) of the maximum are exactly 0; the log weights stay informative."""
    _, log_w, w, _ = _posterior(model, x, sigma)
    shape = (*np.shape(x)[:-1], model.k)
    return PosteriorWeights(w=w.reshape(shape), log_w=log_w.reshape(shape))


def mixture_score(model: MixtureModel, x: np.ndarray, sigma: float) -> np.ndarray:
    """Score of the noise-mollified mixture, sum_i w_i(x) (Sigma_i + sigma^2 I)^-1 (mu_i - x),
    evaluated as -sum_i w_i (y_i / (lam_i + sigma^2)) U_i^T."""
    X, _, w, ys = _posterior(model, x, sigma)
    out = np.zeros_like(X)
    for w_i, comp, y in zip(w.T, model.components, ys):
        out -= w_i[:, None] * ((y / (comp.eigvals + sigma * sigma)) @ comp.eigvecs.T)
    return out.reshape(np.shape(x))


def mixture_denoise(model: MixtureModel, x: np.ndarray, sigma: float) -> np.ndarray:
    """Tweedie denoiser of the mixture, sum_i w_i(x) (mu_i + U_i L~_i U_i^T (x - mu_i)),
    evaluated as sum_i w_i (mu_i + (y_i * f_i) U_i^T) with the shrinkage factors f_i.

    Satisfies D = x + sigma^2 * mixture_score(x) identically, by another formula.
    """
    X, _, w, ys = _posterior(model, x, sigma)
    out = np.zeros_like(X)
    for w_i, comp, y in zip(w.T, model.components, ys):
        out += w_i[:, None] * (comp.mean
                               + (y * denoiser.shrinkage(comp, sigma)) @ comp.eigvecs.T)
    return out.reshape(np.shape(x))


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

    whose sum equals gamma * (D_c - D_mixture) / sigma^2. The covariance
    term reads the pass's y_i: (x - mu_c) U_i = y_i + (mu_i - mu_c) U_i, so
    it takes one GEMM per component besides the pass.
    """
    if not 0 <= target < model.k:
        raise IndexError(f"target index {target} out of range for K={model.k}")
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    X, _, w, ys = _posterior(model, x, sigma)
    coef = gamma / (sigma * sigma)
    tgt = model.components[target]

    cpc = np.zeros_like(X)
    mean_like = np.zeros_like(X)
    for i, (comp, y) in enumerate(zip(model.components, ys)):
        z = y + (comp.mean - tgt.mean) @ comp.eigvecs
        cpc += (float(i == target) - w[:, i:i + 1]) * (
            (z * denoiser.shrinkage(comp, sigma)) @ comp.eigvecs.T)
        if i != target:
            mean_like += w[:, i:i + 1] * denoiser.mean_shift(tgt, comp, sigma)
    return GmmGuidanceTerms(g_cpc_like=(coef * cpc).reshape(np.shape(x)),
                            g_mean_like=(coef * mean_like).reshape(np.shape(x)))


def integrate(model: MixtureModel, target: int, x_T: np.ndarray,
              schedule: sampler.NoiseSchedule, cfg: sampler.GuidanceConfig, *,
              heun: bool = False) -> np.ndarray:
    """Final states of the guided mixture flow toward one component from x_T.

    Reuses the generic reverse-ODE driver by injecting the target component's
    linear score as the conditional score and the mixture score as the
    unconditional one; the per-term CPC toggles do not apply here.
    """
    if not 0 <= target < model.k:
        raise IndexError(f"target index {target} out of range for K={model.k}")
    tgt = model.components[target]
    return sampler.integrate_with_scores(
        lambda x, s: denoiser.score(tgt, x, s),
        lambda x, s: mixture_score(model, x, s),
        x_T, schedule, cfg, heun=heun, scale=sampler.data_scale(*model.components))


def sample_batch(model: MixtureModel, target: int, m: int, seed: int,
                 schedule: sampler.NoiseSchedule, cfg: sampler.GuidanceConfig,
                 init: sampler.InitSpec | None = None, *,
                 heun: bool = False) -> np.ndarray:
    """Final states (m, d) of guided mixture samples toward one component
    (``integrate``); seeding follows sampler.draw_initial_states."""
    x_T = sampler.draw_initial_states(model.d, m, seed, schedule, init)
    return integrate(model, target, x_T, schedule, cfg, heun=heun)


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
    try:
        return MixtureModel(components=tuple(comps), weights=np.array(weights))
    except ShapeError:
        raise
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
