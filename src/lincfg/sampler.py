"""Reverse probability-flow ODE sampling with decomposed CFG guidance.

The reverse ODE uses the sigma(t) = t time schedule, so steps walk the sigma
grid directly: x_{i+1} = x_i + (sigma_{i+1} - sigma_i) * (-sigma_i) * drift,
where drift is the conditional score plus the enabled guidance terms. An
optional Heun corrector re-evaluates the drift at sigma_{i+1} and averages.

Full CFG (every guidance term on, no frozen CPC basis) integrates the
paper's drift (1 + gamma) s_c - gamma s_uc directly; the CPC split of
``guidance_terms`` runs only for partial-component and frozen-basis
ablations. States accept shape (d,) or a batch (m, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import denoiser
from .cpca import SignedSpectrum, posterior_cpcs
from .errors import DivergenceError, ShapeError
from .stats import GaussianStats

DIVERGENCE_GUARD = 1e6

# experimental defaults: EDM-style grid, full-interval guidance
DEFAULT_SIGMA_MAX = 80.0
DEFAULT_SIGMA_MIN = 0.002
DEFAULT_STEPS = 20
DEFAULT_RHO = 7.0
DEFAULT_GAMMA = 4.0


@dataclass(frozen=True)
class NoiseSchedule:
    """Strictly decreasing noise levels sigma_max -> sigma_min."""

    sigmas: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=np.float64).reshape(-1)
        if s.size < 2:
            raise ValueError("schedule needs at least 2 noise levels (N >= 1)")
        if not np.all(s > 0.0):
            raise ValueError("all noise levels must be positive")
        if not np.all(np.diff(s) < 0.0):
            raise ValueError("noise levels must be strictly decreasing")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "sigmas", s)

    @property
    def n_steps(self) -> int:
        return len(self.sigmas) - 1

    @property
    def sigma_max(self) -> float:
        return float(self.sigmas[0])

    @property
    def sigma_min(self) -> float:
        return float(self.sigmas[-1])


def make_schedule(sigma_max: float = DEFAULT_SIGMA_MAX,
                  sigma_min: float = DEFAULT_SIGMA_MIN,
                  n_steps: int = DEFAULT_STEPS,
                  rho: float = DEFAULT_RHO) -> NoiseSchedule:
    """rho-warped grid sigma_i = (s_max^(1/rho) + i/N (s_min^(1/rho) - s_max^(1/rho)))^rho."""
    if not (sigma_max > sigma_min > 0.0):
        raise ValueError(f"need sigma_max > sigma_min > 0, got {sigma_max}, {sigma_min}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if rho < 1.0:
        raise ValueError(f"rho must be >= 1, got {rho}")
    i = np.arange(n_steps + 1, dtype=np.float64) / n_steps
    inv = 1.0 / rho
    sig = (sigma_max**inv + i * (sigma_min**inv - sigma_max**inv)) ** rho
    sig[0] = sigma_max
    sig[-1] = sigma_min
    return NoiseSchedule(sigmas=sig)


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance strength gamma and per-component enable mask.

    ``active_interval`` gates the guidance terms (never the conditional
    score) to sigma in [lo, hi]; None means always active. ``freeze_cpc_at``
    is an ablation: it reuses the CPC decomposition computed at that sigma
    for all steps instead of the exact per-step split, which shows how much
    the CPCs' drift over the sigma range matters to the samples.
    """

    gamma: float = DEFAULT_GAMMA
    enable_cond: bool = True
    enable_pos_cpc: bool = True
    enable_neg_cpc: bool = True
    enable_mean_shift: bool = True
    active_interval: tuple[float, float] | None = None
    freeze_cpc_at: float | None = None

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.active_interval is not None:
            lo, hi = self.active_interval
            if not (0.0 < lo <= hi):
                raise ValueError(f"need 0 < sigma_lo <= sigma_hi, got [{lo}, {hi}]")
        if self.freeze_cpc_at is not None and not self.freeze_cpc_at > 0.0:
            raise ValueError(f"freeze_cpc_at must be positive, got {self.freeze_cpc_at}")

    def guidance_active(self, sigma: float) -> bool:
        """Whether the guidance terms are on at sigma: gamma > 0, inside the interval."""
        if not self.gamma > 0.0:
            return False
        if self.active_interval is None:
            return True
        lo, hi = self.active_interval
        return lo <= sigma <= hi


@dataclass(frozen=True)
class InitSpec:
    """Initial-noise distribution x_T ~ N(shift, std^2 I).

    ``shift=None`` means zero mean; ``std=None`` means use the schedule's
    sigma_max.
    """

    shift: np.ndarray | None = None
    std: float | None = None


@dataclass(frozen=True)
class GuidanceTerms:
    """The four drift components at one state and noise level."""

    f_c: np.ndarray
    g_pos: np.ndarray
    g_neg: np.ndarray
    g_mean: np.ndarray

    def total(self) -> np.ndarray:
        return self.f_c + self.g_pos + self.g_neg + self.g_mean


def _check_pair(cond: GaussianStats, uncond: GaussianStats) -> None:
    if cond.d != uncond.d:
        raise ShapeError(f"stats dims differ: {cond.d} != {uncond.d}")


def guidance_terms(cond: GaussianStats, uncond: GaussianStats, x: np.ndarray,
                   sigma: float, cfg: GuidanceConfig,
                   _cpc: SignedSpectrum | None = None) -> GuidanceTerms:
    """Decomposed CFG drift at state x and noise level sigma.

    f_c    : conditional score (sigma^-2)(Sigma~_c - I)(x - mu_c)
    g_pos  : (gamma/sigma^2) V+ L+ V+^T (x - mu_c), class-specific amplification
    g_neg  : (gamma/sigma^2) V- L- V-^T (x - mu_c), generic-feature suppression
    g_mean : (gamma/sigma^2) (I - Sigma~_uc)(mu_c - mu_uc), x-independent shift

    Disabled terms come back as zeros, as do all guidance terms outside the
    active interval; f_c is never interval-gated. Zero terms and g_mean are
    read-only broadcast views of shape x.shape.
    """
    _check_pair(cond, uncond)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != cond.d:
        raise ShapeError(f"state dimension {x.shape[-1]} != stats dimension {cond.d}")

    f_c = denoiser.score(cond, x, sigma) if cfg.enable_cond else None
    g_pos = g_neg = g_mean = None
    if cfg.guidance_active(sigma):
        coef = cfg.gamma * (1.0 / (sigma * sigma))
        if cfg.enable_pos_cpc or cfg.enable_neg_cpc:
            z = x - cond.mean
            cpc = _cpc
            if cpc is None:
                sigma_cpc = cfg.freeze_cpc_at if cfg.freeze_cpc_at is not None else sigma
                cpc = posterior_cpcs(cond, uncond, sigma_cpc)
            if cfg.enable_pos_cpc and cpc.n_pos:
                lp, vp = cpc.positive
                g_pos = coef * (((z @ vp) * lp) @ vp.T)
            if cfg.enable_neg_cpc and cpc.n_neg:
                ln, vn = cpc.negative
                g_neg = coef * (((z @ vn) * ln) @ vn.T)
        if cfg.enable_mean_shift:
            g_mean = np.broadcast_to(coef * denoiser.mean_shift(cond, uncond, sigma), x.shape)

    zero = np.broadcast_to(0.0, x.shape)
    return GuidanceTerms(*(zero if t is None else t for t in (f_c, g_pos, g_neg, g_mean)))


def data_scale(*stats: GaussianStats) -> float:
    """Largest max|mu| + sqrt(lam_max) over the given stats: the size of a data state."""
    return max(float(np.max(np.abs(s.mean))) + float(np.sqrt(s.eigvals[0])) for s in stats)


def _drive(drift, x_T: np.ndarray, schedule: NoiseSchedule, *,
           heun: bool = False, scale: float = 0.0) -> np.ndarray:
    """Step the reverse ODE along the schedule for one (m, d) state block.

    ``drift(x, sigma)`` returns the total score-like term; the ODE slope is
    then -sigma * drift. A state entry beyond DIVERGENCE_GUARD times the
    trajectory scale max(1, sigma_max, max|x_T|, scale), or a non-finite
    one, raises DivergenceError; ``scale`` is the data scale of the run.
    """
    x = np.array(x_T, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if not np.all(np.isfinite(x)):
        raise ShapeError("initial state contains non-finite entries")
    limit = DIVERGENCE_GUARD * max(1.0, schedule.sigma_max, float(np.max(np.abs(x))), scale)

    sig = schedule.sigmas
    for i in range(len(sig) - 1):
        s0, s1 = float(sig[i]), float(sig[i + 1])
        h = s1 - s0
        k0 = (-s0) * drift(x, s0)
        x_next = x + h * k0
        if heun:
            k1 = (-s1) * drift(x_next, s1)
            x_next = x + h * 0.5 * (k0 + k1)
        x = x_next
        if not np.max(np.abs(x)) <= limit:  # also trips on NaN and inf
            sample = int(np.flatnonzero(~(np.abs(x) <= limit).all(axis=-1))[0])
            raise DivergenceError(
                f"trajectory diverged at step {i} (sigma {s0:g} -> {s1:g})"
                + (f", sample {sample}" if not single else ""),
                step=i, sample=None if single else sample)
    return x[0] if single else x


def integrate(cond: GaussianStats, uncond: GaussianStats, x_T: np.ndarray,
              schedule: NoiseSchedule, cfg: GuidanceConfig, *,
              heun: bool = False) -> np.ndarray:
    """Integrate the guided reverse ODE from x_T down the schedule.

    Returns the final state. Full CFG integrates (1 + gamma) s_c - gamma s_uc
    with two score evaluations per drift; ablations (some term off, or
    cfg.freeze_cpc_at set) integrate the CPC split of ``guidance_terms``.
    """
    _check_pair(cond, uncond)
    scale = data_scale(cond, uncond)
    if (cfg.enable_pos_cpc and cfg.enable_neg_cpc and cfg.enable_mean_shift
            and cfg.freeze_cpc_at is None):
        return integrate_with_scores(lambda x, s: denoiser.score(cond, x, s),
                                     lambda x, s: denoiser.score(uncond, x, s),
                                     x_T, schedule, cfg, heun=heun, scale=scale)
    frozen = None
    if cfg.freeze_cpc_at is not None and (cfg.enable_pos_cpc or cfg.enable_neg_cpc):
        frozen = posterior_cpcs(cond, uncond, cfg.freeze_cpc_at)

    def drift(x, sigma):
        return guidance_terms(cond, uncond, x, sigma, cfg, _cpc=frozen).total()

    return _drive(drift, x_T, schedule, heun=heun, scale=scale)


def integrate_with_scores(cond_score, uncond_score, x_T: np.ndarray,
                          schedule: NoiseSchedule, cfg: GuidanceConfig, *,
                          heun: bool = False, scale: float = 0.0) -> np.ndarray:
    """Reverse-ODE integration with injected score callables.

    ``cond_score(x, sigma)`` / ``uncond_score(x, sigma)`` stand in for the
    linear conditional/unconditional scores; the guidance is the plain CFG
    difference gamma * (cond - uncond), gated by cfg.guidance_active. This is
    the full-CFG path of ``integrate`` and the entry point the
    Gaussian-mixture extension uses; ``scale`` is the data scale the
    divergence guard is relative to (see ``_drive``).
    """

    def drift(x, sigma):
        sc = cond_score(x, sigma)
        out = sc if cfg.enable_cond else np.zeros_like(sc)
        if cfg.guidance_active(sigma):
            out = out + cfg.gamma * (sc - uncond_score(x, sigma))
        return out

    return _drive(drift, x_T, schedule, heun=heun, scale=scale)


def closed_form_unguided(stats: GaussianStats, x_T: np.ndarray,
                         sigma_T: float, sigma_t: float) -> np.ndarray:
    """Exact unguided reverse-ODE solution from sigma_T down to sigma_t.

    x_t = mu + sum_i sqrt((lam_i + sigma_t^2)/(lam_i + sigma_T^2))
                * u_i^T (x_T - mu) u_i
    """
    if not (sigma_T >= sigma_t > 0.0):
        raise ValueError(f"need sigma_T >= sigma_t > 0, got {sigma_T}, {sigma_t}")
    x_T = np.asarray(x_T, dtype=np.float64)
    if x_T.shape[-1] != stats.d:
        raise ShapeError(f"state dimension {x_T.shape[-1]} != stats dimension {stats.d}")
    if sigma_T == sigma_t:
        return x_T.copy()
    lam = stats.eigvals
    coef = np.sqrt((lam + sigma_t * sigma_t) / (lam + sigma_T * sigma_T))
    y = (x_T - stats.mean) @ stats.eigvecs
    return stats.mean + (y * coef) @ stats.eigvecs.T


def draw_initial_states(d: int, m: int, seed: int, schedule: NoiseSchedule,
                        init: InitSpec | None = None) -> np.ndarray:
    """Initial states x_T[k] ~ N(shift, std^2 I), shape (m, d), m >= 1.

    Sample k draws its noise from np.random.default_rng([seed, k]), so it
    depends only on (seed, k), never on m or on other samples. This is where
    the std rule is applied: ``init.std=None`` means the schedule's sigma_max,
    and std must be >= 0 (std 0 starts every sample at the shift).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = init or InitSpec()
    std = spec.std if spec.std is not None else schedule.sigma_max
    if not std >= 0:
        raise ValueError(f"init std must be >= 0, got {std}")
    shift = np.zeros(d) if spec.shift is None else np.asarray(spec.shift, dtype=np.float64)
    if shift.shape != (d,):
        raise ShapeError(f"init shift must have length {d}, got {shift.shape}")
    x = np.empty((m, d))
    for k in range(m):
        x[k] = shift + std * np.random.default_rng([seed, k]).standard_normal(d)
    return x


def sample_batch(cond: GaussianStats, uncond: GaussianStats, m: int, seed: int,
                 schedule: NoiseSchedule, cfg: GuidanceConfig,
                 init: InitSpec | None = None, *, heun: bool = False) -> np.ndarray:
    """Final states (m, d) of m independent samples, row k seeded by (seed, k)
    as in ``draw_initial_states``; deterministic for a fixed seed."""
    x_T = draw_initial_states(cond.d, m, seed, schedule, init)
    return integrate(cond, uncond, x_T, schedule, cfg, heun=heun)
