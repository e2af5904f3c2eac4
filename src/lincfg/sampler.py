"""Reverse probability-flow ODE sampling with decomposed CFG guidance.

The reverse ODE uses the sigma(t) = t time schedule, so steps walk the sigma
grid directly, with the slope -sigma * drift, where drift is the conditional
score plus the enabled guidance terms: Euler, or Heun's corrector, which
re-evaluates the drift at sigma_{i+1} and averages.

Every Gaussian run, full CFG and every ablation alike, integrates its drift
in the eigenbasis of cond, where the scores are linear and every step is
affine. ``_step`` is the package's one Euler/Heun step, and every step of
every run takes it under the flow's own drift, with a CPC term or without:
it advances Gaussian or mixture states, or the map Gaussian states would go
through. ``choose_path`` picks one of two
appliers, never another path: stepping the states (two GEMMs per drift
evaluation with a CPC term, thin for one live sign, one for a frozen basis;
elementwise drifts without one) or compiling the run into one affine map
x_0 = mu_c + (x_T - mu_c) P + q, which ``_fold`` steps as one block [P; q]
without reading x (one (d + 1, d) x (d, d) GEMM per drift evaluation with a
CPC term, d^2 products without one; its docstring gives each step's cost),
applied with one GEMM per row block, in place over x_T where the caller
hands it over (``overwrite_x``). It compiles when the batch has m >= d, whatever the
config, schedule or integrator (``choose_path`` gives the timings behind the
rule). ``_advance`` is the one stepped loop: ``_step`` at each of
``_nodes`` for each row block, then ``_guard``, for Gaussian states (one
block) and for the mixture (``gmm.integrate``) alike.
``_drive`` is kept apart as the reference stepper, in its own x + h * slope
form, behind ``integrate_with_scores`` and the tests; no sampling path
calls it.
``_CondBasisFlow`` is the one definition of that drift, readable at any
sigma; its one-sign CPC splits are cut from ``cpca.posterior_contrast``,
the formula that ``cpca.posterior_cpcs`` exports. ``guidance_terms`` reads
the same flow one term at a time, giving the paper's decomposition for
diagnostics; sampling does not call it.
Every function that reads a state checks it with ``errors.check_state``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .cpca import posterior_contrast
from .errors import (DivergenceError, ShapeError, check_finite, check_gamma, check_sigma,
                     check_sigma_pair, check_state)
from .stats import GaussianStats, check_pair

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
        s = np.array(self.sigmas, dtype=np.float64).reshape(-1)  # a copy, made read-only below
        if s.size < 2:
            raise ValueError("schedule needs at least 2 noise levels (N >= 1)")
        check_sigma(s.min(), "noise level")
        check_sigma(s.max(), "noise level")
        if not np.all(np.diff(s) < 0.0):
            raise ValueError("noise levels must be strictly decreasing")
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
    check_sigma(sigma_max, "sigma_max")
    check_sigma(sigma_min, "sigma_min")
    if not isinstance(n_steps, numbers.Integral) or n_steps < 1:  # numpy integers too
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if not 1.0 <= rho < np.inf:
        raise ValueError(f"rho must be finite and >= 1, got {rho}")
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
    score) to sigma in [lo, hi]; None means always active. The gated gain,
    g(sigma) = gamma inside the interval and 0 outside it (the limited
    interval of Kynkaanniemi et al. 2024), is ``weight``, which every guided
    drift, Gaussian or mixture, reads. ``freeze_cpc_at`` is an ablation: it
    reuses the CPC decomposition computed at that sigma for all steps
    instead of the exact per-step split, which shows how much the CPCs'
    drift over the sigma range matters to the samples.
    """

    gamma: float = DEFAULT_GAMMA
    enable_cond: bool = True
    enable_pos_cpc: bool = True
    enable_neg_cpc: bool = True
    enable_mean_shift: bool = True
    active_interval: tuple[float, float] | None = None
    freeze_cpc_at: float | None = None

    def __post_init__(self):
        check_gamma(self.gamma)
        if self.active_interval is not None:
            lo, hi = self.active_interval
            if not (0.0 < lo <= hi):
                raise ValueError(f"need 0 < sigma_lo <= sigma_hi, got [{lo}, {hi}]")
        if self.freeze_cpc_at is not None:
            check_sigma(self.freeze_cpc_at, "freeze_cpc_at")

    def weight(self, sigma: float) -> float:
        """The guidance gain g(sigma): gamma inside the active interval (at
        every sigma without one), else 0.0. The one definition of g, which
        every guided drift reads."""
        on = self.gamma > 0.0 and (self.active_interval is None
                                   or self.active_interval[0] <= sigma <= self.active_interval[1])
        return self.gamma if on else 0.0

    def guidance_active(self, sigma: float) -> bool:
        """Whether the guidance terms are on at sigma: g(sigma) > 0."""
        return self.weight(sigma) > 0.0


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


def guidance_terms(cond: GaussianStats, uncond: GaussianStats, x: np.ndarray,
                   sigma: float, cfg: GuidanceConfig) -> GuidanceTerms:
    """Decomposed CFG drift at state x and noise level sigma.

    Each term is the drift that sampling runs (``_CondBasisFlow``) at sigma
    with only that term of cfg on, taken back to x with U_c:

    f_c    : conditional score -(Sigma_c + sigma^2)^-1 (x - mu_c)
    g_pos  : (gamma/sigma^2) V+ L+ V+^T (x - mu_c), class-specific amplification
    g_neg  : (gamma/sigma^2) V- L- V-^T (x - mu_c), generic-feature suppression
    g_mean : gamma (Sigma_uc + sigma^2)^-1 (mu_c - mu_uc), x-independent shift

    (V, L) are the CPCs of S~_c - S~_uc at sigma, or at the frozen sigma*,
    those of ``cpca.posterior_cpcs``: both one-sign splits come from one
    ``cpca.posterior_contrast``, as a one-sign run's ``_cpc_split`` takes
    them; with both signs on, sampling runs their sum as one direct split.
    Disabled terms come back as read-only zero views of shape x.shape;
    outside the active interval the flow gives zero guidance terms, but f_c
    is never interval-gated.
    """
    check_pair(cond, uncond)
    check_sigma(sigma)
    x = check_state(x, cond.d)
    flow, y = _CondBasisFlow(cond, uncond, cfg), (x - cond.mean) @ cond.eigvecs
    names = ("enable_cond", "enable_pos_cpc", "enable_neg_cpc", "enable_mean_shift")
    at = cfg.freeze_cpc_at or sigma  # the sigma of the CPC splits
    eig = (posterior_contrast(cond, uncond, flow.rot, at) if cfg.weight(sigma) > 0.0
           and (cfg.enable_pos_cpc or cfg.enable_neg_cpc) else None)

    def term(name):
        if not getattr(cfg, name):
            return np.broadcast_to(0.0, x.shape)
        one = replace(flow, cfg=replace(cfg, **{n: n == name for n in names}))
        if eig is not None and name in ("enable_pos_cpc", "enable_neg_cpc"):
            one.last = {at: _one_sign(eig, at, name == "enable_pos_cpc")}  # node() reads it
        return one.drift(y, sigma) @ cond.eigvecs.T

    return GuidanceTerms(*map(term, names))


def data_scale(*stats: GaussianStats) -> float:
    """Largest max|mu| + sqrt(lam_max) over the given stats: the size of a data state."""
    return max(float(np.max(np.abs(s.mean))) + float(np.sqrt(s.eigvals[0])) for s in stats)


def _start(x_T: np.ndarray, schedule: NoiseSchedule, scale: float,
           overwrite_x: bool = False, d: int | None = None,
           against: str = "stats") -> tuple[np.ndarray, float]:
    """The start, a state of ``check_state`` (of the ``against`` dimension d
    unless d is None) with finite entries, as an (m, d) block, and the
    divergence limit: DIVERGENCE_GUARD times the trajectory scale max(1,
    sigma_max, max|x_T|, scale), where ``scale`` is the run's data scale.
    ``_norms`` squares each row, so a limit whose square times d overflows
    float64 could not be held to: that start raises ValueError naming the
    largest limit that can, before any step. With ``overwrite_x``
    the block is x_T's own buffer (a view of it for a lone state), which the
    run may write, so x_T must be a writeable C-contiguous float64 array:
    the one rule of both integrators' ``overwrite_x``."""
    if overwrite_x and not (isinstance(x_T, np.ndarray) and x_T.dtype == np.float64
                            and x_T.flags.c_contiguous and x_T.flags.writeable):
        raise ValueError("overwrite_x=True needs x_T as a writeable C-contiguous float64 array")
    x = np.atleast_2d(check_state(x_T, d, against=against))
    extent = check_finite(x, "initial state", ShapeError)
    limit = DIVERGENCE_GUARD * max(1.0, schedule.sigma_max, extent, scale)
    bound = float(np.sqrt(np.finfo(np.float64).max / x.shape[1]))  # limit^2 * d stays finite
    if not limit <= bound:
        raise ValueError(f"divergence limit {limit:g} exceeds {bound:.4g} = sqrt(float64 max / d)")
    return x, limit


def _norms(z: np.ndarray) -> np.ndarray:
    """|z_k|_2 of each row of the (m, d) block z, in one (m,) array."""
    sq = np.einsum("ij,ij->i", z, z)
    return np.sqrt(sq, out=sq)


def _guard(schedule: NoiseSchedule, step: int, norms: np.ndarray, limit: float) -> None:
    """The package's one divergence rule and its one report. ``norms`` are
    the samples' distances |z_k|_2 from their flow's centre after ``step``
    (``_norms`` of the offsets z); one that exceeds ``limit``, or is not
    finite, raises DivergenceError naming the step, its sigma range and, in
    a block of more than one row, the first such row. The Gaussian appliers
    measure y = (x - mu_c) U_c, whose |y|_2 is |x - mu_c|_2, the mixture
    y = x - mu_target (both through ``_advance``), and ``_drive`` x itself."""
    if not norms.max() <= limit:  # also trips on NaN and inf
        s0, s1 = float(schedule.sigmas[step]), float(schedule.sigmas[step + 1])
        bad = int(np.flatnonzero(~(norms <= limit))[0]) if len(norms) > 1 else None
        raise DivergenceError(f"trajectory diverged at step {step} (sigma {s0:g} -> {s1:g})",
                              step=step, sample=bad)


@np.errstate(over="ignore", invalid="ignore")  # _guard names the non-finite rows
def _drive(drift, x_T: np.ndarray, schedule: NoiseSchedule, *,
           heun: bool = False, scale: float = 0.0) -> np.ndarray:
    """The reference stepper: step the reverse ODE along the schedule for
    one (m, d) state block in its own x + h * slope form.

    ``drift(x, sigma)`` returns the total score-like term; the ODE slope is
    then -sigma * drift. After each step ``_guard`` holds every row's |x|_2
    to the limit of ``_start``, where ``scale`` is the run's data scale. No
    sampling path calls it: it is kept apart from ``_step``, whose weighted
    u k form rounds differently, so that ``integrate_with_scores`` and the
    tests hold the sampling paths' one step rule against an independent one.
    """
    x, limit = _start(x_T, schedule, scale)
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
        _guard(schedule, i, _norms(x), limit)
    return x.reshape(np.shape(x_T))


def choose_path(m: int, d: int) -> str:
    """How a run of m states in d dimensions is applied: 'compiled' when
    m >= d, else 'stepwise'. This is the package's one applier rule; it
    holds for every config, schedule and integrator, and ``gmm.integrate``
    folds its guided mixture drift where it says 'compiled'.

    Both take the same ``_step``. Stepping it on the states costs two
    (m, d) x (d, k) GEMMs per drift evaluation with a CPC term, k <= d (one
    (d, d) GEMM for a frozen basis), and ``_step``'s elementwise passes over
    (m, d) blocks per step without one; stepping it on the map costs one
    syrk per node with a CPC term, one (d, d) GEMM per drift evaluation
    with one and a few d^2 passes per other step (``_fold`` gives the
    count), and one GEMM per row block to apply. Timed on one BLAS thread,
    the two cross at m ~ d for every CPC form, step count and Euler or Heun.
    Runs with no CPC term (gamma = 0, mean shift only) keep P diagonal
    throughout, so compiling wins from m = d (stepwise/compiled 1.17-5.6 at
    m = d and 1.3-12.6 at 2d, d = 64 to 768, Euler N = 50 and Heun N = 20).
    """
    return "compiled" if m >= d else "stepwise"


@dataclass(frozen=True)
class _Split:
    """A CPC term F diag(lam) F^T + diag(diag) in the cond basis (``_cpc_split``)."""

    vecs: np.ndarray
    weights: np.ndarray  # all of one sign
    diag: np.ndarray | float

    def gram(self, c: float = 1.0) -> np.ndarray:
        """c G, G = F diag(lam) F^T, c >= 0, by one symmetric product (syrk)
        of F scaled by sqrt(c |lam|)."""
        s = self.vecs * np.sqrt(c * np.abs(self.weights))
        g = s @ s.T
        if self.weights.size and self.weights[0] < 0.0:
            np.negative(g, out=g)
        return g

    @cached_property
    def unit_gram(self) -> np.ndarray:
        """G, formed once for a split that every node reuses (a frozen basis)."""
        return self.gram()


def _cpc_split(cond: GaussianStats, uncond: GaussianStats, rot: np.ndarray, sigma: float,
               pos: bool, neg: bool) -> _Split:
    """(1/s^2)(S~_c - S~_uc) = R diag(1/(lam_uc + s^2)) R^T - diag(1/(lam_c +
    s^2)) at s = sigma in the cond basis, R = U_c^T U_uc, cut to the CPC
    signs that are on. Both signs keep this direct form: F = R, lam =
    1/(lam_uc + s^2), diag = -1/(lam_c + s^2). One sign decomposes s^2 times
    it with one ``signed_eigh`` (``cpca.posterior_contrast``), so cpca's
    zero cut holds: F = W, lam = lambda / s^2 (``_one_sign``). Neither
    differences shrinkage factors."""
    if pos and neg:
        s2 = sigma * sigma
        return _Split(rot, 1.0 / (uncond.eigvals + s2), -1.0 / (cond.eigvals + s2))
    return _one_sign(posterior_contrast(cond, uncond, rot, sigma), sigma, pos)


def _one_sign(eig: tuple, sigma: float, pos: bool) -> _Split:
    """The positive (or negative) split of a ``posterior_contrast`` at sigma."""
    lam, vec, cut = eig
    keep = lam > cut if pos else lam < -cut
    return _Split(vec[:, keep], lam[keep] / (sigma * sigma), 0.0)


@dataclass
class _CondBasisFlow:
    """The drift of a Gaussian config in the eigenbasis of cond, at any sigma.

    With y = (x - mu_c) U_c, R = U_c^T U_uc and delta = (mu_c - mu_uc) U_uc,
    ``node(s)`` gives (alpha, split, gain, b) at sigma s, and the drift is
    y * alpha + ((y F) * (gain lam)) F^T + b. g is gamma where guidance is on
    and 0 elsewhere, c is 1 with the conditional score on and 0 off:

    - alpha = -c / (lam_c + s^2) + gain diag;
    - where g > 0 and a CPC sign is on, (F, lam, diag) is ``_cpc_split`` at
      s with gain g, or at the frozen sigma* with gain g sigma*^2 / s^2;
    - where g > 0 and the mean shift is on, b = (g / s^2)(I - S~_uc)(mu_c -
      mu_uc) U_c = ((delta g / (lam_uc + s^2)) U_uc^T) U_c, formed for all
      of a run's nodes at once (``prepare``). Unused parts are None.

    R (``rot``, d^2 floats and a d^3 GEMM) is formed only for a CPC split.
    This is the one definition of the Gaussian CFG drift: the appliers step
    it along a schedule (``_step``) and ``guidance_terms`` reads it one
    term at a time.
    """

    cond: GaussianStats
    uncond: GaussianStats
    cfg: GuidanceConfig
    last: dict = field(default_factory=dict, init=False)  # the last split by its sigma: one deep
    shifts: dict = field(default_factory=dict, init=False)  # b by its sigma (``prepare``)
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False)

    @cached_property
    def rot(self) -> np.ndarray:
        """R = U_c^T U_uc."""
        return self.cond.eigvecs.T @ self.uncond.eigvecs

    @cached_property
    def delta(self) -> np.ndarray:
        """(mu_c - mu_uc) U_uc."""
        return (self.cond.mean - self.uncond.mean) @ self.uncond.eigvecs

    def prepare(self, sigmas) -> None:
        """Form b at each of the sigmas where it is on, by two GEMMs for all
        of them, where each node would take two d^2 matvecs: at d = 768 those
        were a fifth of a mean-shift stepped run of 384 states (Euler, N =
        50, one BLAS thread). ``node`` reads them, and prepares a sigma it
        has not seen."""
        cfg = self.cfg
        on = [float(s) for s in sigmas if cfg.enable_mean_shift and cfg.weight(s) > 0.0]
        if on:
            g = np.array([cfg.weight(s) for s in on])[:, None]
            h = self.delta * (g / (self.uncond.eigvals + np.square(on)[:, None]))
            self.shifts.update(zip(on, (h @ self.uncond.eigvecs.T) @ self.cond.eigvecs))

    def node(self, s: float) -> tuple:
        """(alpha, split, gain, b) at sigma s."""
        cfg = self.cfg
        g = cfg.weight(s)
        alpha = -(1.0 if cfg.enable_cond else 0.0) / (self.cond.eigvals + s * s)
        split, gain, b = None, 0.0, None
        if g > 0.0 and (cfg.enable_pos_cpc or cfg.enable_neg_cpc):
            at = cfg.freeze_cpc_at or s  # the sigma of the split
            if at not in self.last:  # Heun reads a node twice in a row; frozen is one sigma
                self.last = {at: _cpc_split(self.cond, self.uncond, self.rot, at,
                                            cfg.enable_pos_cpc, cfg.enable_neg_cpc)}
            split = self.last[at]
            gain = g if at == s else g * (at * at) / (s * s)
            alpha = alpha + gain * split.diag
        if g > 0.0 and cfg.enable_mean_shift:
            if s not in self.shifts:
                self.prepare([s])
            b = self.shifts[s]
        return alpha, split, gain, b

    def _block(self, shape: tuple) -> np.ndarray:
        """A C-contiguous block of the given shape in the flow's one scratch
        buffer, which grows only when a block needs more than it holds."""
        n = int(np.prod(shape))
        if self.scratch.size < n:
            self.scratch = np.empty(n)
        return self.scratch[:n].reshape(shape)

    def drift(self, y: np.ndarray, s: float, w: float = 1.0,
              out: np.ndarray | None = None) -> np.ndarray:
        """w times the drift at sigma s of y, one state (d,) or a block (m,
        d), written into ``out`` (a new block if None, never y) and
        returned. w scales alpha, gain lam and b, never the block. With a
        CPC term the product goes into out by two GEMMs, the thin one into
        the flow's scratch (thin for one live sign), or by one with G for a
        frozen basis, and y alpha is added through that scratch; without one
        the drift is elementwise."""
        alpha, split, gain, b = self.node(s)
        if split is None:
            out = np.multiply(y, alpha * w, out=out)
        else:
            if self.cfg.freeze_cpc_at is not None:
                out = np.matmul(y, split.unit_gram, out=out)
                out *= gain * w
            else:
                thin = self._block((*y.shape[:-1], len(split.weights)))
                thin = np.matmul(y, split.vecs, out=thin)
                thin *= (gain * w) * split.weights
                out = np.matmul(thin, split.vecs.T, out=out)
            out += np.multiply(y, alpha * w, out=self._block(y.shape))  # over the spent thin one
        if b is not None:
            out += b * w
        return out

    def node_matrix(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with drift(y, s) = y A + b: A = gain G + diag(alpha), or the
        vector alpha where no CPC term is on. A live split forms gain G by one
        syrk and a frozen one scales its shared G, never in place; the
        diagonal is then one in-place add."""
        alpha, split, gain, b = self.node(s)
        b = np.zeros(len(alpha)) if b is None else b
        if split is None:
            return alpha, b
        a = split.unit_gram * gain if self.cfg.freeze_cpc_at is not None else split.gram(gain)
        a.flat[::len(a) + 1] += alpha
        return a, b


def _step(y: np.ndarray, drift, ends: tuple, u: tuple, out: np.ndarray) -> np.ndarray:
    """The package's one Euler/Heun step: advance the block y in place along
    y' = f(y, sigma) and return it. ``ends`` and u = (u0, u1) come from
    ``_nodes``. ``drift(z, sigma, w, dst)`` writes w f(z, sigma) into the
    block dst, never z itself, and returns it; ``out`` holds the
    step's blocks of y's shape (one for Euler, three for Heun), which the
    run reuses, so a step allocates nothing of its own. Euler is y + u0 f(y,
    sigma_i), its weight taken in the drift. Heun is y + (k0 + k1) with k0
    = u0/2 f(y, sigma_i) and k1 = u1/2 f(z, sigma_{i+1}) at z = y + 2 k0.
    y is a row block of Gaussian or mixture states (``_advance``) or a
    folded map's block [P; q] (``_fold``), and every step of every run is
    this one, whether or not it has a CPC term."""
    u0, u1 = u
    if len(ends) == 1:
        y += drift(y, ends[0], u0, out[0])
    else:
        k0 = drift(y, ends[0], 0.5 * u0, out[0])
        z = np.add(k0, k0, out=out[1])  # u0 f(y), exactly: w scales by a power of 2
        z += y
        k0 += drift(z, ends[1], 0.5 * u1, out[2])
        y += k0
    return y


def _nodes(schedule: NoiseSchedule, heun: bool):
    """Per step i of the schedule, (ends, (u0, u1)): ends are the sigmas
    ``_step`` reads the drift at (sigma_i, and sigma_{i+1} for Heun) and u_j
    = (sigma_i - sigma_{i+1}) sigma_j their weights. Every stepped run and
    the fold take their steps from here."""
    sig = schedule.sigmas
    for i in range(schedule.n_steps):
        s0, s1 = float(sig[i]), float(sig[i + 1])
        yield (s0, s1)[:1 + heun], ((s0 - s1) * s0, (s0 - s1) * s1)


@np.errstate(over="ignore", invalid="ignore")  # _guard names the non-finite rows
def _advance(y: np.ndarray, drift, schedule: NoiseSchedule, heun: bool,
             limit: float, blocks: list[slice]) -> np.ndarray:
    """The package's one stepped loop: advance the (m, d) block y in place
    by ``_step`` under ``drift`` at each of the schedule's ``_nodes``, one
    row block of ``blocks`` (slices of y's rows) at a time, and return it;
    after each step ``_guard`` holds every row's |y|_2 to ``limit``. A row's
    step reads its own row only, so a step's slopes are those of one row
    block, not of m rows. A Gaussian run steps y = (x - mu_c) U_c under its
    flow's drift in one block (``_stepwise``), the mixture y = x -
    mu_target under its guided drift in the row blocks of
    ``gmm.integrate``. The steps share one set of ``_step``'s slope blocks,
    sized to the first row block, the longest."""
    out = np.empty((1 + 2 * heun, *y[blocks[0]].shape))
    for i, (ends, u) in enumerate(_nodes(schedule, heun)):
        for b in blocks:
            rows = y[b]
            _step(rows, drift, ends, u, out[:, :len(rows)])
        _guard(schedule, i, _norms(y), limit)
    return y


def _stepwise(flow: _CondBasisFlow, schedule: NoiseSchedule, heun: bool, x: np.ndarray,
              limit: float, out: np.ndarray | None = None) -> np.ndarray:
    """Step the (m, d) block x in the cond basis (``_advance``), held to
    ``limit`` after each step, and write the samples to ``out`` (a new block
    if None; x itself is allowed) once every step has passed."""
    flow.prepare(schedule.sigmas)
    y = (x - flow.cond.mean) @ flow.cond.eigvecs
    # the first node's split (a frozen basis's G too) is formed on one row, so
    # its d^2 temporaries come and go before _advance makes its step blocks
    flow.drift(y[:1], float(schedule.sigmas[0]))
    _advance(y, flow.drift, schedule, heun, limit, [slice(None)])
    out = np.matmul(y, flow.cond.eigvecs.T, out=out)
    out += flow.cond.mean
    return out


ROW_BLOCK_BYTES = 1 << 20  # the compiled applier, and the folded mixture run
# (gmm.integrate), stream their states through row blocks of about 1 MiB


def _row_blocks(m: int, d: int) -> list[slice]:
    """The rows of an (m, d) float64 block in as few slices of at most
    ROW_BLOCK_BYTES (at least one row) as fit, of lengths that differ by at
    most one, the first the longest. No slice is a ragged tail of a few
    rows, whose GEMM BLAS may hand to a gemv or small-matrix kernel that
    rounds otherwise than a long block's."""
    n = -(-m // max(1, ROW_BLOCK_BYTES // (8 * d)))
    return [slice(-(-m * i // n), -(-m * (i + 1) // n)) for i in range(n)]


def _fold(flow: _CondBasisFlow, schedule: NoiseSchedule, heun: bool):
    """Fold the schedule's steps into affine maps of y = (x - mu_c) U_c,
    reading no state: after each step i, N in all, yield the partial map
    (P_i, q_i) with y_{i+1} = y_0 P_i + q_i. Both are views of the rows of
    the fold's one block Y = [P; q] and hold until the next map is asked
    for; the last is the run's map.

    Every step is one ``_step`` of Y under the drift z A_j, plus b_j on q's
    row, the last, with (A_j, b_j) = ``node_matrix`` at the step's node j,
    the vector alpha for A_j where no CPC term is on. Y is (2, d), P's
    diagonal above q, until the first step that reads a matrix A_j, where
    it becomes (d + 1, d), diag(P) above q: a step whose every A_j is a
    vector costs a few passes of 2d before then and of d^2 after. Each
    node's A is formed once (one syrk for a live split); every drift
    evaluation that reads a matrix A is one (d + 1, d) x (d, d) GEMM, Euler
    one and Heun two per step, plus ``_step``'s d^2 passes. Each product is
    scaled by its step weight in place, and the slopes go into one block
    the fold reuses.
    """
    d = len(flow.cond.mean)
    Y = np.vstack((np.ones(d), np.zeros(d)))
    P, out = Y[0], np.empty((1 + 2 * heun, 2, d))
    flow.prepare(schedule.sigmas)
    node = lru_cache(maxsize=1 + heun)(flow.node_matrix)  # the promotion test and the step read it

    def drift(z, s, w, out):
        """w (z A + b) at node s into out, b on q's row only."""
        a, b = node(s)
        out = np.multiply(z, a, out=out) if a.ndim == 1 else np.matmul(z, a, out=out)
        out[-1] += b
        out *= w
        return out

    for ends, u in _nodes(schedule, heun):
        if P.ndim == 1 and any(node(s)[0].ndim == 2 for s in ends):
            Y = np.vstack((np.diag(P), Y[1:]))
            P, out = Y[:-1], np.empty((1 + 2 * heun, d + 1, d))
        _step(Y, drift, ends, u, out)
        yield P, Y[-1]


@np.errstate(over="ignore", invalid="ignore")
def _compiled(flow: _CondBasisFlow, schedule: NoiseSchedule, heun: bool, x: np.ndarray,
              limit: float, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the run's folded map (``_fold``) to the (m, d) block x in x
    coordinates, writing the samples to ``out`` (a new block if None; x
    itself is allowed).

    x is read in row blocks (``_row_blocks``) through one block-sized
    scratch, never whole as x - mu_c. ``apply`` is the one row-block loop:
    it writes (x_b - mu_c) U P U^T + c, one GEMM per block. After each step
    i the bound max_k |x_k - mu_c|_2 |P_i|_F + |q_i|_2 caps every sample's
    |x - mu_c|_2; where it exceeds ``limit`` or is not finite, ``apply``
    writes y_i U^T with c = q_i U^T, block by block, into a second scratch
    block made at the first trip, and ``_guard`` holds those rows' norms,
    |y_i|_2, to the limit. An overflowed map makes them non-finite even at a
    fixed point, so it raises. The output is ``apply`` of the last map with
    c = mu_c + q U^T. The fold and every guard finish before the first
    write, so a run that raises leaves ``out`` and x as they were.
    """
    mean, U = flow.cond.mean, flow.cond.eigvecs
    blocks = _row_blocks(*x.shape)
    buf = np.empty((blocks[0].stop, x.shape[1]))  # the one scratch block
    check = dist = None  # the exact check's block and the samples' distances

    def centred(b: slice) -> np.ndarray:
        return np.subtract(x[b], mean, out=buf[:b.stop - b.start])

    def apply(P, c, dst, norms=None):
        """(x_b - mu_c) U P U^T + c to dst[b] for each row block b, or, with
        ``norms``, to dst's first rows, keeping their norms[b]; returns dst."""
        T = (U * P if P.ndim == 1 else U @ P) @ U.T
        for b in blocks:
            z = np.matmul(centred(b), T, out=dst[b] if norms is None else dst[:b.stop - b.start])
            z += c
            if norms is not None:
                norms[b] = _norms(z)
        return dst

    radius = max(float(_norms(centred(b)).max()) for b in blocks)
    for i, (P, q) in enumerate(_fold(flow, schedule, heun)):
        if not radius * np.linalg.norm(P) + np.linalg.norm(q) <= limit:
            if check is None:
                check, dist = np.empty_like(buf), np.empty(len(x))
            apply(P, q @ U.T, check, dist)
            _guard(schedule, i, dist, limit)
    return apply(P, mean + q @ U.T, np.empty(x.shape) if out is None else out)


def integrate(cond: GaussianStats, uncond: GaussianStats, x_T: np.ndarray,
              schedule: NoiseSchedule, cfg: GuidanceConfig, *,
              heun: bool = False, overwrite_x: bool = False) -> np.ndarray:
    """Integrate the guided reverse ODE from x_T down the schedule.

    Returns the final state. Every Gaussian run, full CFG and every ablation
    alike, runs its drift in the eigenbasis of cond (see ``_CondBasisFlow``),
    where every step is affine, in one of two ways that ``choose_path`` picks:
    compiled when m >= d, stepwise otherwise, for every config and Euler or
    Heun. Both take each step with ``_step``, the one Euler/Heun update.

    - stepwise: ``_step`` of the states under the flow's drift; two GEMMs
      per drift evaluation with a CPC term, thin ones for one live CPC sign,
      or one for a frozen basis; without one the drift is elementwise.
    - compiled: ``_fold`` steps the affine map x_0 = mu_c + (x_T - mu_c) P
      + q instead, without reading x_T (its docstring gives the cost per
      step), and the map is applied with one GEMM per row block of
      about ROW_BLOCK_BYTES. An unguided run keeps q exactly 0, so mu_c
      stays a fixed point. A norm bound on each partial map guards it;
      where it trips, the same row-block loop gives the samples' exact
      distances from that map, through one more row block. A map that
      overflows raises even at a fixed point that stepping keeps.

    After every step each sample's |x - mu_c|_2 is held to the divergence
    limit, DIVERGENCE_GUARD times max(1, sigma_max, max|x_T|, data scale).
    ``guidance_terms`` reads this same flow one term at a time.

    x_T is left as it is by default. With ``overwrite_x=True`` (x_T then
    must be a writeable C-contiguous float64 array) the samples are written
    into x_T's buffer and returned as a view of it: a compiled run then
    holds no (m, d) block beyond x_T. Both give the same bits, and a run
    that raises DivergenceError leaves x_T unchanged either way.
    """
    check_pair(cond, uncond)
    x, limit = _start(x_T, schedule, data_scale(cond, uncond), overwrite_x, cond.d)
    run = _compiled if choose_path(len(x), cond.d) == "compiled" else _stepwise
    return run(_CondBasisFlow(cond, uncond, cfg), schedule, heun, x, limit,
               out=x if overwrite_x else None).reshape(np.shape(x_T))


def integrate_with_scores(cond_score, uncond_score, x_T: np.ndarray,
                          schedule: NoiseSchedule, cfg: GuidanceConfig, *,
                          heun: bool = False, scale: float = 0.0) -> np.ndarray:
    """Reverse-ODE integration with injected score callables: an oracle.

    ``cond_score(x, sigma)`` / ``uncond_score(x, sigma)`` stand in for the
    conditional/unconditional scores; the guidance is the plain CFG
    difference gamma * (cond - uncond), gated by cfg.guidance_active. No
    sampling path calls it. It steps with ``_drive``, the reference stepper,
    not with the sampling paths' ``_step``: with ``denoiser.score`` it is the
    test and benchmark oracle of ``integrate``'s full-CFG path, and with
    mixture scores that of ``gmm.integrate``. Its flow has no centre, so
    ``_guard`` holds each sample's |x|_2, its distance from the origin, to
    the limit of ``_start``, relative to the data scale ``scale``.
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
    check_sigma_pair(sigma_t, sigma_T)
    x_T = check_state(x_T, stats.d)
    check_finite(x_T, "initial state", ShapeError)
    if sigma_T == sigma_t:
        return x_T.copy()
    lam = stats.eigvals
    coef = np.sqrt((lam + sigma_t * sigma_t) / (lam + sigma_T * sigma_T))
    y = (x_T - stats.mean) @ stats.eigvecs
    return stats.mean + (y * coef) @ stats.eigvecs.T


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashed_seeds(seed: int, m: int) -> np.ndarray:
    """SeedSequence([seed, k]).generate_state(4, np.uint64) for k < m, as (m, 4).

    SeedSequence's hash constants evolve the same way whatever the entropy,
    so one uint32 pass over the m entropy vectors hashes every row: the seed's
    32-bit words are shared and only the last word, k, varies.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed & 0xFFFFFFFF]
    while seed > 0xFFFFFFFF:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    entropy = [np.full(m, w, np.uint32) for w in words] + [np.arange(m, dtype=np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value *= np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> 16)

    zeros = np.zeros(m, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):  # entropy beyond the pool of 4 words
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    state = np.empty((m, 8), np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value *= np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64, copy=False)  # as numpy


class _Words:
    """Seed words that PCG64 seeds from in C: an ISeedSequence from the first draw on."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for (4, np.uint64)


def draw_initial_states(d: int, m: int, seed: int, schedule: NoiseSchedule,
                        init: InitSpec | None = None) -> np.ndarray:
    """Initial states x_T[k] ~ N(shift, std^2 I), shape (m, d), m >= 1.

    Row k is ``shift + std * np.random.default_rng([seed, k]).standard_normal(d)``
    bit for bit, so it depends only on (seed, k), never on m or on other
    samples. No SeedSequence is built per row: ``_hashed_seeds`` hashes the
    m SeedSequence([seed, k]) states in one vectorised pass, and numpy seeds
    each row's PCG64 from its words (``_Words``) and fills row k in place;
    the block is scaled and shifted once. NEP 19 keeps the SeedSequence and
    PCG64 streams stable across numpy versions. This is where the std rule
    is applied: ``init.std=None`` means the schedule's sigma_max; std must
    be finite and >= 0 (0 starts every sample at the shift) and the shift
    finite, or a ValueError is raised before anything is allocated.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = init or InitSpec()
    std = spec.std if spec.std is not None else schedule.sigma_max
    check_gamma(std, "init std")
    shift = np.zeros(d) if spec.shift is None else np.asarray(spec.shift, dtype=np.float64)
    if shift.shape != (d,):
        raise ShapeError(f"init shift must have length {d}, got {shift.shape}")
    check_finite(shift, "init shift")
    np.random.bit_generator.ISeedSequence.register(_Words)  # so importing lincfg skips numpy.random
    x = np.empty((m, d))
    for k, words in enumerate(_hashed_seeds(seed, m)):
        np.random.Generator(np.random.PCG64(_Words(words))).standard_normal(out=x[k])
    x *= std
    x += shift
    return x


def sample_batch(cond: GaussianStats, uncond: GaussianStats, m: int, seed: int,
                 schedule: NoiseSchedule, cfg: GuidanceConfig,
                 init: InitSpec | None = None, *, heun: bool = False) -> np.ndarray:
    """Final states (m, d) of m independent samples, row k seeded by (seed, k)
    as in ``draw_initial_states``; deterministic for a fixed seed. The
    samples are written over the drawn states (``overwrite_x``), so a
    compiled run holds one (m, d) block."""
    x_T = draw_initial_states(cond.d, m, seed, schedule, init)
    return integrate(cond, uncond, x_T, schedule, cfg, heun=heun, overwrite_x=True)
