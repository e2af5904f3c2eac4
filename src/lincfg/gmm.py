"""Gaussian-mixture extension: mixture scores, Tweedie denoisers, the
two-term CFG decomposition against a mixture background, and the guided
mixture flow.

The diagnostics, and the guided flow of small batches, read one eigenbasis
pass over the components as they are stored. ``_posterior`` takes every
y_i = (X - mu_i) U_i, divided by sqrt(lam_i + sigma^2), into one (m, Kd)
work block: one GEMM of X - mu_c against U_i into block i, minus the
offsets (mu_i - mu_c) U_i, then times those factors, in place. It is
centred on one component c, so c's own block has no offset; its
log-sum-exp weights stay finite for states far from every cluster. Each
result is then a per-row, per-block weighting of those blocks, taken back
to x with one GEMM per block against U_i^T, each block's weights and
remaining factor multiplied into its own columns (``_back_project``); a
block whose coefficient is 0 in all rows is skipped. The model keeps no
second copy of the bases, and no evaluation makes a scaled copy of one.

The guided flow of ``integrate`` has a second form for large batches. Once
per noise level it builds the component resolvents R_i = U_i diag(1/(lam_i
+ sigma^2)) U_i^T, one syrk each (``_resolvents``); one GEMM of X - mu_c
against [R_1 ... R_K], minus the (K, d) offsets (mu_i - mu_c) R_i, then
gives every (x - mu_i) R_i = -s_i, whose dot products with x - mu_i are the
quadratic forms of the weights and whose weighted sum is the drift.
``integrate`` steps its states one row block at a time, each with a (rows,
Kd) work block of about ``sampler.ROW_BLOCK_BYTES``, so neither that
scratch nor a step's slopes grow with m, and each row's arithmetic is that
of one whole-block pass: the same bits. The drift keeps the resolvents of
the last 1 + heun noise levels, so each level is still built once per run.
Both forms read the states centred on the target, X - mu_c, which is what
the flow steps: ``integrate`` runs the sampler's one stepped loop
(``sampler._advance``, so ``sampler._step`` and ``sampler._guard``) on y =
X - mu_c, the loop and the step of every Gaussian run, in x_T's own buffer
where the caller hands it over (``overwrite_x``).

In GEMM-units of (m, d) x (d, d), a guided drift evaluation costs K when
folded, plus K d^3 / 2 multiply-adds, K d / (2m) units, to build the
resolvents once per noise level (a Heun node shared by two steps is built
once). Projected it costs 2K: K to project and K to back-project, or K + 1
once every row's weight is one-hot on the target (on well-separated
clusters, from sigma ~ 0.05 down) and only the target's block goes back.
Where guidance is off, the target's block alone is projected and taken
back: 2. ``integrate`` folds when ``sampler.choose_path`` compiles, at m >=
d, which suits both integrators. Timed on one BLAS thread (K = 4
``synthetic.random_mixture``, gamma = 4, median of 5), folded/projected
time is 2.6-7.9 at m = 16 and 1.4-1.9 at m = d / 2 with Euler (N = 50, d =
128 to 512), 1.04-4.7 from m = 16 to d / 2 with Heun (N = 20), 0.71-1.09 at
m = d and 0.62-0.68 at m = 8d: projecting wins below m = d, and folding
from there.
The diagnostics (``posterior_weights``, ``mixture_score``,
``mixture_denoise``, ``gmm_cfg_guidance``) stay on the eigenbasis pass, so
the checks that hold the flow's drift, or the Tweedie identity, to them
compare two independent formulas.

Each constant of an evaluation centred on a target is formed in one place,
and the target index is checked in one, ``_target``, which ``_offsets`` and
``integrate`` both read. ``_offsets`` forms the basis offsets (mu_i - mu_c)
U_i: once per diagnostic call, once per projected run whatever its steps,
and never in a folded run, which reads the level's (mu_i - mu_c) R_i
instead. ``_weights`` takes the log-priors from the model's weights, and
``_coefficients`` sums the weights off the target.

Every function that reads a state checks it with ``errors.check_state``
(the diagnostics in ``_pass``, ``integrate`` in ``sampler._start``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sampler
from .errors import (FormatError, ShapeError, check_components, check_gamma, check_sigma,
                     check_state, check_weights)
from .stats import GaussianStats, load_stats

_LOG_UNDERFLOW = -745.0  # below this, exp() is exactly 0 in float64
_TINY = np.finfo(np.float64).tiny  # below this a float64 is subnormal


@dataclass(frozen=True)
class MixtureModel:
    """Weighted collection of Gaussian components sharing one dimension."""

    components: tuple[GaussianStats, ...]
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        check_components(comps, 1, "mixture components")
        w = np.array(self.weights, dtype=np.float64)
        check_weights(w, len(comps), "mixture weights")
        if not abs(float(w.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.tolist()}")
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


def _posterior(model: MixtureModel, xc: np.ndarray, sigma: float, offsets: np.ndarray,
               out: np.ndarray | None = None) -> tuple:
    """(log_w, w, v, r) of the rows xc = X - mu_c (m, d) at noise sigma, with
    the centre's ``_offsets``, which the caller forms once: ``_pass`` per
    diagnostic call, ``_guided_drift`` per projected run.

    log_w and w (m, K) are the normalized log posterior weights and the
    weights; r = 1/sqrt(lam_i + sigma^2) as (K, d); and v (m, K, d), a view
    of ``out`` (m, Kd) (a new block if None), holds v_i = y_i r_i with y_i =
    (X - mu_i) U_i: one GEMM of xc against U_i into each block, then minus
    the offsets and times r, both in place; the weights come from |v_i|^2
    and the log-determinants of lam_i + sigma^2, formed here with r, through
    ``_weights``, which reads the priors.
    """
    var = np.stack([c.eigvals for c in model.components]) + sigma * sigma
    r = 1.0 / np.sqrt(var)
    out = np.empty((len(xc), model.k * model.d)) if out is None else out
    v = out.reshape(len(xc), model.k, model.d)
    for i, comp in enumerate(model.components):
        np.matmul(xc, comp.eigvecs, out=v[:, i])
    v -= offsets
    v *= r
    log_w, w = _weights(np.einsum("mkd,mkd->mk", v, v), np.sum(np.log(var), axis=1), model)
    return log_w, w, v, r


def _target(model: MixtureModel, target: int) -> GaussianStats:
    """The component ``target``, after checking that it is one: 0 <= target < K."""
    if not 0 <= target < model.k:
        raise IndexError(f"target index {target} out of range for K={model.k}")
    return model.components[target]


def _offsets(model: MixtureModel, centre: int) -> np.ndarray:
    """(mu_i - mu_centre) U_i as (K, d), exactly 0 at the centre, after
    checking that the centre is a component (``_target``)."""
    mu = _target(model, centre).mean
    return np.stack([np.einsum("d,ed->e", c.mean - mu, c.eigvecs.T) for c in model.components])


def _weights(quad: np.ndarray, logdet: np.ndarray, model: MixtureModel) -> tuple:
    """(log_w, w) (m, K) from the quadratic forms quad = (x - mu_i)^T (Sigma_i
    + sigma^2)^-1 (x - mu_i) (m, K), overwritten, the log-determinants
    logdet = sum log(lam_i + sigma^2) (K,) and the log-priors, which the
    eigenbasis pass and the folded drift both take here, from
    ``model.weights``: normalized by log-sum-exp, and a weight whose log is
    below -745 is exactly 0. The d/2 log 2pi term is
    dropped, as it cancels out of normalized weights."""
    logp = quad
    logp += logdet
    logp *= -0.5
    logp += np.log(model.weights)
    logp -= logp.max(axis=1, keepdims=True)
    log_w = logp - np.log(np.sum(np.exp(logp), axis=1, keepdims=True))
    w = np.exp(log_w)
    w[log_w < _LOG_UNDERFLOW] = 0.0
    return log_w, w


def _pass(model: MixtureModel, x: np.ndarray, sigma: float, centre: int = 0,
          offsets: np.ndarray | None = None) -> tuple:
    """``_posterior`` of the state(s) x, after ``check_sigma`` and
    ``check_state``, as rows centred on component ``centre``, whose
    ``_offsets`` are formed unless given."""
    check_sigma(sigma)
    x = check_state(x, model.d, against="mixture")
    return _posterior(model, x.reshape(-1, model.d) - model.components[centre].mean, sigma,
                      _offsets(model, centre) if offsets is None else offsets)


def _back_project(model: MixtureModel, v: np.ndarray, coef: np.ndarray,
                  scale: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_i (coef_i v_i) diag(scale_i) U_i^T for v (m, K, d), per-row
    coefficients coef (m, K) and per-block factors scale (K, d), written
    into ``out`` (a new block if None) and returned: one GEMM against U_i^T,
    a view of the component's eigvecs, for each block whose coefficient is
    nonzero in some row, summed in block order; the terms of the other
    blocks are exactly 0. Coefficients below the smallest normal float count
    as 0, so no subnormal weight reaches a GEMM. Each kept block of v is
    scaled in place by coef_i and scale_i, so no scaled copy of U_i^T is
    made."""
    m, _, d = v.shape
    coef = np.where(np.abs(coef) < _TINY, 0.0, coef)
    kept = np.flatnonzero(coef.any(axis=0))
    out = np.empty((m, d)) if out is None else out
    if not kept.size:
        out.fill(0.0)
    term = None
    for n, i in enumerate(kept):
        vi = v[:, i]
        vi *= coef[:, i, None]
        vi *= scale[i]
        if n:
            term = np.matmul(vi, model.components[i].eigvecs.T, out=term)
            out += term
        else:
            np.matmul(vi, model.components[i].eigvecs.T, out=out)
    return out


def posterior_weights(model: MixtureModel, x: np.ndarray,
                      sigma: float) -> PosteriorWeights:
    """Posterior probability that x, of shape (d,) or (m, d), belongs to each
    cluster at noise sigma: shape (K,) or (m, K). Weights relatively below
    exp(-745) of the maximum are exactly 0; the log weights stay informative."""
    log_w, w, _, _ = _pass(model, x, sigma)
    shape = (*np.shape(x)[:-1], model.k)
    return PosteriorWeights(w=w.reshape(shape), log_w=log_w.reshape(shape))


def mixture_score(model: MixtureModel, x: np.ndarray, sigma: float) -> np.ndarray:
    """Score of the noise-mollified mixture, sum_i w_i(x) (Sigma_i + sigma^2 I)^-1 (mu_i - x),
    evaluated as -sum_i w_i (y_i / (lam_i + sigma^2)) U_i^T."""
    _, w, v, r = _pass(model, x, sigma)
    return _back_project(model, v, -w, r).reshape(np.shape(x))


def mixture_denoise(model: MixtureModel, x: np.ndarray, sigma: float) -> np.ndarray:
    """Tweedie denoiser of the mixture, sum_i w_i(x) (mu_i + U_i L~_i U_i^T (x - mu_i)),
    evaluated as sum_i w_i (mu_i + (y_i * f_i) U_i^T) with the shrinkage factors f_i.

    Satisfies D = x + sigma^2 * mixture_score(x) identically, by another formula.
    """
    _, w, v, r = _pass(model, x, sigma)
    lam = np.stack([c.eigvals for c in model.components])
    out = _back_project(model, v, w, lam * r)  # y_i lam_i / (lam_i + sigma^2)
    out += w @ np.stack([c.mean for c in model.components])
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
                = gamma sum_{i != c} w_i (R_i - R_c)(x - mu_c)
    g_mean_like = (gamma/sigma^2) sum_{i != c} w_i (I - S~_i)(mu_c - mu_i)
                = gamma sum_{i != c} w_i R_i (mu_c - mu_i)

    with R_i = (Sigma_i + sigma^2)^-1; their sum is gamma (D_c - D_mixture) /
    sigma^2. Both read the pass centred on the target: one GEMM takes z_i =
    (x - mu_c) U_i back, and the offsets (mu_i - mu_c) U_i give the shifts.
    """
    offsets = _offsets(model, target)
    check_gamma(gamma)
    _, w, v, r = _pass(model, x, sigma, target, offsets)
    v += offsets * r  # z_i r_i
    cpc = _back_project(model, v, _coefficients(w, target, 0.0, gamma), r)
    var = np.stack([c.eigvals for c in model.components]) + sigma * sigma
    shifts = np.stack([np.einsum("d,de->e", a, c.eigvecs.T)  # R_i (mu_c - mu_i), exactly 0 at c
                       for a, c in zip(offsets / -var, model.components)])
    return GmmGuidanceTerms(g_cpc_like=cpc.reshape(np.shape(x)),
                            g_mean_like=(gamma * (w @ shifts)).reshape(np.shape(x)))


def _coefficients(w: np.ndarray, target: int, c: float, gamma: float) -> np.ndarray:
    """gamma w_i off the target, -(c + gamma sum_{i != t} w_i) on it, the sum
    taken here over w without the target's column (every other index, in
    order): never c + gamma (w_t - 1), which rounds to c in rows close to
    one-hot."""
    coef = gamma * w
    coef[:, target] = -(c + gamma * np.delete(w, target, axis=1).sum(axis=1))
    return coef


def _resolvents(model: MixtureModel, sigma: float, out: np.ndarray) -> np.ndarray:
    """Write R_i = U_i diag(1/(lam_i + sigma^2)) U_i^T into out (K, d, d), one
    syrk each, as (U_i r_i)(U_i r_i)^T with r_i = 1/sqrt(lam_i + sigma^2),
    each U_i r_i scaled into one (d, d) buffer; return the variances lam_i +
    sigma^2 (K, d)."""
    var = np.stack([comp.eigvals for comp in model.components]) + sigma * sigma
    scaled = np.empty((model.d, model.d))
    for comp, r, res in zip(model.components, 1.0 / np.sqrt(var), out):
        np.multiply(comp.eigvecs, r, out=scaled)
        np.matmul(scaled, scaled.T, out=res)
    return var


def _guided_drift(model: MixtureModel, target: int, cfg: sampler.GuidanceConfig,
                  form: str, heun: bool = False):
    """drift(y, sigma, w=1, out=None) of ``integrate`` for one block of rows
    y = X - mu_t at a time, the states centred on the target: w times the
    drift, written into ``out`` (a new block if None, never y) and
    returned. The unguided branch takes w in its d factors. A guided drift
    scales its sum by w, one pass of the rows' block: a cond-off guided
    drift is a sum of cancelling terms, and w in the (rows, K) coefficients
    rounds each term once more, which raised a run's error, in units of
    its own 1-ulp sensitivity, from 0.92 to 1.06 (Euler, geometric mean
    over 60 random cond-off mixtures).

    Guided, the drift is c s_t + gamma (s_t - sum_i w_i s_i) = sum_i c_i s_i
    with s_i = -(Sigma_i + sigma^2)^-1 (x - mu_i), c the cond switch (1 or 0),
    c_i = -gamma w_i off the target and c_t = c + gamma sum_{i != t} w_i, so
    a row one-hot on the target weighs s_t by exactly c. Coefficients below
    the smallest normal float count as 0. ``form`` (see ``integrate``) says how:

    - 'projected': one eigenbasis pass of y (``_posterior``), with the
      target's ``_offsets`` formed once per run, when the drift is made, and
      one back-projection of the blocks some row still weighs
      (``_back_project``).
    - 'folded': one GEMM of y against the resolvents of sigma, minus the
      offsets (mu_i - mu_t) R_i, gives each -s_i = (x - mu_i) R_i; the
      quadratic forms (x - mu_i) . (x - mu_i) R_i give the weights, and the
      drift is the coefficient-weighted sum of the blocks. The centred means
      mu_i - mu_t are formed once, when the drift is made, and the basis
      offsets never. Each row's arithmetic reads its own row only. The resolvents, offsets and
      log-determinants of the last 1 + ``heun`` guided sigmas are kept, and
      a new sigma's are built over the oldest's, so each noise level is
      built once per run however many row blocks ``integrate`` steps: N
      times with Euler and N + 1 with Heun, whose steps share a node.

    Unguided it is c s_t, ``denoiser.score`` of the target centred at 0,
    whose projection onto U_t takes the work block's first rows x d
    entries, and zero with no GEMM where c = 0. The work block, (rows, Kd)
    for the rows of y, is made at the first evaluation that reads it and
    serves every later one, so y must have no more rows than at that
    evaluation; ``integrate`` hands its longest row block
    first.
    """
    tgt = model.components[target]
    c = 1.0 if cfg.enable_cond else 0.0
    k, d = model.k, model.d
    diff = np.stack([comp.mean for comp in model.components]) - tgt.mean  # 0 at the target
    basis_offsets = _offsets(model, target) if form == "projected" else None
    levels = {}  # sigma -> (res, offsets, logdet), the oldest first
    work = None

    def level(sigma):
        """(res, offsets, logdet) of sigma; res (K, d, d) holds R_1 ... R_K."""
        if sigma not in levels:
            res = levels.pop(next(iter(levels)))[0] if len(levels) > heun else np.empty((k, d, d))
            logdet = np.sum(np.log(_resolvents(model, sigma, res)), axis=1)
            levels[sigma] = res, np.einsum("kd,kde->ke", diff, res), logdet
        return levels[sigma]

    def drift(y, sigma, w=1.0, out=None):
        nonlocal work
        g = cfg.weight(sigma)
        if not (g or c):
            if out is None:
                return np.zeros_like(y)
            out.fill(0.0)
            return out
        if work is None:
            work = np.empty((len(y), k * d))
        if not g:
            # c w denoiser.score of the target centred at 0: its score at y is the target's at x
            proj = np.matmul(y, tgt.eigvecs, out=work.reshape(-1)[:y.size].reshape(y.shape))
            proj *= (-c * w) / (tgt.eigvals + sigma * sigma)
            return np.matmul(proj, tgt.eigvecs.T, out=out)
        if form == "projected":
            _, wts, v, r = _posterior(model, y, sigma, basis_offsets, work[:len(y)])
            out = _back_project(model, v, _coefficients(wts, target, c, g), r, out)
        else:
            res, offsets, logdet = level(sigma)
            # each R_i is symmetric, so res as (Kd, d), transposed, is [R_1 ... R_K]
            z = np.matmul(y, res.reshape(k * d, d).T, out=work[:len(y)]).reshape(len(y), k, d)
            z -= offsets
            quad = np.einsum("md,mkd->mk", y, z)
            quad -= np.einsum("mkd,kd->mk", z, diff)
            coef = _coefficients(_weights(quad, logdet, model)[1], target, c, g)
            coef[np.abs(coef) < _TINY] = 0.0
            out = np.einsum("mk,mkd->md", coef, z, out=out)
        out *= w  # after the sum, not in the coefficients (see above)
        return out

    return drift


def integrate(model: MixtureModel, target: int, x_T: np.ndarray,
              schedule: sampler.NoiseSchedule, cfg: sampler.GuidanceConfig, *,
              heun: bool = False, overwrite_x: bool = False) -> np.ndarray:
    """Final states of the guided mixture flow toward one component from x_T.

    The conditional score is the target component's linear score and the
    unconditional one the mixture score; the guidance is their difference
    times the gain g(sigma) of ``cfg.weight``, and the per-term CPC toggles
    do not apply. The drift (``_guided_drift``) is folded where
    ``sampler.choose_path`` compiles the block's (m, d), at m >= d, and
    projected below, once per run. The run steps y = x - mu_target under
    that drift with the sampler's one stepped loop (``sampler._advance``),
    so each step is ``sampler._step`` and ``_guard`` holds each sample's |x -
    mu_target|_2 to the divergence limit of ``sampler._start``, the rule of
    the Gaussian runs with the target's mean as the centre. A folded run
    steps y in the row blocks of ``sampler._row_blocks(m, Kd)``, one (rows,
    Kd) work block of about ROW_BLOCK_BYTES each, so its slopes and scratch
    do not grow with m; a projected one steps all m rows at once. The (m,
    d) block y becomes the samples.

    x_T is left as it is by default, and y is a new block. With
    ``overwrite_x=True`` (x_T then must be a writeable C-contiguous float64
    array, as for ``sampler.integrate``) y is formed in x_T's buffer,
    stepped there and returned as a view of it, so the run holds no (m, d)
    block of states beyond x_T; both give the same bits. Unlike a Gaussian
    run, whose fold guards every step before it writes, a run that raises
    DivergenceError then leaves x_T's contents unspecified.
    """
    mu = _target(model, target).mean
    x, limit = sampler._start(x_T, schedule, sampler.data_scale(*model.components), overwrite_x,
                              model.d, "mixture")
    m, d = x.shape
    folded = sampler.choose_path(m, d) == "compiled"
    blocks = sampler._row_blocks(m, model.k * d) if folded else [slice(None)]
    y = np.subtract(x, mu, out=x if overwrite_x else None)
    drift = _guided_drift(model, target, cfg, "folded" if folded else "projected", heun)
    sampler._advance(y, drift, schedule, heun, limit, blocks)
    y += mu
    return y.reshape(np.shape(x_T))


def sample_batch(model: MixtureModel, target: int, m: int, seed: int,
                 schedule: sampler.NoiseSchedule, cfg: sampler.GuidanceConfig,
                 init: sampler.InitSpec | None = None, *,
                 heun: bool = False) -> np.ndarray:
    """Final states (m, d) of guided mixture samples toward one component
    (``integrate``); seeding follows sampler.draw_initial_states. The
    samples are written over the drawn states (``overwrite_x``)."""
    x_T = sampler.draw_initial_states(model.d, m, seed, schedule, init)
    return integrate(model, target, x_T, schedule, cfg, heun=heun, overwrite_x=True)


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
        if not stats_path.is_file():  # missing, or a directory
            raise FileNotFoundError(stats_path)
        comps.append(load_stats(stats_path))
        weights.append(weight)
    try:
        return MixtureModel(components=tuple(comps), weights=np.array(weights))
    except ShapeError:
        raise
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
