"""Independent oracles for the samples each `lincfg sample` op writes.

Three kinds, chosen per config (see workloads.ABLATION_CYCLE):

plain    all guidance components on: the plain CFG drift
         (1+gamma) score_c - gamma score_uc through
         sampler.integrate_with_scores and denoiser.score, so no CPC
         decomposition is involved.
dense    single-sign, mean-shift-only and frozen-CPC configs: a dense numpy
         drift built here from solves against Sigma + sigma^2 I and an eigh
         of the dense shrunk-covariance difference; no lincfg.cpca.
mixture  per-component dense solves with log-sum-exp posterior weights.

In every case x_T is rebuilt here from the documented rule: sample k draws
N(shift, std^2 I) from numpy's default_rng([seed, k]). Errors follow the
trajectory-relative convention of verify.trajectory_rel_error.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lincfg import denoiser, sampler
from lincfg.gmm import load_mixture
from lincfg.stats import load_data_matrix, load_stats
from lincfg.verify import trajectory_rel_error

TOL = 1e-8                  # max trajectory-relative error per sample
CPC_ZERO_TOL = 1e-10        # shrinkage-unit eigenvalues lie in [-1, 1]
SIGMA_MAX, SIGMA_MIN, RHO = 80.0, 0.002, 7.0


def read_config(path: Path) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if line)
    return {k: v for k, v in pairs}


def sigmas(steps: int) -> np.ndarray:
    """EDM rho-warped grid from SIGMA_MAX to SIGMA_MIN."""
    i = np.arange(steps + 1) / steps
    a, b = SIGMA_MAX ** (1 / RHO), SIGMA_MIN ** (1 / RHO)
    s = (a + i * (b - a)) ** RHO
    s[0], s[-1] = SIGMA_MAX, SIGMA_MIN
    return s


def initial_states(d: int, m: int, seed: int, shift, std: float) -> np.ndarray:
    return np.stack([shift + std * np.random.default_rng([seed, k]).standard_normal(d)
                     for k in range(m)])


def _interval(cfg: dict[str, str]):
    if cfg.get("interval", "none") == "none":
        return None
    lo, hi = cfg["interval"].split(":")
    return float(lo), float(hi)


def _guided(cfg: dict[str, str], sigma: float) -> bool:
    iv = _interval(cfg)
    return float(cfg["gamma"]) > 0.0 and (iv is None or iv[0] <= sigma <= iv[1])


def _step(drift, x: np.ndarray, grid: np.ndarray, heun: bool) -> np.ndarray:
    """Euler (or Heun) steps of dx/dsigma = -sigma * drift(x, sigma)."""
    for s0, s1 in zip(grid[:-1], grid[1:]):
        k0 = -s0 * drift(x, s0)
        x_next = x + (s1 - s0) * k0
        if heun:
            x_next = x + (s1 - s0) * 0.5 * (k0 + -s1 * drift(x_next, s1))
        x = x_next
    return x


def _dense_cov(stats) -> np.ndarray:
    return (stats.eigvecs * stats.eigvals) @ stats.eigvecs.T


def _dense_shrunk(cov: np.ndarray, sigma: float) -> np.ndarray:
    """Sigma (Sigma + sigma^2 I)^-1 by a dense solve, symmetrized."""
    s = np.linalg.solve(cov + sigma * sigma * np.eye(len(cov)), cov)
    return 0.5 * (s + s.T)


def _plain(cfg, cond, uncond, x_T, grid, heun):
    gcfg = sampler.GuidanceConfig(gamma=float(cfg["gamma"]),
                                  active_interval=_interval(cfg))
    return sampler.integrate_with_scores(
        lambda x, s: denoiser.score(cond, x, s),
        lambda x, s: denoiser.score(uncond, x, s),
        x_T, sampler.NoiseSchedule(grid), gcfg, heun=heun)


def _dense(cfg, cond, uncond, x_T, grid, heun):
    comps = cfg.get("components", "all")
    comps = {"pos_cpc", "neg_cpc", "mean_shift"} if comps == "all" else set(comps.split(","))
    freeze = float(cfg["freeze_cpc_at"]) if cfg.get("freeze_cpc_at") else None
    gamma = float(cfg["gamma"])
    cov_c, cov_uc = _dense_cov(cond), _dense_cov(uncond)
    eye = np.eye(cond.d)

    def contrast(sigma):
        lam, vec = np.linalg.eigh(_dense_shrunk(cov_c, sigma) - _dense_shrunk(cov_uc, sigma))
        keep = np.zeros_like(lam, dtype=bool)
        if "pos_cpc" in comps:
            keep |= lam > CPC_ZERO_TOL
        if "neg_cpc" in comps:
            keep |= lam < -CPC_ZERO_TOL
        return (vec[:, keep] * lam[keep]) @ vec[:, keep].T

    frozen = contrast(freeze) if freeze is not None else None

    def drift(x, sigma):
        z = x - cond.mean
        out = z @ (_dense_shrunk(cov_c, sigma) - eye) / sigma**2
        if _guided(cfg, sigma):
            coef = gamma / sigma**2
            if comps & {"pos_cpc", "neg_cpc"}:
                out += coef * z @ (frozen if frozen is not None else contrast(sigma))
            if "mean_shift" in comps:
                out += coef * (eye - _dense_shrunk(cov_uc, sigma)) @ (cond.mean - uncond.mean)
        return out

    return _step(drift, x_T, grid, heun)


def _mixture(cfg, model, x_T, grid, heun):
    target = int(cfg["target"])
    gamma = float(cfg["gamma"])
    covs = [_dense_cov(c) for c in model.components]

    def solves(x, sigma):
        """Per component: (Sigma_i + sigma^2 I)^-1 (mu_i - x) and log N(x)."""
        out = []
        for c, cov in zip(model.components, covs):
            a = cov + sigma * sigma * np.eye(c.d)
            r = c.mean - x
            sol = np.linalg.solve(a, r.T).T
            logdet = np.linalg.slogdet(a)[1]
            out.append((sol, -0.5 * (np.sum(r * sol, axis=1) + logdet
                                     + c.d * np.log(2 * np.pi))))
        return out

    def drift(x, sigma):
        parts = solves(x, sigma)
        s_c = parts[target][0]
        if not _guided(cfg, sigma):
            return s_c
        logp = np.stack([lp for _, lp in parts], axis=1) + np.log(model.weights)
        w = np.exp(logp - logp.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        s_mix = sum(w[:, i:i + 1] * sol for i, (sol, _) in enumerate(parts))
        return (1 + gamma) * s_c - gamma * s_mix

    return _step(drift, x_T, grid, heun)


def check(kind: str, cfg_path: Path, samples_path: Path) -> float:
    """Worst trajectory-relative error of the written samples vs the oracle."""
    cfg = read_config(cfg_path)
    grid = sigmas(int(cfg["steps"]))
    heun = cfg.get("heun", "false") == "true"
    m, seed = int(cfg["m"]), int(cfg["seed"])
    if kind == "mixture":
        model = load_mixture(cfg["mixture"])
        x_T = initial_states(model.d, m, seed, np.zeros(model.d), SIGMA_MAX)
        ref = _mixture(cfg, model, x_T, grid, heun)
    else:
        cond, uncond = load_stats(cfg["cond_stats"]), load_stats(cfg["uncond_stats"])
        shift = np.zeros(cond.d)
        if cfg.get("init") == "mean_shifted":
            shift = float(cfg["init_gamma"]) * (cond.mean - uncond.mean)
        x_T = initial_states(cond.d, m, seed, shift, SIGMA_MAX)
        run = _plain if kind == "plain" else _dense
        ref = run(cfg, cond, uncond, x_T, grid, heun)
    got = load_data_matrix(samples_path).values
    if got.shape != ref.shape:
        return float("inf")
    return float(np.max(trajectory_rel_error(got, ref, x_T)))
