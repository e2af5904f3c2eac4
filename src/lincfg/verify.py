"""Built-in property suites over synthetic instances.

Each check pits an implementation against an independent oracle (closed forms,
brute-force sums, finite differences, grid searches) and reports its worst
error against a fixed tolerance. The CLI ``verify`` command drives these; the
acceptance tests assert on the same results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, cpca, denoiser, gmm, sampler, synthetic
from .errors import check_state
from .stats import GaussianStats, spectral_from_covariance


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    error: float
    tol: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: worst error {self.error:.3e} (tol {self.tol:.1e})"
        if self.note:
            msg += f" - {self.note}"
        return msg


def _result(name: str, error: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(error <= tol), error=float(error),
                       tol=tol, note=note)


def trajectory_rel_error(x_num: np.ndarray, x_ref: np.ndarray,
                         x_T: np.ndarray) -> np.ndarray:
    """Per-sample error relative to the trajectory scale.

    The reverse flow contracts from |x_T| down to the data scale, and the
    reference state can pass arbitrarily close to zero, so errors are
    normalized by max(|x_ref|, |x_T|) per sample (the ODE-solver convention
    of measuring against the largest state magnitude on the trajectory).
    Each of the three is a state of ``check_state``, of x_ref's dimension.
    """
    x_ref = np.atleast_2d(check_state(x_ref, None))
    x_num, x_T = (np.atleast_2d(check_state(x, x_ref.shape[1], what, "reference"))
                  for x, what in ((x_num, "sample"), (x_T, "start")))
    diff = np.linalg.norm(x_num - x_ref, axis=-1)
    return diff / np.maximum(np.linalg.norm(x_ref, axis=-1), np.linalg.norm(x_T, axis=-1))


def riemann_b_coefficient(lam_c: float, lam_uc: float, sigma_t: float,
                          sigma_T: float, gamma: float,
                          n: int = 1_000_000) -> float:
    """Brute-force midpoint Riemann evaluation of the mean-shift coefficient."""
    edges = np.linspace(sigma_t, sigma_T, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    vals = ((lam_uc + mid**2) ** (0.5 * gamma - 1.0)
            / (lam_c + mid**2) ** (0.5 * (gamma + 1.0)) * mid)
    integral = float(vals.sum()) * (sigma_T - sigma_t) / n
    pref = math.sqrt(lam_c + sigma_t**2) * ((lam_c + sigma_t**2) / (lam_uc + sigma_t**2)) ** (0.5 * gamma)
    return pref * integral


def b_equal_antiderivative(lam: float, sigma_t: float, sigma_T: float) -> float:
    """Exact b for lam_c = lam_uc: 1 - sqrt((lam + s_t^2)/(lam + s_T^2))."""
    return 1.0 - math.sqrt((lam + sigma_t**2) / (lam + sigma_T**2))


# ---------------------------------------------------------------------------
# theorem1 suite: analytic solutions vs ODE integration
# ---------------------------------------------------------------------------


def check_toy_pair_accepted() -> CheckResult:
    res = analytic.check_common_pc(synthetic.toy_conditional_stats(),
                                   synthetic.toy_unconditional_stats())
    if isinstance(res, analytic.CommonPCRejection):
        return _result("theorem1/toy_pair_accepted", np.inf, 1e-10,
                       "toy pair rejected")
    err = max(res.commutator_norm,
              float(np.max(np.abs(np.sort(res.lam_uc) - np.sort(np.array(synthetic.TOY_LAM_UC))))))
    return _result("theorem1/toy_pair_accepted", err, 1e-10)


def check_rotated_pair_rejected() -> CheckResult:
    cond = synthetic.toy_conditional_stats()
    th = np.deg2rad(30.0)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    cov = R @ synthetic.toy_unconditional_stats().covariance() @ R.T
    rotated = spectral_from_covariance(np.zeros(2), cov)
    res = analytic.check_common_pc(cond, rotated)
    rejected = isinstance(res, analytic.CommonPCRejection)
    err = 0.0 if (rejected and res.commutator_norm > 0) else np.inf
    return _result("theorem1/rotated_pair_rejected", err, 1e-12,
                   f"commutator {res.commutator_norm:.3e}" if rejected else "accepted")


def check_h_factor_basics() -> CheckResult:
    worst = abs(analytic.h_factor(5.0, 5.0, 0.01, 70.0) - 1.0)
    worst = max(worst, abs(analytic.h_factor(10.0, 3.0, 2.0, 2.0) - 1.0))
    direct = ((10.0 + 0.002**2) / (10.0 + 80.0**2)) * ((3.0 + 80.0**2) / (3.0 + 0.002**2))
    worst = max(worst, abs(analytic.h_factor(10.0, 3.0, 0.002, 80.0) - direct))
    return _result("theorem1/h_factor_basics", worst, 1e-14)


def check_h_monotone() -> CheckResult:
    lams = np.array([0.0, 0.05, 0.5, 1.0, 3.0, 10.0, 50.0])
    sigmas = [(0.002, 80.0), (0.1, 10.0), (1.0, 5.0)]
    bad = 0
    for st, sT in sigmas:
        grid = analytic.h_factor(lams[:, None], lams[None, :], st, sT)
        want = np.where(lams[:, None] >= lams[None, :],
                        grid >= 1.0 - 1e-15, grid <= 1.0 + 1e-15)
        bad += int(np.sum(~want))
    return _result("theorem1/h_monotone_amplification", float(bad), 0.0,
                   "h >= 1 iff lam_c >= lam_uc")


def check_b_equal_lambda() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        lam = float(rng.uniform(0.05, 10.0))
        st = float(rng.uniform(0.002, 1.0))
        sT = float(rng.uniform(5.0, 80.0))
        gamma = float(rng.uniform(0.0, 4.0))
        exact = b_equal_antiderivative(lam, st, sT)
        # fallback path (lam_c == lam_uc) must be the antiderivative itself
        worst = max(worst, abs(analytic.b_coefficient(lam, lam, st, sT, gamma) - exact))
        # quadrature path, forced by a perturbation beyond the fallback window
        quad = analytic.b_coefficient(lam, lam + 1e-11, st, sT, gamma)
        worst = max(worst, abs(quad - exact))
    return _result("theorem1/b_equal_lambda_antiderivative", worst, 1e-10)


def check_b_vs_riemann(n_draws: int = 20) -> CheckResult:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(n_draws):
        lam_c = float(rng.uniform(0.1, 10.0))
        lam_uc = float(rng.uniform(0.1, 10.0))
        st = float(rng.uniform(0.002, 1.0))
        sT = float(rng.uniform(10.0, 80.0))
        gamma = float(rng.uniform(0.0, 4.0))
        quad = analytic.b_coefficient(lam_c, lam_uc, st, sT, gamma)
        ref = riemann_b_coefficient(lam_c, lam_uc, st, sT, gamma)
        worst = max(worst, abs(quad - ref) / max(1.0, abs(ref)))
    return _result("theorem1/b_vs_riemann_1e6", worst, 1e-8)


def check_b_nonnegative() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(30):
        lam_c = float(rng.uniform(0.0, 10.0))
        lam_uc = float(rng.uniform(0.0, 10.0))
        st = float(rng.uniform(0.002, 2.0))
        sT = st + float(rng.uniform(0.0, 78.0))
        gamma = float(rng.uniform(0.0, 6.0))
        b = analytic.b_coefficient(lam_c, lam_uc, st, sT, gamma) if sT > st else 0.0
        worst = min(worst, b)
    return _result("theorem1/b_nonnegative", -worst, 0.0)


def check_closed_form_gamma0() -> CheckResult:
    pair = synthetic.toy_common_pair()
    cond = synthetic.toy_conditional_stats()
    rng = np.random.default_rng(14)
    xT = rng.standard_normal((32, 2)) * 80.0
    a = analytic.closed_form_cfg(pair, xT, 0.002, 80.0, 0.0)
    b = sampler.closed_form_unguided(cond, xT, 80.0, 0.002)
    worst = float(np.max(np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1)))
    return _result("theorem1/closed_form_gamma0_reduction", worst, 1e-12)


def check_theorem1_vs_euler(n_draws: int = 50, n_steps: int = 2000) -> CheckResult:
    """Central Theorem-1 validation: closed form vs fine Euler integration."""
    pair = synthetic.toy_common_pair()
    cond = synthetic.toy_conditional_stats()
    uncond = synthetic.toy_unconditional_stats()
    schedule = sampler.make_schedule(80.0, 0.002, n_steps, 7.0)
    rng = np.random.default_rng(15)
    x_T = rng.standard_normal((n_draws, 2)) * 80.0
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        cfg = sampler.GuidanceConfig(gamma=gamma)
        x_e = sampler.integrate(cond, uncond, x_T, schedule, cfg)
        x_c = analytic.closed_form_cfg(pair, x_T, 0.002, 80.0, gamma)
        worst = max(worst, float(trajectory_rel_error(x_e, x_c, x_T).max()))
    return _result("theorem1/closed_form_vs_euler_2000", worst, 1e-2,
                   "gamma in {0.5, 1, 2}")


def check_unguided_vs_euler() -> CheckResult:
    """Unguided closed form vs Euler at N = 400, plus convergence order."""
    cond = synthetic.toy_conditional_stats()
    uncond = synthetic.toy_unconditional_stats()
    rng = np.random.default_rng(16)
    x_T = rng.standard_normal((100, 2)) * 80.0
    cfg = sampler.GuidanceConfig(gamma=0.0)
    x_ref = sampler.closed_form_unguided(cond, x_T, 80.0, 0.002)
    errs = []
    for n in (25, 50, 100, 200, 400):
        schedule = sampler.make_schedule(80.0, 0.002, n, 7.0)
        x_e = sampler.integrate(cond, uncond, x_T, schedule, cfg)
        errs.append(float(trajectory_rel_error(x_e, x_ref, x_T).max()))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    first_order = all(1.5 <= r <= 3.0 for r in ratios)
    err = errs[-1] if first_order else np.inf
    note = "err(N): " + ", ".join(f"{e:.2e}" for e in errs)
    return _result("theorem1/unguided_closed_form_vs_euler_400", err, 1e-3, note)


def suite_theorem1() -> list[CheckResult]:
    return [
        check_toy_pair_accepted(),
        check_rotated_pair_rejected(),
        check_h_factor_basics(),
        check_h_monotone(),
        check_b_equal_lambda(),
        check_b_vs_riemann(),
        check_b_nonnegative(),
        check_closed_form_gamma0(),
        check_unguided_vs_euler(),
        check_theorem1_vs_euler(),
    ]


# ---------------------------------------------------------------------------
# decomposition suite: three-term guidance identity and gating
# ---------------------------------------------------------------------------


def _assembled_guidance(cond: GaussianStats, uncond: GaussianStats,
                        x: np.ndarray, sigma: float, gamma: float) -> np.ndarray:
    """Direct CFG drift from the denoiser module: score_c + gamma (score_c - score_uc)."""
    sc = denoiser.score(cond, x, sigma)
    su = denoiser.score(uncond, x, sigma)
    return sc + gamma * (sc - su)


def check_decomposition_identity(n_pairs: int = 100, d: int = 8) -> CheckResult:
    """The four terms sum to the denoiser's CFG drift, and so does the drift
    that full-CFG sampling runs: the flow's both-sign direct split."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(n_pairs):
        cond, uncond = synthetic.random_stats_pair(d, rng)
        sigma = float(rng.uniform(0.05, 10.0))
        gamma = float(rng.uniform(0.0, 4.0))
        x = rng.standard_normal(d) * max(1.0, sigma)
        cfg = sampler.GuidanceConfig(gamma=gamma)
        terms = sampler.guidance_terms(cond, uncond, x, sigma, cfg)
        run = sampler._CondBasisFlow(cond, uncond, cfg).drift((x - cond.mean) @ cond.eigvecs, sigma)
        ref = _assembled_guidance(cond, uncond, x, sigma, gamma)
        worst = max(worst, float(np.max(np.abs(terms.total() - ref))),
                    float(np.max(np.abs(run @ cond.eigvecs.T - ref))))
    return _result("decomposition/identity_vs_denoiser", worst, 1e-10, "term sum and sampled drift")


def check_gamma_zero() -> CheckResult:
    rng = np.random.default_rng(22)
    cond, uncond = synthetic.random_stats_pair(6, rng)
    x = rng.standard_normal(6)
    terms = sampler.guidance_terms(cond, uncond, x, 1.3,
                                   sampler.GuidanceConfig(gamma=0.0))
    worst = float(max(np.max(np.abs(terms.g_pos)), np.max(np.abs(terms.g_neg)),
                      np.max(np.abs(terms.g_mean))))
    return _result("decomposition/gamma_zero_guidance", worst, 0.0)


def check_gamma_linearity() -> CheckResult:
    rng = np.random.default_rng(23)
    cond, uncond = synthetic.random_stats_pair(5, rng)
    x = rng.standard_normal(5)
    sigma = 0.7
    worst = 0.0
    for gamma in (0.25, 1.0, 3.0):
        t1 = sampler.guidance_terms(cond, uncond, x, sigma,
                                    sampler.GuidanceConfig(gamma=gamma))
        t2 = sampler.guidance_terms(cond, uncond, x, sigma,
                                    sampler.GuidanceConfig(gamma=2.0 * gamma))
        for a, b in ((t1.g_pos, t2.g_pos), (t1.g_neg, t2.g_neg), (t1.g_mean, t2.g_mean)):
            worst = max(worst, float(np.max(np.abs(2.0 * a - b))))
    return _result("decomposition/guidance_linear_in_gamma", worst, 1e-12)


def check_interval_gating() -> CheckResult:
    rng = np.random.default_rng(24)
    cond, uncond = synthetic.random_stats_pair(4, rng)
    schedule = sampler.make_schedule(80.0, 0.002, 40, 7.0)
    gated = sampler.GuidanceConfig(gamma=3.0, active_interval=(4.0, 80.0))
    worst = 0.0
    x = rng.standard_normal(4)
    for sigma in (0.01, 0.5, 3.999):
        t = sampler.guidance_terms(cond, uncond, x, sigma, gated)
        worst = max(worst, float(np.max(np.abs(np.concatenate(
            [t.g_pos, t.g_neg, t.g_mean])))))
    # disjoint interval: guided trajectory must equal the unguided one exactly
    disjoint = sampler.GuidanceConfig(gamma=3.0, active_interval=(100.0, 200.0))
    x_T = rng.standard_normal((8, 4)) * 80.0
    a = sampler.integrate(cond, uncond, x_T, schedule, disjoint)
    b = sampler.integrate(cond, uncond, x_T, schedule, sampler.GuidanceConfig(gamma=0.0))
    worst = max(worst, float(np.max(np.abs(a - b))))
    return _result("decomposition/interval_gating", worst, 0.0)


def check_equal_covariance_case() -> CheckResult:
    rng = np.random.default_rng(25)
    base = synthetic.random_stats(5, rng)
    other = GaussianStats(mean=rng.standard_normal(5), eigvecs=base.eigvecs,
                          eigvals=base.eigvals)
    x = rng.standard_normal(5)
    sigma, gamma = 0.9, 2.0
    terms = sampler.guidance_terms(base, other, x, sigma,
                                   sampler.GuidanceConfig(gamma=gamma))
    worst = float(max(np.max(np.abs(terms.g_pos)), np.max(np.abs(terms.g_neg))))
    f = denoiser.shrinkage(other, sigma)
    w = base.mean - other.mean
    expect = gamma / sigma**2 * (w - ((w @ other.eigvecs) * f) @ other.eigvecs.T)
    worst = max(worst, float(np.max(np.abs(terms.g_mean - expect))))
    return _result("decomposition/equal_covariance_mean_shift_only", worst, 1e-12)


def check_mean_shift_keeps_gamma0_map(d: int = 16) -> CheckResult:
    """The mean shift alone moves the folded map's offset q, never its P: it
    only adds b to the drift, so each step's scale is gamma = 0's. The last
    P of ``sampler._fold``, and with it the output covariance, is gamma =
    0's bit for bit, with Euler and Heun, with and without an interval; a
    q of all zeros (the shift never ran) fails the check."""
    cond, uncond = synthetic.random_stats_pair(d, np.random.default_rng(26))
    schedule = sampler.make_schedule(n_steps=20)

    def last_map(cfg, heun):
        for P, q in sampler._fold(sampler._CondBasisFlow(cond, uncond, cfg), schedule, heun):
            pass
        return P, q

    worst = 0.0
    for interval in (None, (0.3, 5.0)):
        shift = sampler.GuidanceConfig(gamma=4.0, enable_pos_cpc=False, enable_neg_cpc=False,
                                       active_interval=interval)
        for heun in (False, True):
            (p0, _), (p, q) = (last_map(cfg, heun) for cfg in
                               (sampler.GuidanceConfig(gamma=0.0), shift))
            same = p.shape == p0.shape and q.any()
            worst = max(worst, float(np.max(np.abs(p - p0))) if same else np.inf)
    return _result("decomposition/mean_shift_keeps_gamma0_map", worst, 0.0,
                   "last P, Euler and Heun, with and without an interval")


def suite_decomposition() -> list[CheckResult]:
    return [
        check_decomposition_identity(),
        check_gamma_zero(),
        check_gamma_linearity(),
        check_interval_gating(),
        check_equal_covariance_case(),
        check_mean_shift_keeps_gamma0_map(),
    ]


# ---------------------------------------------------------------------------
# cpca suite: eigen solution vs grid search and empirical objective
# ---------------------------------------------------------------------------


def _angle_between_lines(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in degrees between two directions, sign-insensitive."""
    c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def _random_sym_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    def one():
        q = synthetic.random_orthonormal(2, rng)
        lam = rng.uniform(0.5, 10.0, size=2)
        return (q * lam) @ q.T
    return one(), one()


def check_grid_argmax(n_pairs: int = 50, n_grid: int = 3600) -> CheckResult:
    rng = np.random.default_rng(31)
    angles = np.linspace(0.0, np.pi, n_grid, endpoint=False)
    vs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    worst = 0.0
    for _ in range(n_pairs):
        A, B = _random_sym_pair(rng)
        spec = cpca.contrastive_components(A, B)
        quad = np.einsum("ij,jk,ik->i", vs, A - B, vs)
        v_grid = vs[int(np.argmax(quad))]
        worst = max(worst, _angle_between_lines(v_grid, spec.eigvecs[:, 0]))
    return _result("cpca/eig_vs_grid_argmax", worst, 0.2, "degrees, 3600-point grid")


def check_reconstruction(n_pairs: int = 50) -> CheckResult:
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(n_pairs):
        d = int(rng.integers(2, 9))
        A = (lambda M: 0.5 * (M + M.T))(rng.standard_normal((d, d)))
        B = (lambda M: 0.5 * (M + M.T))(rng.standard_normal((d, d)))
        spec = cpca.contrastive_components(A, B)
        recon = (spec.eigvecs * spec.eigvals) @ spec.eigvecs.T
        scale = max(1e-30, float(np.max(np.abs(A - B))))
        worst = max(worst, float(np.max(np.abs(recon - (A - B)))) / scale)
    return _result("cpca/reconstruction", worst, 1e-8)


def check_top_cpc_maximality(n_pairs: int = 20, n_probes: int = 64) -> CheckResult:
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(n_pairs):
        A, B = _random_sym_pair(rng)
        spec = cpca.contrastive_components(A, B)
        v_top = spec.eigvecs[:, 0]
        top_gap = float(v_top @ (A - B) @ v_top)
        probes = rng.standard_normal((n_probes, 2))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        probe_gap = float(np.max(np.einsum("ij,jk,ik->i", probes, A - B, probes)))
        worst = max(worst, probe_gap - top_gap)
    return _result("cpca/top_cpc_maximality", worst, 1e-12,
                   "v+ maximizes v^T (A - B) v")


def check_empirical_objective(n_pairs: int = 5, n_samples: int = 5000) -> CheckResult:
    """Appendix-style equivalence: the empirical reconstruction-error contrast
    objective, minimized over a 1-degree grid, picks the eigen direction."""
    rng = np.random.default_rng(34)
    angles = np.deg2rad(np.arange(0.0, 180.0, 1.0))
    vs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    worst = 0.0
    for _ in range(n_pairs):
        theta = rng.uniform(0, np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        lam_x = np.array([rng.uniform(6.0, 12.0), rng.uniform(0.2, 1.0)])
        lam_y = lam_x[::-1]
        cov_x = (rot * lam_x) @ rot.T
        cov_y = (rot * lam_y) @ rot.T
        X = rng.multivariate_normal(np.zeros(2), cov_x, size=n_samples)
        Y = rng.multivariate_normal(np.zeros(2), cov_y, size=n_samples)
        X -= X.mean(axis=0)
        Y -= Y.mean(axis=0)
        # objective: E_X |x - v v^T x|^2 - E_Y |y - v v^T y|^2 on the grid
        px = (X @ vs.T) ** 2
        py = (Y @ vs.T) ** 2
        obj = (np.sum(X**2) - px.sum(axis=0)) / n_samples \
            - (np.sum(Y**2) - py.sum(axis=0)) / n_samples
        v_emp = vs[int(np.argmin(obj))]
        spec = cpca.contrastive_components(cov_x, cov_y)
        worst = max(worst, _angle_between_lines(v_emp, spec.eigvecs[:, 0]))
    return _result("cpca/empirical_objective_grid", worst, 1.0,
                   "degrees, 1-degree grid, 5000 samples per set")


def check_posterior_cpcs_common_basis() -> CheckResult:
    cond = synthetic.toy_conditional_stats()
    uncond = synthetic.toy_unconditional_stats()
    worst = 0.0
    for sigma in (0.1, 1.0, 10.0, 79.0):
        spec = cpca.posterior_cpcs(cond, uncond, sigma)
        f = lambda lam: lam / (lam + sigma * sigma)
        expect = np.array([f(10.0) - f(3.0), f(3.0) - f(10.0)])
        worst = max(worst, float(np.max(np.abs(spec.eigvals - expect))))
        worst = max(worst, np.deg2rad(_angle_between_lines(
            spec.eigvecs[:, 0], cond.eigvecs[:, 0])))
        if not (spec.eigvals[0] > 0 and spec.eigvals[1] < 0 and spec.n_pos == 1):
            worst = np.inf
    return _result("cpca/posterior_cpcs_common_basis", worst, 1e-12,
                   "eigvals are shrinkage differences; sign follows lam_c vs lam_uc")


def check_variance_along() -> CheckResult:
    cond = synthetic.toy_conditional_stats()
    worst = abs(cpca.variance_along(cond, cond.eigvecs[:, 0]) - 10.0)
    worst = max(worst, abs(cpca.variance_along(cond, cond.eigvecs[:, 1]) - 3.0))
    worst = max(worst, abs(cpca.variance_along(cond, np.array([1.0, 0.0])) - 6.5))
    return _result("cpca/variance_along", worst, 1e-12)


def suite_cpca() -> list[CheckResult]:
    return [
        check_grid_argmax(),
        check_reconstruction(),
        check_top_cpc_maximality(),
        check_empirical_objective(),
        check_posterior_cpcs_common_basis(),
        check_variance_along(),
    ]


# ---------------------------------------------------------------------------
# gmm suite: reductions, Tweedie identity, finite-difference score
# ---------------------------------------------------------------------------


def _dense_log_density(model: gmm.MixtureModel, x: np.ndarray, sigma: float) -> float:
    """Direct-summation mixture log density with dense linear algebra (oracle)."""
    total = 0.0
    d = model.d
    for w, comp in zip(model.weights, model.components):
        cov = comp.covariance() + sigma**2 * np.eye(d)
        diff = x - comp.mean
        sign, logdet = np.linalg.slogdet(cov)
        quad = float(diff @ np.linalg.solve(cov, diff))
        total += w * np.exp(-0.5 * (quad + logdet + d * np.log(2 * np.pi)))
    return float(np.log(total))


def check_k1_reduction() -> CheckResult:
    rng = np.random.default_rng(41)
    comp = synthetic.random_stats(4, rng)
    model = gmm.MixtureModel(components=(comp,), weights=np.array([1.0]))
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(4) * 3.0
        sigma = float(rng.uniform(0.05, 10.0))
        pw = gmm.posterior_weights(model, x, sigma)
        worst = max(worst, abs(float(pw.w[0]) - 1.0))
        worst = max(worst, float(np.max(np.abs(
            gmm.mixture_score(model, x, sigma) - denoiser.score(comp, x, sigma)))))
        worst = max(worst, float(np.max(np.abs(
            gmm.mixture_denoise(model, x, sigma) - denoiser.denoise(comp, x, sigma)))))
    return _result("gmm/k1_reduction", worst, 1e-12)


def check_tweedie_identity() -> CheckResult:
    rng = np.random.default_rng(42)
    model = synthetic.random_mixture(2, 3, rng)
    worst = 0.0
    for _ in range(25):
        x = rng.standard_normal(2) * 5.0
        sigma = float(rng.uniform(0.05, 10.0))
        lhs = gmm.mixture_denoise(model, x, sigma)
        rhs = x + sigma**2 * gmm.mixture_score(model, x, sigma)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return _result("gmm/tweedie_identity", worst, 1e-12)


def check_score_finite_difference(step: float = 1e-4) -> CheckResult:
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(5):
        model = synthetic.random_mixture(2, 3, rng)
        for _ in range(4):
            x = rng.standard_normal(2) * 4.0
            sigma = float(rng.uniform(0.3, 5.0))
            got = gmm.mixture_score(model, x, sigma)
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                fd[j] = (_dense_log_density(model, x + e, sigma)
                         - _dense_log_density(model, x - e, sigma)) / (2 * step)
            worst = max(worst, float(np.max(np.abs(got - fd))))
    return _result("gmm/score_vs_finite_difference", worst, 1e-5)


def check_guidance_sum_identity() -> CheckResult:
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        model = synthetic.random_mixture(2, 3, rng)
        x = rng.standard_normal(2) * 4.0
        sigma = float(rng.uniform(0.1, 8.0))
        gamma = float(rng.uniform(0.0, 4.0))
        target = int(rng.integers(0, 3))
        terms = gmm.gmm_cfg_guidance(model, target, x, sigma, gamma)
        d_c = denoiser.denoise(model.components[target], x, sigma)
        d_mix = gmm.mixture_denoise(model, x, sigma)
        ref = gamma * (d_c - d_mix) / sigma**2
        worst = max(worst, float(np.max(np.abs(terms.total() - ref))))
    return _result("gmm/guidance_sum_identity", worst, 1e-10)


def check_weight_stability() -> CheckResult:
    rng = np.random.default_rng(45)
    model = synthetic.random_mixture(2, 3, rng)
    worst = 0.0
    for scale in (1.0, 1e2, 1e4):
        for sigma in (1e-3, 1.0, 80.0):
            x = rng.standard_normal(2) * scale
            pw = gmm.posterior_weights(model, x, sigma)
            if not np.all(np.isfinite(pw.w)):
                worst = np.inf
            worst = max(worst, abs(float(pw.w.sum()) - 1.0))
    return _result("gmm/weight_stability", worst, 1e-10,
                   "|x| up to 1e4, sigma down to 1e-3")


def check_two_component_1d() -> CheckResult:
    comps = (GaussianStats(mean=[5.0], eigvecs=[[1.0]], eigvals=[1.0]),
             GaussianStats(mean=[-5.0], eigvecs=[[1.0]], eigvals=[1.0]))
    model = gmm.MixtureModel(components=comps, weights=np.array([0.5, 0.5]))
    sigma = 1.0
    worst = float(np.max(np.abs(
        gmm.posterior_weights(model, np.array([0.0]), sigma).w - 0.5)))
    pw = gmm.posterior_weights(model, np.array([5.0]), sigma)
    var = 1.0 + sigma**2
    log_ratio = (-0.5 * 0.0 / var) - (-0.5 * 100.0 / var)
    got_ratio = float(pw.log_w[0] - pw.log_w[1])
    worst = max(worst, abs(got_ratio - log_ratio) / log_ratio)
    worst = max(worst, float(np.max(np.abs(
        gmm.mixture_score(model, np.array([0.0]), sigma)))))
    return _result("gmm/two_component_1d", worst, 1e-12)


def check_guided_drift_vs_pass() -> CheckResult:
    """The guided drift of ``gmm.integrate``, folded and projected and read
    at the centred states X - mu_t, against c
    s_t + gamma (s_t - s_mix) with s_t from ``denoiser.score`` and s_mix from
    ``gmm.mixture_score``, the eigenbasis pass: near and far clusters, rows
    at every component and far from all, sigma from 1e-3 to 80, cond on and
    off, every target. Each row's error is in units of kappa max(1, max_i
    |s_i|), where kappa = max(1, L max_i w_i (1 - w_i)) and L is the row's
    largest half quadratic form: float64 knows the log densities to about
    eps L, and that moves the weights by about w_i (1 - w_i) eps L."""
    rng = np.random.default_rng(46)
    worst = 0.0
    for spread in (1.0, 1.0, 30.0, 30.0):
        model = synthetic.random_mixture(8, 3, rng, mean_scale=spread)
        means = np.stack([c.mean for c in model.components])
        X = np.concatenate([means[i] + rng.standard_normal((4, 8)) for i in range(3)]
                           + [10.0 * spread * rng.standard_normal((4, 8))])
        for sigma in np.geomspace(1e-3, 80.0, 9):
            scores = [denoiser.score(c, X, sigma) for c in model.components]
            quad = np.stack([np.sum((mu - X) * s, axis=1) for mu, s in zip(means, scores)], axis=1)
            w = gmm.posterior_weights(model, X, sigma).w
            unit = (np.maximum(1.0, 0.5 * quad.max(axis=1) * np.max(w * (1.0 - w), axis=1))
                    * np.maximum(1.0, np.max([np.max(np.abs(s), axis=1) for s in scores], axis=0)))
            s_mix = gmm.mixture_score(model, X, sigma)
            for cond in (1.0, 0.0):
                cfg = sampler.GuidanceConfig(gamma=4.0, enable_cond=bool(cond))
                for t in range(model.k):
                    ref = cond * scores[t] + cfg.gamma * (scores[t] - s_mix)
                    for form in ("folded", "projected"):
                        got = gmm._guided_drift(model, t, cfg, form)(X - means[t], sigma)
                        worst = max(worst, float(np.max(np.max(np.abs(got - ref), axis=1) / unit)))
    return _result("gmm/guided_drift_vs_pass", worst, 1e-12,
                   "both forms, sigma 1e-3 to 80, near and far clusters")


def suite_gmm() -> list[CheckResult]:
    return [
        check_k1_reduction(),
        check_tweedie_identity(),
        check_score_finite_difference(),
        check_guidance_sum_identity(),
        check_weight_stability(),
        check_two_component_1d(),
        check_guided_drift_vs_pass(),
    ]


SUITES = {
    "theorem1": suite_theorem1,
    "decomposition": suite_decomposition,
    "cpca": suite_cpca,
    "gmm": suite_gmm,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results: list[CheckResult] = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    try:
        return SUITES[name]()
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'") from None
