"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the checks build their expected values
from independent oracles (closed forms, Riemann sums, finite differences,
grid searches), never from the code paths they validate.

Integration errors are measured relative to the trajectory scale
max(|x_ref|, |x_T|) per sample, the ODE-solver convention; see
lincfg.verify.trajectory_rel_error.
"""

import time

import numpy as np
import pytest

from lincfg import analytic, denoiser, metrics, sampler, verify
from lincfg.cli import main
from lincfg.stats import DataMatrix, estimate_gaussian_stats, load_stats, save_stats
from lincfg.synthetic import (random_stats, three_class_setup,
                              toy_common_pair, toy_conditional_stats,
                              toy_unconditional_stats)


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_c1_unguided_closed_form_vs_ode():
    """Euler at N=400 matches the unguided closed form; first-order in 1/N."""
    t0 = time.perf_counter()
    res = verify.check_unguided_vs_euler()
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 5.0
    report("C1 unguided closed form vs ODE", ok,
           f"rel err {res.error:.2e} < 1e-3, {res.note}, {elapsed:.2f}s < 5s")


def test_c2_theorem1_validation():
    """Closed-form CFG vs 2000-step Euler on the common-PC toy pair."""
    t0 = time.perf_counter()
    res = verify.check_theorem1_vs_euler(n_draws=50, n_steps=2000)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 10.0
    report("C2 Theorem-1 closed form vs Euler", ok,
           f"rel err {res.error:.2e} < 1e-2 for gamma in {{0.5,1,2}}, "
           f"{elapsed:.2f}s < 10s")


def test_c3_decomposition_identity():
    """f_c + g_pos + g_neg + g_mean equals the assembled CFG drift."""
    res = verify.check_decomposition_identity(n_pairs=100, d=8)
    report("C3 three-term decomposition identity", res.passed,
           f"max residual {res.error:.2e} < 1e-10 on 100 random 8-dim pairs")


def test_c4_2d_cfg_directionality():
    """CFG amplifies the +CPC, suppresses the -CPC, and shifts the mean by
    the closed-form prediction, on the 2D toy with matched initial noise."""
    cond = toy_conditional_stats()
    uncond = toy_unconditional_stats()
    pair = toy_common_pair()
    sched = sampler.make_schedule(80.0, 0.002, 2000, 7.0)
    m, seed = 1000, 101
    naive = sampler.sample_batch(cond, uncond, m, seed, sched,
                                 sampler.GuidanceConfig(gamma=0.0))
    guided = sampler.sample_batch(cond, uncond, m, seed, sched,
                                  sampler.GuidanceConfig(gamma=1.0))

    v_pos, v_neg = pair.eigvecs[:, 0], pair.eigvecs[:, 1]
    h_pos = analytic.h_factor(10.0, 3.0, 0.002, 80.0)
    h_neg = analytic.h_factor(3.0, 10.0, 0.002, 80.0)
    r_pos = (np.var((guided - cond.mean) @ v_pos)
             / np.var((naive - cond.mean) @ v_pos))
    r_neg = (np.var((guided - cond.mean) @ v_neg)
             / np.var((naive - cond.mean) @ v_neg))

    w = pair.mu_c - pair.mu_uc
    w = w / np.linalg.norm(w)
    shift = float(np.mean(guided @ w) - np.mean(naive @ w))
    cf1 = analytic.closed_form_cfg(pair, np.zeros(2), 0.002, 80.0, 1.0)
    cf0 = analytic.closed_form_cfg(pair, np.zeros(2), 0.002, 80.0, 0.0)
    shift_pred = float((cf1 - cf0) @ w)

    dev_pos = abs(r_pos / h_pos - 1.0)
    dev_neg = abs(r_neg / h_neg - 1.0)
    dev_shift = abs(shift / shift_pred - 1.0)
    ok = dev_pos < 0.15 and dev_neg < 0.15 and dev_shift < 0.10
    report("C4 2D CFG directionality", ok,
           f"+CPC ratio {r_pos:.4f} vs h {h_pos:.4f} ({dev_pos:.1%} < 15%); "
           f"-CPC ratio {r_neg:.4f} vs h {h_neg:.4f} ({dev_neg:.1%} < 15%); "
           f"mean shift {shift:.3f} vs {shift_pred:.3f} ({dev_shift:.1%} < 10%)")


def test_c5_quadrature_correctness():
    """b_coefficient vs the equal-lambda antiderivative and Riemann sums."""
    res_eq = verify.check_b_equal_lambda()
    res_ri = verify.check_b_vs_riemann(n_draws=20)
    ok = res_eq.passed and res_ri.passed
    report("C5 quadrature correctness", ok,
           f"antiderivative err {res_eq.error:.2e} < 1e-10; "
           f"1e6-point Riemann err {res_ri.error:.2e} < 1e-8, 20 draws each")


def test_c6_cpca_geometric_theorem():
    """Eigen solution vs 3600-point grid search and the empirical
    reconstruction-error objective."""
    res_grid = verify.check_grid_argmax(n_pairs=50)
    res_emp = verify.check_empirical_objective(n_pairs=5, n_samples=5000)
    ok = res_grid.passed and res_emp.passed
    report("C6 CPCA geometric theorem", ok,
           f"grid angle {res_grid.error:.3f} deg < 0.2; empirical objective "
           f"angle {res_emp.error:.2f} deg within 1-degree grid resolution")


def test_c7_gmm_reductions_and_identities():
    res_k1 = verify.check_k1_reduction()
    res_fd = verify.check_score_finite_difference()
    res_sum = verify.check_guidance_sum_identity()
    ok = res_k1.passed and res_fd.passed and res_sum.passed
    report("C7 GMM reductions and identities", ok,
           f"K=1 reduction {res_k1.error:.2e} < 1e-12; "
           f"finite-difference score {res_fd.error:.2e} < 1e-5; "
           f"guidance sum {res_sum.error:.2e} < 1e-10")


def test_c8_posterior_covariance_identity():
    """sigma^2 times the finite-difference Jacobian of denoise matches the
    posterior covariance sigma^2 shrunk_covariance on 20 random instances."""
    rng = np.random.default_rng(88)
    step = 1e-4
    worst = 0.0
    for _ in range(20):
        stats = random_stats(int(rng.integers(2, 7)), rng)
        sigma = float(rng.uniform(0.1, 10.0))
        x = rng.standard_normal(stats.d) * 2.0
        J = np.empty((stats.d, stats.d))
        for j in range(stats.d):
            e = np.zeros(stats.d)
            e[j] = step
            J[:, j] = (denoiser.denoise(stats, x + e, sigma)
                       - denoiser.denoise(stats, x - e, sigma)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(
            sigma**2 * J - sigma**2 * denoiser.shrunk_covariance(stats, sigma)))))
    report("C8 posterior covariance identity", worst < 1e-5,
           f"max |sigma^2 J_fd - sigma^2 shrunk_covariance| = {worst:.2e} < 1e-5")


def test_c9_determinism(tmp_path):
    """cmd_sample is bit-deterministic from a manifest; stats round-trip is
    bit-exact."""
    cond_path = tmp_path / "cond.stats"
    uncond_path = tmp_path / "uncond.stats"
    save_stats(toy_conditional_stats(), cond_path)
    save_stats(toy_unconditional_stats(), uncond_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    base_args = ["sample", "--cond-stats", str(cond_path), "--uncond-stats",
                 str(uncond_path), "--gamma", "2", "--steps", "20", "--m", "32",
                 "--seed", "7"]
    assert main(base_args + ["--outdir", str(out1)]) == 0
    assert main(["sample", "--config", str(out1 / "run_manifest.json"),
                 "--outdir", str(out2)]) == 0
    identical = ((out1 / "samples.bin").read_bytes()
                 == (out2 / "samples.bin").read_bytes())

    stats = estimate_gaussian_stats(
        DataMatrix(np.random.default_rng(5).standard_normal((40, 3))))
    p1, p2 = tmp_path / "s1.stats", tmp_path / "s2.stats"
    save_stats(stats, p1)
    save_stats(load_stats(p1), p2)
    round_trip = p1.read_bytes() == p2.read_bytes()

    report("C9 determinism", identical and round_trip,
           f"manifest re-run bit-identical: {identical}; "
           f"stats round-trip bit-exact: {round_trip}")


def test_c10_class_similarity_orderings():
    """Naive conditional sampling under-separates classes relative to the
    training stats; strong CFG over-separates them, pairwise."""
    classes, pooled = three_class_setup()
    sched = sampler.make_schedule(80.0, 0.002, 100, 7.0)
    m, seed = 2000, 7
    stats_g0, stats_g4 = [], []
    for i, cls in enumerate(classes):
        for gamma, bucket in ((0.0, stats_g0), (4.0, stats_g4)):
            batch = sampler.sample_batch(cls, pooled, m, seed + 10 * i, sched,
                                         sampler.GuidanceConfig(gamma=gamma))
            bucket.append(estimate_gaussian_stats(DataMatrix(batch)))
    m_train = metrics.class_similarity_matrix(classes)
    m_g0 = metrics.class_similarity_matrix(stats_g0)
    m_g4 = metrics.class_similarity_matrix(stats_g4)
    iu = np.triu_indices(3, 1)
    under = bool(np.all(m_g0[iu] < m_train[iu]))
    over = bool(np.all(m_g4[iu] > m_g0[iu]))
    report("C10 class-similarity orderings", under and over,
           f"gamma=0 < training pairwise: {under} "
           f"(ratios {np.round(m_g0[iu] / m_train[iu], 3).tolist()}); "
           f"gamma=4 > gamma=0 pairwise: {over} "
           f"(ratios {np.round(m_g4[iu] / m_g0[iu], 2).tolist()})")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
