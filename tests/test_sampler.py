import inspect
import itertools
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lincfg import analytic, cpca, denoiser, gmm, metrics, sampler, verify
from lincfg.errors import DivergenceError, ShapeError
from lincfg.stats import GaussianStats
from lincfg.synthetic import (demo_mixture, random_orthonormal, random_stats_pair,
                              toy_common_pair, toy_conditional_stats,
                              toy_unconditional_stats)
from lincfg.verify import trajectory_rel_error

G = sampler.GuidanceConfig
FULL_CFGS = {
    "full": G(gamma=2.0),
    "interval": G(gamma=2.0, active_interval=(0.5, 10.0)),
    "no_cond": G(gamma=3.0, enable_cond=False),
    "gamma0": G(gamma=0.0),
    "disjoint": G(gamma=2.0, active_interval=(200.0, 300.0)),
}
APPLIERS = ("_stepwise", "_compiled")
TERM_SUBSETS = list(itertools.product((False, True), repeat=4))  # cond, pos, neg, mean shift
TERMS = ("enable_cond", "enable_pos_cpc", "enable_neg_cpc", "enable_mean_shift")
ABLATION_CFGS = {
    "pos": G(gamma=2.0, enable_neg_cpc=False, enable_mean_shift=False),
    "neg": G(gamma=2.0, enable_pos_cpc=False, enable_mean_shift=False),
    "mean_shift": G(gamma=2.0, enable_pos_cpc=False, enable_neg_cpc=False),
    "pos_neg": G(gamma=2.0, enable_mean_shift=False),
    "none": G(gamma=2.0, enable_pos_cpc=False, enable_neg_cpc=False,
              enable_mean_shift=False),
    "frozen": G(gamma=2.0, freeze_cpc_at=5.0),
    "frozen_pos_interval": G(gamma=2.0, enable_neg_cpc=False, freeze_cpc_at=5.0,
                             active_interval=(0.5, 10.0)),
}


def _split_drift(cond, uncond, cfg):
    """The drift as the sum of its decomposed terms, each read from the flow
    with only that term on (one-sign splits for the CPC terms)."""
    return lambda x, s: sampler.guidance_terms(cond, uncond, x, s, cfg).total()


def _dense_cfg_drift(cond, uncond, cfg):
    """(1 + gamma) s_c - gamma s_uc from dense solves against Sigma + sigma^2 I."""
    covs = [(stats.mean, stats.covariance()) for stats in (cond, uncond)]

    def drift(x, sigma):
        s_c, s_uc = (np.linalg.solve(cov + sigma**2 * np.eye(len(cov)), (mean - x).T).T
                     for mean, cov in covs)
        out = s_c if cfg.enable_cond else np.zeros_like(s_c)
        lo, hi = cfg.active_interval or (0.0, np.inf)
        if lo <= sigma <= hi:
            out = out + cfg.gamma * (s_c - s_uc)
        return out

    return drift


def _dense_ablation_drift(cond, uncond, cfg, zero_tol=1e-10):
    """The drift of any config from dense algebra: solves against Sigma +
    sigma^2 I for the conditional score and the mean shift, and for the CPC
    terms an eigh of the dense shrunk-covariance difference at sigma (or at
    the frozen sigma), cut to the enabled signs at +-zero_tol."""
    cov_c, cov_uc = cond.covariance(), uncond.covariance()
    eye = np.eye(cond.d)

    def shrunk(cov, sigma):
        s = np.linalg.solve(cov + sigma**2 * eye, cov)
        return 0.5 * (s + s.T)

    def contrast(sigma):
        lam, vec = np.linalg.eigh(shrunk(cov_c, sigma) - shrunk(cov_uc, sigma))
        keep = ((cfg.enable_pos_cpc & (lam > zero_tol))
                | (cfg.enable_neg_cpc & (lam < -zero_tol)))
        return (vec[:, keep] * lam[keep]) @ vec[:, keep].T

    frozen = contrast(cfg.freeze_cpc_at) if cfg.freeze_cpc_at is not None else None

    def drift(x, sigma):
        out = np.zeros_like(x)
        if cfg.enable_cond:
            out += np.linalg.solve(cov_c + sigma**2 * eye, (cond.mean - x).T).T
        lo, hi = cfg.active_interval or (0.0, np.inf)
        if lo <= sigma <= hi:
            if cfg.enable_pos_cpc or cfg.enable_neg_cpc:
                k = frozen if frozen is not None else contrast(sigma)
                out += cfg.gamma / sigma**2 * ((x - cond.mean) @ k)
            if cfg.enable_mean_shift:
                out += cfg.gamma * np.linalg.solve(cov_uc + sigma**2 * eye,
                                                   cond.mean - uncond.mean)
        return out

    return drift


class TestSchedule:
    def test_single_step(self):
        s = sampler.make_schedule(80.0, 0.002, 1, 7.0)
        np.testing.assert_array_equal(s.sigmas, [80.0, 0.002])

    def test_rho_one_is_linear(self):
        s = sampler.make_schedule(10.0, 1.0, 9, 1.0)
        np.testing.assert_allclose(s.sigmas, np.linspace(10.0, 1.0, 10), atol=1e-12)

    def test_default_grid_endpoints_and_warp(self):
        s = sampler.make_schedule(80.0, 0.002, 20, 7.0)
        assert s.sigmas[0] == 80.0 and s.sigmas[-1] == 0.002
        assert np.all(np.diff(s.sigmas) < 0)
        # direct formula evaluation at an interior node
        i = 10
        inv = 1.0 / 7.0
        expect = (80.0**inv + (i / 20.0) * (0.002**inv - 80.0**inv)) ** 7.0
        assert s.sigmas[i] == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("kwargs", [
        dict(sigma_max=1.0, sigma_min=2.0), dict(sigma_min=-0.1),
        dict(n_steps=0), dict(rho=0.5), dict(sigma_min=0.0), dict(sigma_max=np.inf),
        dict(sigmas=[np.inf, 1.0]),
    ])
    def test_invalid_parameters(self, kwargs):
        build = sampler.NoiseSchedule if "sigmas" in kwargs else sampler.make_schedule
        with pytest.raises(ValueError):
            build(**kwargs)

    @pytest.mark.parametrize("name, value", [("n_steps", 2.5), ("n_steps", 3.0),
                                             ("rho", np.nan), ("rho", np.inf)])
    def test_rejects_fractional_steps_and_non_finite_rho(self, name, value):
        """Each is a ValueError that names its argument, not a wrong grid or
        a complaint about the noise levels."""
        with pytest.raises(ValueError, match=f"^{name} must be"):
            sampler.make_schedule(**{name: value})

    def test_accepts_numpy_integer_steps(self):
        for n in (np.int64(3), np.uint8(3)):
            assert sampler.make_schedule(n_steps=n).sigmas.tobytes() == \
                sampler.make_schedule(n_steps=3).sigmas.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.001, max_value=1.0),
           st.floats(min_value=2.0, max_value=100.0),
           st.integers(min_value=1, max_value=64),
           st.floats(min_value=1.0, max_value=10.0))
    def test_schedule_always_strictly_decreasing(self, lo, hi, n, rho):
        s = sampler.make_schedule(hi, lo, n, rho)
        assert s.sigmas[0] == hi and s.sigmas[-1] == lo
        assert np.all(np.diff(s.sigmas) < 0)


class TestGuidanceConfig:
    def test_rejects_negative_gamma(self):
        for gamma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                sampler.GuidanceConfig(gamma=gamma)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(active_interval=(2.0, 1.0))
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(active_interval=(0.0, 1.0))

    def test_interval_membership_inclusive(self):
        cfg = sampler.GuidanceConfig(active_interval=(4.0, 80.0))
        assert cfg.guidance_active(4.0) and cfg.guidance_active(80.0)
        assert not cfg.guidance_active(3.999) and not cfg.guidance_active(80.001)

    def test_gamma_zero_is_never_active(self):
        for interval in (None, (0.5, 2.0)):
            cfg = sampler.GuidanceConfig(gamma=0.0, active_interval=interval)
            assert not cfg.guidance_active(1.0)

    def test_rejects_nonpositive_freeze_sigma(self):
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(freeze_cpc_at=0.0)


class TestGuidanceTerms:
    def test_gamma_zero_kills_guidance(self):
        rng = np.random.default_rng(30)
        cond, uncond = random_stats_pair(4, rng)
        t = sampler.guidance_terms(cond, uncond, rng.standard_normal(4), 1.0,
                                   sampler.GuidanceConfig(gamma=0.0))
        for term in (t.g_pos, t.g_neg, t.g_mean):
            np.testing.assert_array_equal(term, 0.0)

    def test_equal_covariances_leave_only_mean_shift(self):
        from lincfg.stats import GaussianStats
        rng = np.random.default_rng(31)
        cond, _ = random_stats_pair(4, rng)
        uncond = GaussianStats(mean=rng.standard_normal(4),
                               eigvecs=cond.eigvecs, eigvals=cond.eigvals)
        x = rng.standard_normal(4)
        sigma, gamma = 0.8, 2.5
        t = sampler.guidance_terms(cond, uncond, x, sigma,
                                   sampler.GuidanceConfig(gamma=gamma))
        np.testing.assert_array_equal(t.g_pos, 0.0)
        np.testing.assert_array_equal(t.g_neg, 0.0)
        w = cond.mean - uncond.mean
        f = denoiser.shrinkage(uncond, sigma)
        expect = gamma / sigma**2 * (w - ((w @ uncond.eigvecs) * f) @ uncond.eigvecs.T)
        np.testing.assert_allclose(t.g_mean, expect, atol=1e-13)

    def test_interval_gates_guidance_but_not_score(self):
        rng = np.random.default_rng(33)
        cond, uncond = random_stats_pair(3, rng)
        cfg = sampler.GuidanceConfig(gamma=2.0, active_interval=(1.0, 2.0))
        x = rng.standard_normal(3)
        t = sampler.guidance_terms(cond, uncond, x, 0.5, cfg)
        np.testing.assert_array_equal(t.g_pos, 0.0)
        np.testing.assert_array_equal(t.g_neg, 0.0)
        np.testing.assert_array_equal(t.g_mean, 0.0)
        assert np.any(t.f_c != 0.0)

    def test_disable_cond(self):
        rng = np.random.default_rng(34)
        cond, uncond = random_stats_pair(3, rng)
        cfg = sampler.GuidanceConfig(gamma=1.0, enable_cond=False)
        t = sampler.guidance_terms(cond, uncond, rng.standard_normal(3), 1.0, cfg)
        np.testing.assert_array_equal(t.f_c, 0.0)

    def test_freeze_cpc_uses_fixed_sigma_decomposition(self):
        rng = np.random.default_rng(35)
        cond, uncond = random_stats_pair(4, rng)
        x = rng.standard_normal(4)
        frozen = sampler.GuidanceConfig(gamma=1.0, freeze_cpc_at=80.0)
        live = sampler.GuidanceConfig(gamma=1.0)
        t_frozen = sampler.guidance_terms(cond, uncond, x, 0.1, frozen)
        t_live = sampler.guidance_terms(cond, uncond, x, 0.1, live)
        # same x/sigma but different CPC basis: the split must differ
        assert not np.allclose(t_frozen.g_pos, t_live.g_pos)

    def test_sigma_domain(self):
        cond, uncond = toy_conditional_stats(), toy_unconditional_stats()
        with pytest.raises(ValueError):
            sampler.guidance_terms(cond, uncond, np.zeros(2), 0.0,
                                   sampler.GuidanceConfig())

    @pytest.mark.parametrize("freeze", [None, 5.0], ids=["live", "frozen"])
    def test_both_signs_share_one_decomposition(self, freeze, monkeypatch):
        """One call decomposes the contrast once (one ``signed_eigh``) for
        both one-sign terms, and its terms are bit for bit those of one-term
        flows that each decompose their own sign, as the flows of earlier
        versions did: two decompositions more."""
        calls = []
        real = cpca.signed_eigh
        monkeypatch.setattr(cpca, "signed_eigh", lambda *a: calls.append(a) or real(*a))
        cond, uncond = random_stats_pair(8, np.random.default_rng(42))
        x = cond.mean + np.random.default_rng(43).standard_normal((5, 8))
        cfg = G(gamma=3.0, freeze_cpc_at=freeze)
        terms = sampler.guidance_terms(cond, uncond, x, 0.7, cfg)
        assert len(calls) == 1
        flow, y = sampler._CondBasisFlow(cond, uncond, cfg), (x - cond.mean) @ cond.eigvecs
        for name, got in zip(TERMS, (terms.f_c, terms.g_pos, terms.g_neg, terms.g_mean)):
            one = replace(flow, cfg=replace(cfg, **{n: n == name for n in TERMS}))
            np.testing.assert_array_equal(got, one.drift(y, 0.7) @ cond.eigvecs.T, name)
        assert len(calls) == 3
        calls.clear()
        sampler.guidance_terms(cond, uncond, x, 0.7, replace(cfg, enable_neg_cpc=False))
        sampler.guidance_terms(cond, uncond, x, 0.7, replace(cfg, gamma=0.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
    @pytest.mark.parametrize("freeze", [None, 1e-2, 5.0], ids=["live", "frozen1e-2", "frozen5"])
    @pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1.0, 80.0])
    def test_each_term_matches_dense_one_term_drift(self, sigma, freeze, lone):
        """Each term equals the dense drift of the config with only that term
        on (``_dense_ablation_drift``): solves for f_c and g_mean, an eigh of
        the dense shrinkage difference for g_pos and g_neg. With eigenvalues
        of order 1, that difference loses eps / s^2 of its size at small s, s
        the split's sigma; the flow's one-sign split, a product with no
        cancellation (``cpca.posterior_contrast``), loses nothing at large s.
        The CPC terms are held to 64 eps (1 + s^-2) of their largest entry,
        the others to 1e-14."""
        d = 8
        cond, uncond = random_stats_pair(d, np.random.default_rng(40))
        x = cond.mean + (1.0 + sigma) * np.random.default_rng(41).standard_normal(
            d if lone else (5, d))
        terms = sampler.guidance_terms(cond, uncond, x, sigma, G(gamma=3.0, freeze_cpc_at=freeze))
        s = freeze or sigma
        cpc_tol = 64 * np.finfo(np.float64).eps * (1.0 + 1.0 / (s * s))
        for name, got, tol in zip(TERMS, (terms.f_c, terms.g_pos, terms.g_neg, terms.g_mean),
                                  (1e-14, cpc_tol, cpc_tol, 1e-14)):
            one = G(gamma=3.0, freeze_cpc_at=freeze, **{n: n == name for n in TERMS})
            ref = _dense_ablation_drift(cond, uncond, one)(x, sigma)
            assert got.shape == x.shape and np.abs(ref).max() > 0.0, name
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max(), name

    @pytest.mark.parametrize("freeze", [None, 5.0], ids=["live", "frozen"])
    @pytest.mark.parametrize("sigma", [0.01, 0.7, 10.0, 80.0])
    @pytest.mark.parametrize("d", [8, 64])
    def test_cpc_terms_are_the_paper_formula_of_the_exported_cpcs(self, d, sigma, freeze):
        """g_pos and g_neg are (gamma/sigma^2) V L V^T (x - mu_c), with (V, L)
        one sign of ``cpca.posterior_cpcs`` at sigma (at sigma* when frozen):
        the CPCs a user exports are the ones sampling runs, to 1e-14 of the
        term's largest entry."""
        cond, uncond = random_stats_pair(d, np.random.default_rng(d))
        x = cond.mean + (1.0 + sigma) * np.random.default_rng(d + 1).standard_normal((5, d))
        gamma = 3.0
        terms = sampler.guidance_terms(cond, uncond, x, sigma, G(gamma=gamma, freeze_cpc_at=freeze))
        spec = cpca.posterior_cpcs(cond, uncond, freeze or sigma)
        for got, (lam, V) in ((terms.g_pos, spec.positive), (terms.g_neg, spec.negative)):
            ref = (gamma / sigma**2) * (((x - cond.mean) @ V) * lam) @ V.T
            assert np.abs(ref).max() > 0.0
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", ["freeze_cpc_at", "posterior_cpcs", "guidance_terms",
                                   "mean_shifted_init"])
def test_non_finite_input_raises_value_error(entry, value):
    """A non-finite frozen sigma, sigma or init gamma fails fast with
    ValueError, not later as a DivergenceError, LinAlgError or shape error."""
    cond, uncond = toy_conditional_stats(), toy_unconditional_stats()
    call = {"freeze_cpc_at": lambda: G(freeze_cpc_at=value),
            "posterior_cpcs": lambda: cpca.posterior_cpcs(cond, uncond, value),
            "guidance_terms": lambda: sampler.guidance_terms(cond, uncond, np.zeros(2), value, G()),
            "mean_shifted_init": lambda: metrics.mean_shifted_init(cond, uncond, value)}[entry]
    with pytest.raises(ValueError, match="finite"):
        call()


@pytest.mark.parametrize("mutation", ["both_sign_diag", "mean_shift_b"])
def test_verify_decomposition_catches_a_mutated_flow(mutation, monkeypatch):
    """The decomposition suite reads the drift that sampling runs: scaling
    sigma^2 by 1.001 in the both-sign split's diagonal, or in the mean
    shift's b, fails a check."""
    if mutation == "both_sign_diag":
        real_split = sampler._cpc_split

        def split(cond, uncond, rot, sigma, pos, neg):
            out = real_split(cond, uncond, rot, sigma, pos, neg)
            if not (pos and neg):
                return out
            return sampler._Split(out.vecs, out.weights,
                                  -1.0 / (cond.eigvals + 1.001 * sigma * sigma))

        monkeypatch.setattr(sampler, "_cpc_split", split)
    else:
        real_node = sampler._CondBasisFlow.node

        def node(flow, s):
            alpha, split, gain, b = real_node(flow, s)
            if b is not None:
                b = (flow.delta * (flow.cfg.gamma / (flow.uncond.eigvals + 1.001 * s * s))
                     ) @ flow.rot.T
            return alpha, split, gain, b

        monkeypatch.setattr(sampler._CondBasisFlow, "node", node)
    failed = [r.name for r in verify.run_suite("decomposition") if not r.passed]
    assert "decomposition/identity_vs_denoiser" in failed


class TestClosedFormUnguided:
    def test_identity_at_equal_sigmas(self):
        stats = toy_conditional_stats()
        x = np.array([3.0, -1.0])
        np.testing.assert_array_equal(
            sampler.closed_form_unguided(stats, x, 5.0, 5.0), x)

    def test_mean_is_fixed_point(self):
        stats = toy_conditional_stats()
        np.testing.assert_allclose(
            sampler.closed_form_unguided(stats, stats.mean, 80.0, 0.002),
            stats.mean, atol=1e-15)

    def test_null_space_coefficient_is_sigma_ratio(self):
        from lincfg.stats import GaussianStats
        stats = GaussianStats(mean=np.zeros(2), eigvecs=np.eye(2),
                              eigvals=np.array([1.0, 0.0]))
        x = np.array([0.0, 8.0])
        out = sampler.closed_form_unguided(stats, x, 80.0, 2.0)
        assert out[1] == pytest.approx(8.0 * 2.0 / 80.0, rel=1e-14)

    def test_sigma_ordering_enforced(self):
        with pytest.raises(ValueError):
            sampler.closed_form_unguided(toy_conditional_stats(),
                                         np.zeros(2), 1.0, 2.0)

    def test_rejects_a_non_finite_state(self):
        """The start rule of ``integrate``: same type, same message."""
        with pytest.raises(ShapeError) as exc:
            sampler.closed_form_unguided(toy_conditional_stats(), np.array([[np.nan, 0.0]]),
                                         80.0, 1.0)
        assert str(exc.value) == "initial state contains non-finite entries"


class TestIntegrate:
    def test_mean_is_exact_fixed_point_unguided(self):
        """A lone state (stepped) and a block of m >= d states (compiled) at
        mu_c stay exactly mu_c."""
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        sched = sampler.make_schedule(n_steps=20)
        for x_T in (cond.mean, np.tile(cond.mean, (3, 1))):
            final = sampler.integrate(cond, uncond, x_T, sched,
                                      sampler.GuidanceConfig(gamma=0.0))
            np.testing.assert_array_equal(final, np.broadcast_to(cond.mean, x_T.shape))

    @pytest.mark.parametrize("applier", APPLIERS)
    def test_matches_closed_form_at_n400(self, applier):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        rng = np.random.default_rng(36)
        x_T = rng.standard_normal((20, 2)) * 80.0
        sched = sampler.make_schedule(80.0, 0.002, 400, 7.0)
        got = _apply(applier, cond, uncond, x_T, sched, sampler.GuidanceConfig(gamma=0.0),
                     False)
        ref = sampler.closed_form_unguided(cond, x_T, 80.0, 0.002)
        rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(x_T, axis=1)
        assert rel.max() < 1e-3

    @pytest.mark.parametrize("applier", APPLIERS)
    def test_heun_beats_euler(self, applier):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        rng = np.random.default_rng(37)
        x_T = rng.standard_normal((10, 2)) * 80.0
        sched = sampler.make_schedule(80.0, 0.002, 50, 7.0)
        cfg = sampler.GuidanceConfig(gamma=0.0)
        ref = sampler.closed_form_unguided(cond, x_T, 80.0, 0.002)
        err_euler, err_heun = (
            np.linalg.norm(_apply(applier, cond, uncond, x_T, sched, cfg, heun) - ref,
                           axis=1).max() for heun in (False, True))
        assert err_heun < 0.1 * err_euler

    def test_batched_equals_single(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        rng = np.random.default_rng(38)
        x_T = rng.standard_normal((5, 2)) * 80.0
        sched = sampler.make_schedule(n_steps=10)
        cfg = sampler.GuidanceConfig(gamma=1.0)
        batch = sampler.integrate(cond, uncond, x_T, sched, cfg)
        rows = np.stack([sampler.integrate(cond, uncond, x, sched, cfg)
                         for x in x_T])
        # batched matmul and per-row matvec may round differently
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_compiled_run_holds_one_block(self, overwrite):
        """A compiled run of 8192 states in d = 64, a 4 MiB block and four
        row blocks' worth, allocates less than half a block above the
        drawn states when it writes over them, and less than one and a half
        (its output) otherwise, by tracemalloc's count of numpy's buffers."""
        d, m = 64, 8192
        cond, uncond = random_stats_pair(d, np.random.default_rng(2))
        sched = sampler.make_schedule(n_steps=20)
        x_T = sampler.draw_initial_states(d, m, 2, sched)
        block = x_T.nbytes
        assert block >= 4 * sampler.ROW_BLOCK_BYTES
        assert sampler.choose_path(m, d) == "compiled"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = sampler.integrate(cond, uncond, x_T, sched, G(gamma=2.0), overwrite_x=overwrite)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.shares_memory(out, x_T) == overwrite
        assert peak < (0.5 if overwrite else 1.5) * block, peak / block

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", ["full", "mean_shift", "frozen"])
    def test_stepped_run_holds_its_floor(self, name, heun):
        """A stepped run of 128 states in d = 256, written over the drawn
        states, holds y = (x - mu_c) U_c and the step's slope block (with
        Heun also z and k1), reused from step to step. Full CFG adds the
        flow's one scratch block (its thin product, then y alpha) and R =
        U_c^T U_uc, d^2 floats, 2 blocks here; a frozen basis adds its G,
        d^2 floats more, formed before the step blocks; the mean shift alone
        forms no R. By tracemalloc's count of numpy's buffers the peak stays
        within half a block of that floor."""
        d, m = 256, 128
        cond, uncond = random_stats_pair(d, np.random.default_rng(2))
        sched = sampler.make_schedule(n_steps=10)
        x_T = sampler.draw_initial_states(d, m, 2, sched)
        block = x_T.nbytes
        assert sampler.choose_path(m, d) == "stepwise"
        cfg = G(gamma=2.0) if name == "full" else ABLATION_CFGS[name]
        floor = 2 + 2 * heun + {"full": 1 + d // m, "mean_shift": 0, "frozen": 1 + 2 * d // m}[name]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sampler.integrate(cond, uncond, x_T, sched, cfg, heun=heun, overwrite_x=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < (floor + 0.5) * block, (peak / block, floor)

    @pytest.mark.parametrize("integrator", ["gaussian", "mixture"])
    def test_overwrite_x_needs_a_writeable_float64_block(self, integrator):
        """Both integrators hold x_T to ``sampler._start``'s one overwrite rule."""
        cond, uncond = toy_conditional_stats(), toy_unconditional_stats()
        if integrator == "gaussian":
            run = partial(sampler.integrate, cond, uncond)
        else:
            run = partial(gmm.integrate, gmm.MixtureModel((cond, uncond), np.array([0.5, 0.5])), 0)
        sched, cfg = sampler.make_schedule(n_steps=4), G(gamma=1.0)
        frozen = np.zeros((4, 2))
        frozen.flags.writeable = False
        for x_T in ([[0.0, 1.0]], np.zeros((4, 2), np.float32), np.zeros((2, 4)).T, frozen):
            with pytest.raises(ValueError, match="overwrite_x"):
                run(x_T, sched, cfg, overwrite_x=True)
        lone = np.array([1.0, 2.0])  # a lone state is written over too
        expect = run(lone, sched, cfg)
        got = run(lone, sched, cfg, overwrite_x=True)
        assert np.shares_memory(got, lone) and got.shape == (2,)
        assert got.tobytes() == expect.tobytes() == lone.tobytes()

    def test_divergence_guard_reports_step_and_sample(self):
        sched = sampler.make_schedule(10.0, 1.0, 4, 1.0)
        explode = lambda x, s: x * 1e9
        quiet = lambda x, s: np.zeros_like(x)
        with pytest.raises(DivergenceError) as exc:
            sampler.integrate_with_scores(explode, quiet, np.ones((3, 2)), sched,
                                          sampler.GuidanceConfig(gamma=0.0))
        assert exc.value.step == 0
        assert exc.value.sample == 0

    def test_divergence_guard_holds_each_rows_two_norm(self):
        """The reference stepper holds |x - centre|_2, not max|x|: after step
        0 row 1's largest entry is half the limit and its 2-norm twice it,
        so the guard names (0, 1) where a max|x| rule names (1, 0)."""
        sched = sampler.make_schedule(n_steps=8)
        x_T = np.full((3, 16), 0.5)
        x_T[1] = 2.0
        _, limit = sampler._start(x_T, sched, 0.0)
        s0, s1 = sched.sigmas[:2]
        g = (limit / 4 - 1) / ((s0 - s1) * s0)
        x_1 = x_T * (1.0 - g * (s0 - s1) * s0)
        assert np.abs(x_1).max() <= limit / 2 < 2 * limit - 16 <= np.linalg.norm(x_1[1])
        with pytest.raises(DivergenceError) as exc:
            sampler._drive(lambda x, s: -g * x, x_T, sched)
        assert (exc.value.step, exc.value.sample) == (0, 1)

    def test_divergence_guard_trips_on_nan_and_scales_with_start(self):
        sched = sampler.make_schedule(10.0, 1.0, 4, 1.0)
        quiet = lambda x, s: np.zeros_like(x)
        nan_row = lambda x, s: np.where(np.arange(len(x))[:, None] == 1, np.nan, 0.0)
        with pytest.raises(DivergenceError) as exc:
            sampler.integrate_with_scores(nan_row, quiet, np.ones((3, 2)), sched,
                                          sampler.GuidanceConfig(gamma=0.0))
        assert (exc.value.step, exc.value.sample) == (0, 1)
        # a start far beyond the absolute guard is not itself a divergence
        x_T = np.full((2, 2), 5e9)
        np.testing.assert_array_equal(
            sampler.integrate_with_scores(quiet, quiet, x_T, sched,
                                          sampler.GuidanceConfig(gamma=0.0)), x_T)

    @pytest.mark.parametrize("cfg", [G(gamma=0.0), G(gamma=2.0),
                                     ABLATION_CFGS["pos"]], ids=["gamma0", "full", "pos"])
    def test_far_offset_gaussian_run_finishes(self, cfg):
        offset = np.array([2e6, 0.0])
        cond = toy_conditional_stats(mu=offset + 4.0)
        base = toy_unconditional_stats()
        uncond = GaussianStats(mean=offset, eigvecs=base.eigvecs, eigvals=base.eigvals)
        sched = sampler.make_schedule(n_steps=12)
        batch = sampler.sample_batch(cond, uncond, 8, 0, sched, cfg)
        # the flow is translation-equivariant: same run with the data at the origin
        ref = sampler.sample_batch(toy_conditional_stats(mu=(4.0, 4.0)), base, 8, 0, sched,
                                   cfg, init=sampler.InitSpec(shift=-offset))
        np.testing.assert_allclose(batch - offset, ref, rtol=0, atol=2e-3)

    def test_far_offset_mixture_run_finishes(self):
        model = demo_mixture()
        offset = np.array([0.0, 2e6])
        shifted = gmm.MixtureModel(
            components=tuple(GaussianStats(mean=c.mean + offset, eigvecs=c.eigvecs,
                                           eigvals=c.eigvals) for c in model.components),
            weights=model.weights)
        sched = sampler.make_schedule(n_steps=12)
        batch = gmm.sample_batch(shifted, 0, 8, 0, sched, G(gamma=1.0))
        ref = gmm.sample_batch(model, 0, 8, 0, sched, G(gamma=1.0),
                               init=sampler.InitSpec(shift=-offset))
        np.testing.assert_allclose(batch - offset, ref, rtol=0, atol=2e-3)

    def test_rejects_nonfinite_start(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        sched = sampler.make_schedule(n_steps=4)
        with pytest.raises(ShapeError):
            sampler.integrate(cond, uncond, np.array([np.nan, 0.0]), sched,
                              sampler.GuidanceConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "last", "only"])
    def test_start_rejects_each_non_finite_value(self, where, value):
        """One max/min pair finds a NaN or an infinity of either sign at
        either end of the block, or as its one entry."""
        x = np.zeros(1) if where == "only" else np.ones((3, 4))
        x.flat[-1 if where == "last" else 0] = value
        with pytest.raises(ShapeError, match="non-finite"):
            sampler._start(x, sampler.make_schedule(n_steps=4), 1.0)

    @pytest.mark.parametrize("m", [1, 4], ids=["stepwise", "compiled"])
    @pytest.mark.parametrize("value", [1e290, 1e303])
    def test_start_too_large_for_the_guard_fails_before_any_step(self, value, m):
        """``_norms`` squares each row, so at |x_T| = 1e290 the guard read inf
        at step 0 of a run that contracts, and from 1.8e302 on the limit is
        itself inf, so the guard never tripped. Either start is a ValueError
        naming the bound, raised before any step, with x_T left as it was."""
        cond, uncond = toy_conditional_stats(), toy_unconditional_stats()
        x_T = np.full((m, 2), value)
        assert sampler.choose_path(m, 2) == ("compiled" if m > 1 else "stepwise")
        for heun in (False, True):
            with pytest.raises(ValueError) as exc:
                sampler.integrate(cond, uncond, x_T, sampler.make_schedule(n_steps=4), G(),
                                  heun=heun, overwrite_x=True)
            assert type(exc.value) is ValueError
            assert str(exc.value).startswith("divergence limit ")
            assert str(exc.value).endswith(" exceeds 9.481e+153 = sqrt(float64 max / d)")
            np.testing.assert_array_equal(x_T, value)

    def test_start_limit_up_to_the_bound_is_kept(self):
        """The largest start the bound admits runs: its rows' squared norms
        stay finite, so the guard reads them."""
        bound = np.sqrt(np.finfo(np.float64).max / 2)
        x_T = np.full((1, 2), bound / sampler.DIVERGENCE_GUARD / 2)
        sched = sampler.make_schedule(n_steps=4)
        _, limit = sampler._start(x_T, sched, 0.0)
        assert limit <= bound
        out = sampler.integrate(toy_conditional_stats(), toy_unconditional_stats(), x_T, sched,
                                G(gamma=0.0))
        assert np.isfinite(out).all() and np.abs(out).max() < np.abs(x_T).max()

    def test_start_limit_reads_the_largest_magnitude_of_either_sign(self):
        sched = sampler.make_schedule(sigma_max=10.0, n_steps=4)
        for x, big in (([[3e3, -5e3]], 5e3), ([[-3e3, 5e3]], 5e3), ([[1.0, 2.0]], 10.0)):
            _, limit = sampler._start(np.array(x), sched, 0.5)
            assert limit == sampler.DIVERGENCE_GUARD * big

    @pytest.mark.parametrize("entry", ["integrate", "integrate_with_scores", "gmm"])
    def test_rejects_empty_batch(self, entry):
        cond, uncond = toy_conditional_stats(), toy_unconditional_stats()
        sched, cfg = sampler.make_schedule(n_steps=4), G(gamma=1.0)
        run = {"integrate": partial(sampler.integrate, cond, uncond),
               "integrate_with_scores": partial(sampler.integrate_with_scores,
                                                partial(denoiser.score, cond),
                                                partial(denoiser.score, uncond)),
               "gmm": partial(gmm.integrate, demo_mixture(), 0)}[entry]
        with pytest.raises(ShapeError, match=r"m, d >= 1, got \(0, 2\)"):
            run(np.empty((0, 2)), sched, cfg)


def _apply(applier, cond, uncond, x_T, sched, cfg, heun, overwrite=False):
    """Run cfg through the named applier, whatever choose_path would pick,
    writing the samples over x_T if ``overwrite``."""
    x, limit = sampler._start(x_T, sched, sampler.data_scale(cond, uncond))
    flow = sampler._CondBasisFlow(cond, uncond, cfg)
    return getattr(sampler, applier)(flow, sched, heun, x, limit, out=x if overwrite else None)


class TestDiagonalFold:
    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("cfg", [G(gamma=0.0), G(enable_pos_cpc=False, enable_neg_cpc=False),
                                     G(active_interval=(0.05, 2.0))],
                             ids=["gamma0", "mean_shift", "interval"])
    def test_map_stays_diagonal_until_the_first_coupled_step(self, cfg, heun, monkeypatch):
        """The compiled map's P is a vector while every step so far is
        diagonal: a run with no CPC term never builds a (d, d) P, and one
        whose CPC term starts late builds it at its first coupled step. Each
        matches stepping."""
        d = 16
        cond, uncond = random_stats_pair(d, np.random.default_rng(4))
        sched = sampler.make_schedule(n_steps=12)
        x_T = sampler.draw_initial_states(d, 2 * d, 3, sched)
        cpc = cfg.enable_pos_cpc or cfg.enable_neg_cpc
        # per step, whether no node it reads has a CPC term
        diagonal = [not (cpc and any(map(cfg.guidance_active, ends)))
                    for ends, _ in sampler._nodes(sched, heun)]
        lead = diagonal.index(False) if False in diagonal else len(diagonal)
        shapes, real = [], np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda a: shapes.append(np.shape(a)) or real(a))
        compiled = _apply("_compiled", cond, uncond, x_T, sched, cfg, heun)
        monkeypatch.undo()
        # the guard reads |P|_F, then |q|_2, after each step
        assert shapes[::2] == [(d,)] * lead + [(d, d)] * (len(diagonal) - lead)
        assert (lead == len(diagonal)) == (cfg.active_interval is None)
        stepped = _apply("_stepwise", cond, uncond, x_T, sched, cfg, heun)
        assert trajectory_rel_error(compiled, stepped, x_T).max() <= 1e-12

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("cfg", [G(gamma=2.0), G(gamma=2.0, active_interval=(0.05, 2.0))],
                             ids=["full", "interval"])
    def test_every_coupled_evaluation_is_one_gemm(self, cfg, heun):
        """P steps under the drift z A with one (d, d) GEMM per evaluation
        that reads a matrix A, the first coupled step's first one included:
        P becomes diag(P) before that step, and no product depends on which
        evaluation it is."""
        gemms = []

        class Counted(np.ndarray):  # a node matrix that counts the GEMMs it takes part in
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and inputs[0].ndim == 2:
                    gemms.append(1)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        d = 8
        cond, uncond = random_stats_pair(d, np.random.default_rng(5))
        sched = sampler.make_schedule(n_steps=12)
        flow = sampler._CondBasisFlow(cond, uncond, cfg)
        real = flow.node_matrix

        def counted(s):
            a, b = real(s)
            return (a.view(Counted) if a.ndim == 2 else a), b

        flow.node_matrix = counted
        for _ in sampler._fold(flow, sched, heun):
            pass
        on = [cfg.guidance_active(float(s)) for s in sched.sigmas]
        # per coupled step, whether each node it reads has a CPC term (a (d, d) A)
        steps = [(on[i], heun and on[i + 1]) for i in range(sched.n_steps)
                 if on[i] or (heun and on[i + 1])]
        assert len(gemms) == sum(a + b for a, b in steps)


class TestStep:
    """``_step`` is the one Euler/Heun update, of states and of maps alike."""

    @staticmethod
    def _elementwise(seed, d=64):
        """The weighted diagonal drift w z a_j (plus w b with ``shift``) at
        the nodes sigma_j = (2, 1), written into its out block, and weights
        (u0, u1), drawn so that no term of the step cancels its 1."""
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-1.0, 1.0, (2, d)), rng.standard_normal(d)
        u0, u1 = rng.uniform(0.0, 0.5, 2)
        nodes = {2.0: a[0], 1.0: a[1]}

        def drift(z, s, w, out, shift=False):
            out = np.multiply(z, nodes[s] * w, out=out)
            if shift:
                out += b * w
            return out

        return a, b, (u0, u1), drift, tuple(nodes)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_euler_on_an_elementwise_drift_is_bit_exact(self, seed):
        """Euler steps ones to 1 + u0 a0 and, under z a0 + b, zeros to u0 b,
        bit for bit: a diagonal map's first step is its scaling exactly."""
        a, b, (u0, u1), drift, ends = self._elementwise(seed)
        d = a.shape[1]
        got = sampler._step(np.ones(d), drift, ends[:1], (u0, u1), np.empty((1, d)))
        np.testing.assert_array_equal(got, 1.0 + u0 * a[0])
        shifted = sampler._step(np.zeros(d), partial(drift, shift=True), ends[:1], (u0, u1),
                                np.empty((1, d)))
        np.testing.assert_array_equal(shifted, u0 * b)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_heun_on_an_elementwise_drift_is_the_step_polynomial(self, seed):
        """Heun steps ones to the polynomial 1 + u0/2 a0 + u1/2 a1 + u0 u1/2
        a0 a1 to within a few ulps. Each drift writes into one of the step's
        out blocks, never into the block it reads."""
        a, _, (u0, u1), drift, ends = self._elementwise(seed)
        d = a.shape[1]
        out = np.empty((3, d))
        calls = []
        got = sampler._step(np.ones(d), lambda z, s, w, dst: calls.append((z, dst)) or drift(
            z, s, w, dst), ends, (u0, u1), out)
        ref = 1.0 + 0.5 * u0 * a[0] + 0.5 * u1 * a[1] + 0.5 * u0 * u1 * a[0] * a[1]
        np.testing.assert_array_max_ulp(got, ref, maxulp=4)
        assert len(calls) == 2
        assert all(np.shares_memory(dst, out) and not np.shares_memory(dst, z)
                   for z, dst in calls)

    def test_every_integrator_calls_the_one_step(self):
        """The stepped loop and the fold take ``_step`` for every step, with a
        CPC term or without; Gaussian and mixture states both go through the
        one loop, ``_advance``; no step-map polynomial or precomputed
        uncoupled scaling is left, and no function of
        ``sampler`` or ``gmm`` but the oracle ``integrate_with_scores``, nested
        ones included, reaches the reference stepper ``_drive``."""
        def names(code):
            return set(code.co_names).union(*(names(c) for c in code.co_consts
                                              if inspect.iscode(c)))

        for fn in (sampler._advance, sampler._fold):
            assert "_step" in inspect.unwrap(fn).__code__.co_names, fn.__name__
        for fn in (sampler._stepwise, gmm.integrate):
            assert "_advance" in inspect.unwrap(fn).__code__.co_names, fn.__name__
        assert not hasattr(sampler, "_step_map")
        assert not hasattr(sampler, "_steps")
        callers = {f"{module.__name__}.{name}" for module in (sampler, gmm)
                   for name, fn in inspect.getmembers(module, inspect.isfunction)
                   if fn.__module__ == module.__name__
                   and "_drive" in names(inspect.unwrap(fn).__code__)}
        assert callers == {"lincfg.sampler.integrate_with_scores"}


class TestFold:
    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name, cfg", [
        ("full", G(gamma=2.0)), ("pos", ABLATION_CFGS["pos"]), ("frozen", ABLATION_CFGS["frozen"]),
        ("mean_shift", ABLATION_CFGS["mean_shift"]),
        ("interval", G(gamma=2.0, active_interval=(0.05, 2.0)))])
    def test_each_partial_map_is_the_run_stepped_that_far(self, name, cfg, heun):
        """``_fold`` yields exactly one map per step. The map after step i,
        applied to x_T, is the stepwise run over the schedule's first i + 1
        steps. A mean-shift run's maps stay diagonal, an interval run's are
        diagonal until its first coupled step, and the others' are full."""
        d = 12
        cond, uncond = random_stats_pair(d, np.random.default_rng(21))
        sched = sampler.make_schedule(n_steps=10)
        x_T = sampler.draw_initial_states(d, 2 * d, 21, sched)
        x, limit = sampler._start(x_T, sched, sampler.data_scale(cond, uncond))
        y0 = (x_T - cond.mean) @ cond.eigvecs
        ndims = []
        for i, (P, q) in enumerate(sampler._fold(sampler._CondBasisFlow(cond, uncond, cfg), sched,
                                                 heun)):
            ndims.append(P.ndim)
            got = cond.mean + ((y0 @ P if P.ndim == 2 else y0 * P) + q) @ cond.eigvecs.T
            ref = sampler._stepwise(sampler._CondBasisFlow(cond, uncond, cfg),
                                    sampler.NoiseSchedule(sched.sigmas[:i + 2]), heun, x, limit)
            assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12, i
        assert len(ndims) == sched.n_steps
        # guidance is on at sigma_6..sigma_8, and Heun's step 5 reads sigma_6
        lead = {"mean_shift": sched.n_steps, "interval": 6 - heun}.get(name, 0)
        assert ndims == [1] * lead + [2] * (sched.n_steps - lead)

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("cfg", [G(gamma=0.0), G(gamma=2.0),
                                     G(gamma=2.0, active_interval=(0.3, 5.0))],
                             ids=["gamma0", "full", "interval"])
    def test_each_step_is_one_step_of_one_block(self, cfg, heun, monkeypatch):
        """``_fold`` steps P and q as one block [P; q]: one ``_step`` call per
        schedule step, before and after an interval run couples at sigma_6,
        the first node in its interval. Its last P is that of P stepped alone
        under the same nodes, from the identity, to within 2 ulp."""
        d = 12
        cond, uncond = random_stats_pair(d, np.random.default_rng(22))
        sched = sampler.make_schedule(n_steps=12)
        calls, real = [], sampler._step
        monkeypatch.setattr(sampler, "_step", lambda *args: calls.append(1) or real(*args))
        for P, q in sampler._fold(sampler._CondBasisFlow(cond, uncond, cfg), sched, heun):
            pass
        assert len(calls) == sched.n_steps
        node = sampler._CondBasisFlow(cond, uncond, cfg).node_matrix

        def f(z, s):
            a = node(s)[0]
            return z @ a if a.ndim == 2 else z * a

        ref = np.eye(d)
        for (s0, *s1), (u0, u1) in sampler._nodes(sched, heun):
            if heun:
                k0 = f(ref, s0) * (0.5 * u0)
                ref = ref + (k0 + f(k0 + k0 + ref, s1[0]) * (0.5 * u1))
            else:
                ref = ref + f(ref, s0) * u0
        np.testing.assert_array_max_ulp(np.diag(P) if P.ndim == 1 else P, ref, maxulp=2)


class TestChoosePath:
    def test_bench_shapes(self):
        # (m, d): wide-cfg steps; batch-cfg and every op of the ablation sweep compile
        assert sampler.choose_path(256, 768) == "stepwise"
        assert sampler.choose_path(4096, 256) == "compiled"
        assert sampler.choose_path(1024, 128) == "compiled"

    @pytest.mark.parametrize("n", [1, 20])
    @pytest.mark.parametrize("heun", [False, True])
    def test_compiles_from_m_equal_d(self, heun, n, monkeypatch):
        """Whatever the config (a CPC term or none, guided or not), Euler or
        Heun, one step or many: ``integrate`` steps a batch of d - 1 states
        and compiles one of d states."""
        picked = []
        for name in APPLIERS:
            monkeypatch.setattr(sampler, name,
                                lambda flow, sched, heun, x, limit, out, name=name:
                                picked.append(name) or x)
        sched = sampler.make_schedule(n_steps=n)
        for d in (2, 128, 768):
            assert (sampler.choose_path(d - 1, d), sampler.choose_path(d, d)) == (
                "stepwise", "compiled")
            cond, uncond = random_stats_pair(d, np.random.default_rng(d))
            for name, cfg in [*FULL_CFGS.items(), *ABLATION_CFGS.items()]:
                for m, applier in ((d - 1, "_stepwise"), (d, "_compiled")):
                    picked.clear()
                    sampler.integrate(cond, uncond, np.zeros((m, d)), sched, cfg, heun=heun)
                    assert picked == [applier], (name, d, m)


class TestGaussianDivergence:
    """Full CFG at gamma=1e6 leaves every trajectory scale within four steps."""

    @staticmethod
    def _blowup(shared_mean=True):
        cond, uncond = random_stats_pair(4, np.random.default_rng(7))
        if shared_mean:  # samples started at the mean stay there, the rest diverge
            uncond = GaussianStats(mean=cond.mean, eigvecs=uncond.eigvecs, eigvals=uncond.eigvals)
        sched = sampler.make_schedule(n_steps=4)
        x_T = sampler.draw_initial_states(4, 32, 3, sched)
        x_T[:5] = cond.mean
        return cond, uncond, sched, x_T

    @staticmethod
    def _named(cond, uncond, sched, x_T, cfg, heun):
        """(step, sample) that ``integrate`` and each applier name, each with
        and without writing over x_T, in one row block and in blocks of 7
        rows (ragged at 32); x_T stays as it was after every one."""
        assert sampler.choose_path(len(x_T), cond.d) == "compiled"
        start, seen = x_T.tobytes(), []
        for rows in (len(x_T), 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampler, "ROW_BLOCK_BYTES", rows * 8 * cond.d)
                for overwrite in (False, True):
                    for run in (partial(sampler.integrate, cond, uncond, x_T, sched, cfg,
                                        heun=heun, overwrite_x=overwrite),
                                *(partial(_apply, a, cond, uncond, x_T, sched, cfg, heun,
                                          overwrite) for a in APPLIERS)):
                        with pytest.raises(DivergenceError) as exc:
                            run()
                        assert x_T.tobytes() == start
                        seen.append((exc.value.step, exc.value.sample))
        return seen

    def test_fold_never_steps(self):
        """The compiled applier guards its own map: it never reruns a block
        through the stepwise applier."""
        assert "_stepwise" not in inspect.unwrap(sampler._compiled).__code__.co_names

    @pytest.mark.parametrize("heun", [False, True])
    def test_both_appliers_name_the_same_step_and_sample(self, heun):
        seen = self._named(*self._blowup(), G(gamma=1e6), heun)
        assert len(set(seen)) == 1
        assert seen[0][1] == 5  # the first sample not started at the mean

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("cfg", [G(gamma=1e6, enable_neg_cpc=False, enable_mean_shift=False),
                                     G(gamma=1e6, freeze_cpc_at=5.0)], ids=["pos", "frozen"])
    def test_ablation_names_the_same_step_and_sample(self, cfg, heun):
        seen = self._named(*self._blowup(), cfg, heun)
        assert len(set(seen)) == 1
        assert seen[0][1] == 5

    @pytest.mark.parametrize("heun", [False, True])
    def test_mean_shift_names_the_same_step_and_sample(self, heun):
        """A mean-shift-only run keeps the fold's P diagonal, so its exact
        check applies U diag(P_i) U^T and q_i U^T. q_i is gamma times q_i at
        gamma = 1, so gamma can put the samples started at mu_c just inside
        the limit at the largest |q_i|: only samples displaced along q_i pass
        it there."""
        cond, uncond, sched, x_T = self._blowup(shared_mean=False)
        _, limit = sampler._start(x_T, sched, sampler.data_scale(cond, uncond))
        shift = G(gamma=1.0, enable_pos_cpc=False, enable_neg_cpc=False)
        sizes = [np.linalg.norm(q) for _, q in
                 sampler._fold(sampler._CondBasisFlow(cond, uncond, shift), sched, heun)]
        gamma = (1.0 - 1e-9) * limit / max(sizes)
        seen = self._named(cond, uncond, sched, x_T, replace(shift, gamma=gamma), heun)
        assert len(set(seen)) == 1
        assert seen[0][1] >= 5  # not a sample started at the mean

    @pytest.mark.parametrize("gamma, n, step", [(1e30, 40, 11), (1e100, 20, 3)])
    def test_overflowing_map_raises_at_the_fixed_point(self, gamma, n, step):
        """With every sample at mu_c = mu_uc, a fixed point of full CFG,
        stepping returns mu_c, but the folded map overflows; 0 * inf is NaN,
        so the fold can give no output and names the step where it does."""
        cond, uncond, _, _ = self._blowup()
        sched = sampler.make_schedule(n_steps=n)
        x_T = np.repeat(cond.mean[None], 32, axis=0)
        cfg = G(gamma=gamma)
        np.testing.assert_array_equal(_apply("_stepwise", cond, uncond, x_T, sched, cfg, False),
                                      x_T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the guard reports the overflow, numpy does not
            for run in (lambda: sampler.integrate(cond, uncond, x_T, sched, cfg),
                        partial(_apply, "_compiled", cond, uncond, x_T, sched, cfg, False)):
                with pytest.raises(DivergenceError) as exc:
                    run()
                assert (exc.value.step, exc.value.sample) == (step, 0)

    def test_sample_named_only_for_blocks_of_more_than_one_row(self):
        """A lone (d,) state and a (1, d) block name no sample; a (3, d) block
        names its first bad row. Every path trips at the same step."""
        cond, uncond, sched, _ = self._blowup()
        model = gmm.MixtureModel(components=(cond, uncond), weights=np.array([0.5, 0.5]))
        cfg = G(gamma=1e7)  # strong enough for the mixture flow to trip at step 1 too
        paths = {
            **{a: partial(_apply, a, cond, uncond, sched=sched, cfg=cfg, heun=False)
               for a in APPLIERS},
            "integrate": partial(sampler.integrate, cond, uncond, schedule=sched, cfg=cfg),
            "integrate_with_scores": partial(
                sampler.integrate_with_scores, partial(denoiser.score, cond),
                partial(denoiser.score, uncond), schedule=sched, cfg=cfg,
                scale=sampler.data_scale(cond, uncond)),
            "gmm": partial(gmm.integrate, model, 0, schedule=sched, cfg=cfg),
        }
        # rows 0 and 2 start at the shared mean, a fixed point of every flow here
        x_T = np.repeat(cond.mean[None], 3, axis=0)
        x_T[1] += sampler.draw_initial_states(4, 1, 3, sched)[0]
        steps = set()
        for name, run in paths.items():
            for x, sample in ((x_T[1], None), (x_T, 1), (x_T[1:2], None)):
                with pytest.raises(DivergenceError) as exc:
                    run(x_T=x)
                assert exc.value.sample == sample, (name, x.shape)
                steps.add(exc.value.step)
        assert len(steps) == 1

    @pytest.mark.parametrize("applier", APPLIERS)
    def test_start_far_beyond_the_absolute_guard_finishes(self, applier):
        cond, uncond, sched, _ = self._blowup()
        x_T = np.full((32, 4), 5e9)
        cfg = G(gamma=2.0)
        got = _apply(applier, cond, uncond, x_T, sched, cfg, False)
        ref = sampler._drive(_dense_cfg_drift(cond, uncond, cfg), x_T, sched)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12

    def test_loose_bound_keeps_the_fold(self, monkeypatch):
        """Where the norm bound on the partial maps trips but no sample passes
        the limit, the fold checks the samples' exact distances and keeps its
        own map; with the limit just below the largest distance, both
        appliers name the same step and sample."""
        cond, uncond = random_stats_pair(8, np.random.default_rng(8))
        sched = sampler.make_schedule(n_steps=12)
        x_T = sampler.draw_initial_states(8, 16, 8, sched)
        cfg = G(gamma=2.0)
        flow = sampler._CondBasisFlow(cond, uncond, cfg)
        seen = []  # x_T, the states after steps 0..N-2, then the last one

        def drift(x, sigma):
            seen.append(x)
            return _dense_cfg_drift(cond, uncond, cfg)(x, sigma)

        seen.append(sampler._drive(drift, x_T, sched))
        dist = np.array([np.linalg.norm(x - cond.mean, axis=1) for x in seen[1:]])  # (step, sample)
        checked, real = [], sampler._guard
        monkeypatch.setattr(sampler, "_guard", lambda *a: checked.append(a[1]) or real(*a))
        # just above the largest distance: no sample passes it, but the bound does
        folded = sampler._compiled(flow, sched, False, x_T, 1.001 * dist.max())
        assert checked  # the exact check ran
        checked.clear()
        assert sampler._compiled(flow, sched, False, x_T, 1e12).tobytes() == folded.tobytes()
        assert checked == []
        limit = 0.999 * dist.max()
        step = int(np.flatnonzero((dist > limit).any(axis=1))[0])
        first = (step, np.flatnonzero(dist[step] > limit)[0])
        for applier in APPLIERS:
            with pytest.raises(DivergenceError) as exc:
                getattr(sampler, applier)(flow, sched, False, x_T, limit)
            assert (exc.value.step, exc.value.sample) == first


    def test_tripped_guard_allocates_no_block(self, monkeypatch):
        """A run of 8192 states in d = 64 (a 4 MiB block) whose norm bound
        trips at several steps, written over x_T, checks the exact distances
        through one more row block: it allocates less than 0.75 blocks above
        x_T, by tracemalloc's count of numpy's buffers."""
        d, m = 64, 8192
        cond, uncond = random_stats_pair(d, np.random.default_rng(2))
        sched = sampler.make_schedule(n_steps=20)
        x_T = sampler.draw_initial_states(d, m, 2, sched)
        flow = sampler._CondBasisFlow(cond, uncond, G(gamma=2.0))
        y0 = (x_T - cond.mean) @ cond.eigvecs
        dist = max(float(sampler._norms(y0 @ P + q).max())
                   for P, q in sampler._fold(flow, sched, False))
        del y0
        checked, real = [], sampler._guard
        monkeypatch.setattr(sampler, "_guard", lambda *a: checked.append(a[1]) or real(*a))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = sampler._compiled(flow, sched, False, x_T, 1.001 * dist, out=x_T)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert checked  # the exact check ran
        assert np.shares_memory(out, x_T)
        assert peak < 0.75 * x_T.nbytes, peak / x_T.nbytes


class TestFullCfgPath:
    """Full CFG integrates (1 + gamma) s_c - gamma s_uc in the cond basis."""

    @staticmethod
    def _run(d, cfg, heun):
        cond, uncond = random_stats_pair(d, np.random.default_rng(d))
        sched = sampler.make_schedule(n_steps=12)
        x_T = sampler.draw_initial_states(d, 16, d, sched)
        got = sampler.integrate(cond, uncond, x_T, sched, cfg, heun=heun)
        return cond, uncond, sched, x_T, got

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(FULL_CFGS))
    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_matches_dense_solve_drift(self, d, name, heun):
        cfg = FULL_CFGS[name]
        cond, uncond, sched, x_T, got = self._run(d, cfg, heun)
        ref = sampler._drive(_dense_cfg_drift(cond, uncond, cfg), x_T, sched, heun=heun)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(FULL_CFGS))
    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_matches_split_drift(self, d, name, heun):
        cfg = FULL_CFGS[name]
        cond, uncond, sched, x_T, got = self._run(d, cfg, heun)
        ref = sampler._drive(_split_drift(cond, uncond, cfg), x_T, sched, heun=heun)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-9

    @pytest.mark.parametrize("applier", APPLIERS)
    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(FULL_CFGS))
    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_each_applier_matches_dense_solve_drift(self, d, name, heun, applier):
        cfg = FULL_CFGS[name]
        cond, uncond = random_stats_pair(d, np.random.default_rng(d))
        sched = sampler.make_schedule(n_steps=12)
        x_T = sampler.draw_initial_states(d, 16, d, sched)
        got = _apply(applier, cond, uncond, x_T, sched, cfg, heun)
        ref = sampler._drive(_dense_cfg_drift(cond, uncond, cfg), x_T, sched, heun=heun)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12

    def test_full_cfg_makes_no_cpc_decomposition(self, monkeypatch):
        calls = []
        real = cpca.signed_eigh
        monkeypatch.setattr(cpca, "signed_eigh", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(cpca, "posterior_cpcs", None)  # sampling never reads it
        for cfg in [G(gamma=0.0), *FULL_CFGS.values()]:
            for heun in (False, True):
                self._run(8, cfg, heun)
        assert calls == []
        self._run(8, ABLATION_CFGS["pos"], False)
        assert len(calls) == 12

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(ABLATION_CFGS))
    def test_ablation_bit_identical_to_split_drift(self, name, heun):
        """Ablations run the cond-basis flow too, so they match the split of
        guidance_terms at the 1e-12 of the full-CFG paths, not bit for bit."""
        cfg = ABLATION_CFGS[name]
        cond, uncond, sched, x_T, got = self._run(8, cfg, heun)
        ref = sampler._drive(_split_drift(cond, uncond, cfg), x_T, sched, heun=heun)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12


class TestEveryGaussianConfig:
    """Every GuidanceConfig runs the cond-basis flow, never guidance_terms."""

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("terms", TERM_SUBSETS, ids=lambda t: "+".join(
        name for name, on in zip(("cond", "pos", "neg", "shift"), t) if on) or "off")
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           d=st.sampled_from([2, 5, 16]),
           freeze=st.none() | st.floats(min_value=0.05, max_value=50.0),
           interval=st.none() | st.tuples(st.floats(min_value=0.01, max_value=5.0),
                                          st.floats(min_value=1.0, max_value=100.0)),
           gamma=st.just(0.0) | st.floats(min_value=0.1, max_value=5.0))
    @example(seed=0, d=16, freeze=1.0, interval=None, gamma=4.0)  # pos+neg Heun diverges
    @example(seed=1, d=16, freeze=1.0, interval=None, gamma=4.0)  # pos+shift Heun: see below
    # cond off, a positive CPC, Heun: inside the limit where the fold's norm bound trips
    @example(seed=1, d=16, freeze=0.375, interval=None, gamma=5.0)
    def test_each_applier_matches_split_and_dense_drifts(self, terms, heun, seed, d, freeze,
                                                         interval, gamma):
        cond_on, pos, neg, shift = terms
        cfg = G(gamma=gamma, enable_cond=cond_on, enable_pos_cpc=pos, enable_neg_cpc=neg,
                enable_mean_shift=shift, freeze_cpc_at=freeze,
                active_interval=interval and (interval[0], interval[0] * interval[1]))
        cond, uncond = random_stats_pair(d, np.random.default_rng(seed))
        sched = sampler.make_schedule(n_steps=10)
        x_T = sampler.draw_initial_states(d, 12, seed, sched)
        # the references step z = x - mu_c, so _drive's guard on |z|_2 is the
        # appliers' on |x - mu_c|_2; their limit, from x_T, goes in as the scale
        mu, (_, limit) = cond.mean, sampler._start(x_T, sched, sampler.data_scale(cond, uncond))
        try:
            refs = [mu + sampler._drive(lambda z, s, f=drift(cond, uncond, cfg): f(z + mu, s),
                                        x_T - mu, sched, heun=heun,
                                        scale=limit / sampler.DIVERGENCE_GUARD)
                    for drift in (_split_drift, _dense_ablation_drift)]
        except DivergenceError as err:
            # a strong frozen CPC term on a coarse grid can leave the guard;
            # then every applier trips it too, at the same step
            for applier in APPLIERS:
                with pytest.raises(DivergenceError) as caught:
                    _apply(applier, cond, uncond, x_T, sched, cfg, heun)
                assert caught.value.step == err.step
            return
        stepped = _apply("_stepwise", cond, uncond, x_T, sched, cfg, heun)
        compiled = _apply("_compiled", cond, uncond, x_T, sched, cfg, heun)
        for got in (stepped, compiled):
            for ref in refs:
                assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("applier", APPLIERS)
    @pytest.mark.parametrize("cfg", [FULL_CFGS["full"], ABLATION_CFGS["pos"],
                                     ABLATION_CFGS["frozen"], FULL_CFGS["gamma0"]],
                             ids=["full", "pos", "frozen", "gamma0"])
    def test_overwrite_x_gives_the_same_bytes_in_x_T(self, cfg, applier, heun, monkeypatch):
        """Written over x_T or into a new block, each applier gives the same
        bytes; the first shares x_T's memory, the second leaves x_T as it
        was. The compiled applier streams 23 rows of d = 8 in blocks of at
        most 5: three of 5 and two shorter ones of 4."""
        d, m = 8, 23
        monkeypatch.setattr(sampler, "ROW_BLOCK_BYTES", 5 * 8 * d)
        assert [b.stop - b.start for b in sampler._row_blocks(m, d)] == [5, 5, 4, 5, 4]
        cond, uncond = random_stats_pair(d, np.random.default_rng(6))
        sched = sampler.make_schedule(n_steps=12)
        x_T = sampler.draw_initial_states(d, m, 6, sched)
        start = x_T.tobytes()
        new = _apply(applier, cond, uncond, x_T, sched, cfg, heun)
        assert x_T.tobytes() == start and not np.shares_memory(new, x_T)
        over = _apply(applier, cond, uncond, x_T, sched, cfg, heun, overwrite=True)
        assert np.shares_memory(over, x_T) and over.tobytes() == new.tobytes()
        monkeypatch.undo()  # one block: the same samples to rounding
        whole = _apply(applier, cond, uncond, sampler.draw_initial_states(d, m, 6, sched),
                       sched, cfg, heun)
        np.testing.assert_allclose(new, whole, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("applier", APPLIERS)
    def test_decomposition_counts(self, applier, heun, monkeypatch):
        """The CPC split decomposes (signed_eigh) once per guided node for
        one live sign, once for one frozen sign, and never with both signs or
        no CPC term; sampling never calls posterior_cpcs."""
        calls = []
        real = cpca.signed_eigh
        monkeypatch.setattr(cpca, "signed_eigh", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(sampler, "guidance_terms", None)
        monkeypatch.setattr(cpca, "posterior_cpcs", None)
        cond, uncond = random_stats_pair(8, np.random.default_rng(9))
        n = 12
        sched = sampler.make_schedule(n_steps=n)
        x_T = sampler.draw_initial_states(8, 16, 9, sched)
        cfgs = {**ABLATION_CFGS,
                "pos_interval": G(gamma=2.0, enable_neg_cpc=False, active_interval=(0.5, 10.0))}
        for cfg in cfgs.values():
            sampler.integrate(cond, uncond, x_T, sched, cfg, heun=heun)
        nodes = sched.sigmas[:n + heun]  # the nodes the steps evaluate the drift at
        expect = {"pos": n + heun, "neg": n + heun,
                  "pos_interval": int(np.sum((0.5 <= nodes) & (nodes <= 10.0))),
                  "frozen_pos_interval": 1}
        for name, cfg in cfgs.items():
            calls.clear()
            _apply(applier, cond, uncond, x_T, sched, cfg, heun)
            assert len(calls) == expect.get(name, 0), name


class TestCpcSplit:
    """Every node's CPC term is one (vectors, weights, diagonal) split."""

    @pytest.mark.parametrize("frozen", [5.0, 1e-2, 1e-3])
    @pytest.mark.parametrize("d", [8, 32])
    def test_frozen_matrix_matches_dense_solves(self, d, frozen):
        """With cond and mean shift off, node j's matrix is (gamma/sigma_j^2)
        C with C = U_c^T s*^2 [(Sigma_uc + s*^2)^-1 - (Sigma_c + s*^2)^-1] U_c
        for both signs, or the positive or negative part of C for one, held
        at the scale of its own largest entry. The shrinkage difference f_c -
        f_uc cancels at small s* and misses this by up to 1e-9 at 1e-3."""
        cond, uncond = random_stats_pair(d, np.random.default_rng(d))
        sched = sampler.make_schedule(n_steps=6)
        inv_uc, inv_c = (np.linalg.solve(s.covariance() + frozen**2 * np.eye(d), np.eye(d))
                         for s in (uncond, cond))
        contrast = cond.eigvecs.T @ (frozen**2 * (inv_uc - inv_c)) @ cond.eigvecs
        lam, vec = np.linalg.eigh(0.5 * (contrast + contrast.T))
        cut = max(1e-10, d * np.finfo(np.float64).eps * np.abs(lam).max())  # cpca's zero cut
        parts = {(True, True): contrast,
                 (True, False): (vec * np.where(lam > cut, lam, 0.0)) @ vec.T,
                 (False, True): (vec * np.where(lam < -cut, lam, 0.0)) @ vec.T}
        for (pos, neg), part in parts.items():
            cfg = G(gamma=3.0, enable_cond=False, enable_pos_cpc=pos, enable_neg_cpc=neg,
                    enable_mean_shift=False, freeze_cpc_at=frozen)
            flow = sampler._CondBasisFlow(cond, uncond, cfg)
            for j, s in enumerate(sched.sigmas):
                a, b = flow.node_matrix(float(s))
                ref = 3.0 / s**2 * part
                assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max(), (pos, neg, j)
                assert not b.any()

    @staticmethod
    def _shared_basis_pair(d, rng):
        """lam_c = 2 lam_uc in one basis: every CPC is positive, at every sigma."""
        basis = random_orthonormal(d, rng)
        lam_uc = np.sort(rng.uniform(0.1, 1.0, size=d))[::-1]
        return (GaussianStats(mean=rng.standard_normal(d), eigvecs=basis, eigvals=2.0 * lam_uc),
                GaussianStats(mean=rng.standard_normal(d), eigvecs=basis, eigvals=lam_uc))

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("applier", APPLIERS)
    @pytest.mark.parametrize("frozen", [None, 1.0])
    def test_empty_sign_is_no_cpc_term(self, frozen, applier, heun):
        """A neg-only run of a pair with no negative CPC (a (d, 0) split)
        equals the run with no CPC term."""
        d = 8
        cond, uncond = self._shared_basis_pair(d, np.random.default_rng(11))
        sched = sampler.make_schedule(n_steps=12)
        for s in sched.sigmas:
            cpc = cpca.posterior_cpcs(cond, uncond, float(s))
            assert (cpc.n_pos, cpc.n_neg) == (d, 0)
        x_T = sampler.draw_initial_states(d, 16, 11, sched)
        neg = _apply(applier, cond, uncond, x_T, sched,
                     G(gamma=2.0, enable_pos_cpc=False, freeze_cpc_at=frozen), heun)
        none = _apply(applier, cond, uncond, x_T, sched,
                      G(gamma=2.0, enable_pos_cpc=False, enable_neg_cpc=False), heun)
        pos = _apply(applier, cond, uncond, x_T, sched,
                     G(gamma=2.0, enable_neg_cpc=False, freeze_cpc_at=frozen), heun)
        assert trajectory_rel_error(neg, none, x_T).max() <= 1e-15
        assert trajectory_rel_error(pos, none, x_T).max() > 1e-3

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("applier", APPLIERS)
    def test_gram_formed_once_per_split(self, applier, heun, monkeypatch):
        """A frozen run forms its d x d matrix G once with either applier; a
        live run forms one per coupled node when compiled and none when
        stepped, where its two GEMMs use the split's vectors."""
        formed = []
        real = sampler._Split.gram  # a frozen split's unit_gram calls it once
        monkeypatch.setattr(sampler._Split, "gram",
                            lambda split, *a, **k: formed.append(split) or real(split, *a, **k))
        cond, uncond = random_stats_pair(8, np.random.default_rng(12))
        n = 12
        sched = sampler.make_schedule(n_steps=n)
        x_T = sampler.draw_initial_states(8, 16, 12, sched)
        nodes = sched.sigmas[:n + heun]  # the nodes the steps evaluate the drift at
        live = n + heun if applier == "_compiled" else 0
        live_interval = int(np.sum((0.5 <= nodes) & (nodes <= 10.0))) if live else 0
        for cfg, expect in ((G(gamma=2.0, freeze_cpc_at=5.0), 1),
                            (G(gamma=2.0, enable_neg_cpc=False, freeze_cpc_at=0.1), 1),
                            (G(gamma=2.0), live),
                            (G(gamma=2.0, enable_pos_cpc=False), live),
                            (G(gamma=2.0, active_interval=(0.5, 10.0)), live_interval)):
            formed.clear()
            _apply(applier, cond, uncond, x_T, sched, cfg, heun)
            assert len(formed) == expect, cfg

    @pytest.mark.parametrize("name", ["full", "pos", "frozen", "frozen_pos_interval"])
    def test_compiled_euler_scales_no_cached_node_matrix(self, name):
        """The fold's Euler steps scale only their own drift blocks: the split
        the flow keeps (a frozen one lives across runs) and its G are left
        as they were, so a compiled Heun run on the same flow, which reuses
        them and its cached node matrices, still equals the stepped run."""
        cfg = {**FULL_CFGS, **ABLATION_CFGS}[name]
        cond, uncond = random_stats_pair(8, np.random.default_rng(13))
        sched = sampler.make_schedule(n_steps=12)
        x_T = sampler.draw_initial_states(8, 16, 13, sched)
        x, limit = sampler._start(x_T, sched, sampler.data_scale(cond, uncond))
        flow = sampler._CondBasisFlow(cond, uncond, cfg)
        sampler._compiled(flow, sched, False, x, limit)
        for at, split in flow.last.items():
            fresh = sampler._cpc_split(cond, uncond, flow.rot, at, cfg.enable_pos_cpc,
                                       cfg.enable_neg_cpc)
            np.testing.assert_array_equal(split.vecs, fresh.vecs)
            np.testing.assert_array_equal(split.unit_gram, fresh.gram())
        compiled = sampler._compiled(flow, sched, True, x, limit)
        stepped = sampler._stepwise(sampler._CondBasisFlow(cond, uncond, cfg), sched, True, x,
                                    limit)
        assert trajectory_rel_error(compiled, stepped, x_T).max() <= 1e-12


class TestHeunRate:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_second_order(self, gamma, seed):
        """Each halving of the step over N = 25..400 cuts Heun's error about 4x."""
        cond, uncond = toy_conditional_stats(), toy_unconditional_stats()
        x_T = np.random.default_rng(seed).standard_normal((32, 2)) * 80.0
        if gamma == 0.0:
            ref = sampler.closed_form_unguided(cond, x_T, 80.0, 0.002)
        else:
            ref = analytic.closed_form_cfg(toy_common_pair(), x_T, 0.002, 80.0, gamma)
        errs = [trajectory_rel_error(
                    sampler.integrate(cond, uncond, x_T,
                                      sampler.make_schedule(80.0, 0.002, n, 7.0),
                                      G(gamma=gamma), heun=True), ref, x_T).max()
                for n in (25, 50, 100, 200, 400)]
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all((3.0 <= ratios) & (ratios <= 5.0)), ratios


class TestSampleBatch:
    def test_fixed_seed_bit_identical(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        sched = sampler.make_schedule(n_steps=10)
        cfg = sampler.GuidanceConfig(gamma=1.0)
        a = sampler.sample_batch(cond, uncond, 16, 99, sched, cfg)
        b = sampler.sample_batch(cond, uncond, 16, 99, sched, cfg)
        assert a.tobytes() == b.tobytes()

    def test_counter_seeding_independent_of_batch_size(self):
        sched = sampler.make_schedule(n_steps=10)
        # the draw for sample k depends only on (seed, k), never on m
        small = sampler.draw_initial_states(2, 3, 7, sched)
        large = sampler.draw_initial_states(2, 8, 7, sched)
        np.testing.assert_array_equal(small, large[:3])
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        cfg = sampler.GuidanceConfig(gamma=0.0)
        a = sampler.sample_batch(cond, uncond, 3, 7, sched, cfg)
        b = sampler.sample_batch(cond, uncond, 8, 7, sched, cfg)
        np.testing.assert_allclose(a, b[:3], rtol=1e-12, atol=1e-12)

    def test_batch_of_one_reproduces_integrate(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        sched = sampler.make_schedule(n_steps=12)
        cfg = sampler.GuidanceConfig(gamma=1.0)
        batch = sampler.sample_batch(cond, uncond, 1, 5, sched, cfg)
        rng = np.random.default_rng([5, 0])
        x_T = sched.sigma_max * rng.standard_normal(2)
        np.testing.assert_array_equal(
            batch[0], sampler.integrate(cond, uncond, x_T, sched, cfg))

    def test_init_spec_shift_and_std(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        sched = sampler.make_schedule(n_steps=6)
        cfg = sampler.GuidanceConfig(gamma=0.0)
        shift = np.array([100.0, -50.0])
        batch = sampler.sample_batch(cond, uncond, 4, 0, sched, cfg,
                                     init=sampler.InitSpec(shift=shift, std=0.0))
        # the same (4, d) block of starts, so the same applier as the batch
        expect = sampler.integrate(cond, uncond, np.tile(shift, (4, 1)), sched, cfg)
        np.testing.assert_array_equal(batch, expect)
        np.testing.assert_array_equal(batch, np.tile(batch[0], (4, 1)))

    def test_init_std_rule(self):
        sched = sampler.make_schedule(n_steps=6)
        shift = np.array([3.0, -1.0])
        default = sampler.draw_initial_states(2, 4, 2, sched, sampler.InitSpec(shift=shift))
        explicit = sampler.draw_initial_states(2, 4, 2, sched,
                                               sampler.InitSpec(shift=shift, std=sched.sigma_max))
        np.testing.assert_array_equal(default, explicit)
        zero = sampler.draw_initial_states(2, 4, 2, sched, sampler.InitSpec(shift=shift, std=0))
        np.testing.assert_array_equal(zero, np.tile(shift, (4, 1)))
        for std in (-1.0, np.nan):
            with pytest.raises(ValueError, match="std"):
                sampler.draw_initial_states(2, 4, 2, sched, sampler.InitSpec(std=std))

    def test_init_shift_of_the_wrong_length_fails_before_the_draw(self, monkeypatch):
        sched = sampler.make_schedule(n_steps=4)
        monkeypatch.setattr(sampler, "_hashed_seeds", None)
        for shift in (np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(ShapeError, match=r"init shift must have length 2, got \("):
                sampler.draw_initial_states(2, 4, 0, sched, sampler.InitSpec(shift=shift))

    @pytest.mark.parametrize("spec", [
        sampler.InitSpec(std=np.inf), sampler.InitSpec(shift=np.array([0.0, np.inf])),
        sampler.InitSpec(shift=np.array([np.nan, 0.0]), std=1.0),
        sampler.InitSpec(shift=np.array([1.0, -np.inf]), std=0.0)])
    def test_non_finite_init_fails_before_the_draw(self, spec, monkeypatch):
        """An infinite std or a non-finite shift is the draw's ValueError,
        raised before any seed is hashed or row allocated, not the start's
        ShapeError after a block of non-finite rows."""
        sched = sampler.make_schedule(n_steps=4)
        monkeypatch.setattr(sampler, "_hashed_seeds", None)
        for draw in (partial(sampler.draw_initial_states, 2, 4, 0, sched, spec),
                     partial(sampler.sample_batch, toy_conditional_stats(),
                             toy_unconditional_stats(), 4, 0, sched, G(), spec)):
            with pytest.raises(ValueError, match=r"init (std|shift)") as caught:
                draw()
            assert not isinstance(caught.value, ShapeError)

    def test_disjoint_interval_equals_unguided(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        sched = sampler.make_schedule(n_steps=15)
        guided = sampler.GuidanceConfig(gamma=5.0, active_interval=(200.0, 300.0))
        naive = sampler.GuidanceConfig(gamma=0.0)
        a = sampler.sample_batch(cond, uncond, 6, 1, sched, guided)
        b = sampler.sample_batch(cond, uncond, 6, 1, sched, naive)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_m(self):
        sched = sampler.make_schedule(n_steps=2)
        with pytest.raises(ValueError, match="m must be"):
            sampler.sample_batch(toy_conditional_stats(), toy_unconditional_stats(),
                                 0, 0, sched, sampler.GuidanceConfig())
        with pytest.raises(ValueError, match="m must be"):
            gmm.sample_batch(demo_mixture(), 0, 0, 0, sched, sampler.GuidanceConfig())


def _rule_draw(d, m, seed, std, shift):
    """The documented seeding rule, one generator per row."""
    return np.stack([shift + std * np.random.default_rng([seed, k]).standard_normal(d)
                     for k in range(m)])


class TestSeedingRule:
    """draw_initial_states reproduces default_rng([seed, k]) bit for bit."""

    SCHED = sampler.make_schedule(sigma_max=80.0, n_steps=4)

    @pytest.mark.parametrize("m", [1, 2, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
    def test_rows_match_default_rng(self, seed, m):
        d = 3
        shift = np.array([1.5, -2.0, 1e3])
        for init, std, mu in ((None, 80.0, np.zeros(d)),
                              (sampler.InitSpec(shift=shift, std=0.37), 0.37, shift),
                              (sampler.InitSpec(shift=shift, std=0.0), 0.0, shift)):
            x = sampler.draw_initial_states(d, m, seed, self.SCHED, init)
            np.testing.assert_array_equal(x, _rule_draw(d, m, seed, std, mu))

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**64 - 1), np.int32(2**31 - 1)])
    def test_numpy_integer_seeds_behave_like_ints(self, seed):
        x = sampler.draw_initial_states(4, 5, seed, self.SCHED)
        np.testing.assert_array_equal(x, sampler.draw_initial_states(4, 5, int(seed), self.SCHED))
        np.testing.assert_array_equal(x, _rule_draw(4, 5, seed, 80.0, np.zeros(4)))

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (np.int64(-3), ValueError),
                                             (-2**70, ValueError), (1.5, TypeError)])
    def test_rejects_seeds_default_rng_rejects(self, seed, error):
        with pytest.raises(error):
            np.random.default_rng([seed, 0])
        with pytest.raises(error):
            sampler.draw_initial_states(2, 3, seed, self.SCHED)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**200 - 1), m=st.integers(1, 64), d=st.integers(1, 5))
    def test_property_any_seed_and_batch(self, seed, m, d):
        np.testing.assert_array_equal(sampler.draw_initial_states(d, m, seed, self.SCHED),
                                      _rule_draw(d, m, seed, 80.0, np.zeros(d)))
