import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincfg import analytic, denoiser, gmm, sampler
from lincfg.errors import DivergenceError, ShapeError
from lincfg.stats import GaussianStats
from lincfg.synthetic import (demo_mixture, random_stats_pair, toy_common_pair,
                              toy_conditional_stats, toy_unconditional_stats)
from lincfg.verify import trajectory_rel_error

G = sampler.GuidanceConfig
FULL_CFGS = {
    "full": G(gamma=2.0),
    "interval": G(gamma=2.0, active_interval=(0.5, 10.0)),
    "no_cond": G(gamma=3.0, enable_cond=False),
}
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
    """The drift as the sum of its decomposed terms."""
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
        dict(n_steps=0), dict(rho=0.5), dict(sigma_min=0.0),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            sampler.make_schedule(**kwargs)

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
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(gamma=-1.0)

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


class TestIntegrate:
    def test_mean_is_exact_fixed_point_unguided(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        sched = sampler.make_schedule(n_steps=20)
        final = sampler.integrate(cond, uncond, cond.mean, sched,
                                  sampler.GuidanceConfig(gamma=0.0))
        np.testing.assert_array_equal(final, cond.mean)

    def test_matches_closed_form_at_n400(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        rng = np.random.default_rng(36)
        x_T = rng.standard_normal((20, 2)) * 80.0
        sched = sampler.make_schedule(80.0, 0.002, 400, 7.0)
        got = sampler.integrate(cond, uncond, x_T, sched,
                                sampler.GuidanceConfig(gamma=0.0))
        ref = sampler.closed_form_unguided(cond, x_T, 80.0, 0.002)
        rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(x_T, axis=1)
        assert rel.max() < 1e-3

    def test_heun_beats_euler(self):
        cond = toy_conditional_stats()
        uncond = toy_unconditional_stats()
        rng = np.random.default_rng(37)
        x_T = rng.standard_normal((10, 2)) * 80.0
        sched = sampler.make_schedule(80.0, 0.002, 50, 7.0)
        cfg = sampler.GuidanceConfig(gamma=0.0)
        ref = sampler.closed_form_unguided(cond, x_T, 80.0, 0.002)
        err_euler = np.linalg.norm(
            sampler.integrate(cond, uncond, x_T, sched, cfg) - ref, axis=1).max()
        err_heun = np.linalg.norm(
            sampler.integrate(cond, uncond, x_T, sched, cfg, heun=True) - ref,
            axis=1).max()
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

    def test_divergence_guard_reports_step_and_sample(self):
        sched = sampler.make_schedule(10.0, 1.0, 4, 1.0)
        explode = lambda x, s: x * 1e9
        quiet = lambda x, s: np.zeros_like(x)
        with pytest.raises(DivergenceError) as exc:
            sampler.integrate_with_scores(explode, quiet, np.ones((3, 2)), sched,
                                          sampler.GuidanceConfig(gamma=0.0))
        assert exc.value.step == 0
        assert exc.value.sample == 0

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


class TestFullCfgPath:
    """Full CFG integrates (1 + gamma) s_c - gamma s_uc; ablations the CPC split."""

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

    def test_full_cfg_makes_no_cpc_decomposition(self, monkeypatch):
        calls = []
        real = sampler.posterior_cpcs
        monkeypatch.setattr(sampler, "posterior_cpcs",
                            lambda *a: calls.append(a) or real(*a))
        for cfg in [G(gamma=0.0), *FULL_CFGS.values()]:
            for heun in (False, True):
                self._run(8, cfg, heun)
        assert calls == []
        self._run(8, ABLATION_CFGS["pos"], False)
        assert len(calls) == 12

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(ABLATION_CFGS))
    def test_ablation_bit_identical_to_split_drift(self, name, heun):
        cfg = ABLATION_CFGS[name]
        cond, uncond, sched, x_T, got = self._run(8, cfg, heun)
        ref = sampler._drive(_split_drift(cond, uncond, cfg), x_T, sched, heun=heun)
        assert got.tobytes() == ref.tobytes()


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
        expect = sampler.integrate(cond, uncond, shift, sched, cfg)
        for row in batch:
            np.testing.assert_array_equal(row, expect)

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
