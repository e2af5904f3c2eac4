import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lincfg import denoiser, gmm, sampler
from lincfg.errors import FormatError
from lincfg.stats import GaussianStats, save_stats
from lincfg.synthetic import demo_mixture, random_mixture, random_stats
from lincfg.verify import trajectory_rel_error

G = sampler.GuidanceConfig
MIXTURE_CFGS = {
    "full": G(gamma=2.0),
    "interval": G(gamma=2.0, active_interval=(0.5, 10.0)),
    "no_cond": G(gamma=3.0, enable_cond=False),
}


def two_component_1d():
    comps = (GaussianStats(mean=[5.0], eigvecs=[[1.0]], eigvals=[1.0]),
             GaussianStats(mean=[-5.0], eigvecs=[[1.0]], eigvals=[1.0]))
    return gmm.MixtureModel(components=comps, weights=np.array([0.5, 0.5]))


class TestMixtureModel:
    def test_weights_must_sum_to_one(self):
        comp = random_stats(2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sum to 1"):
            gmm.MixtureModel(components=(comp, comp), weights=np.array([0.5, 0.6]))

    def test_weights_must_be_positive(self):
        comp = random_stats(2, np.random.default_rng(0))
        for weights in ([1.0, 0.0], [0.5, np.nan], [np.inf, 0.5]):
            with pytest.raises(ValueError, match="finite and positive"):
                gmm.MixtureModel(components=(comp, comp), weights=np.array(weights))

    def test_dimensions_must_match(self):
        rng = np.random.default_rng(0)
        with pytest.raises(Exception):
            gmm.MixtureModel(components=(random_stats(2, rng), random_stats(3, rng)),
                             weights=np.array([0.5, 0.5]))


class TestPosteriorWeights:
    def test_single_component(self):
        model = gmm.MixtureModel(components=(random_stats(3, np.random.default_rng(1)),),
                                 weights=np.array([1.0]))
        pw = gmm.posterior_weights(model, np.zeros(3), 1.0)
        np.testing.assert_array_equal(pw.w, [1.0])

    def test_identical_components_return_priors(self):
        comp = random_stats(2, np.random.default_rng(2))
        model = gmm.MixtureModel(components=(comp, comp, comp),
                                 weights=np.array([0.5, 0.3, 0.2]))
        pw = gmm.posterior_weights(model, np.array([3.0, -1.0]), 0.7)
        np.testing.assert_allclose(pw.w, [0.5, 0.3, 0.2], atol=1e-14)

    def test_symmetric_midpoint(self):
        pw = gmm.posterior_weights(two_component_1d(), np.array([0.0]), 1.0)
        np.testing.assert_allclose(pw.w, [0.5, 0.5], atol=1e-15)

    def test_log_ratio_matches_density_ratio(self):
        model = two_component_1d()
        sigma = 1.0
        pw = gmm.posterior_weights(model, np.array([5.0]), sigma)
        var = 1.0 + sigma**2
        expect = 0.5 * 100.0 / var  # log-density gap between the two clusters
        assert float(pw.log_w[0] - pw.log_w[1]) == pytest.approx(expect, rel=1e-12)

    def test_far_tail_underflows_to_exact_zero(self):
        pw = gmm.posterior_weights(two_component_1d(), np.array([2000.0]), 0.1)
        assert pw.w[1] == 0.0
        assert pw.w[0] == 1.0
        assert np.isfinite(pw.log_w).all()

    def test_weights_sum_to_one_extremes(self):
        model = random_mixture(2, 3, np.random.default_rng(3))
        X = np.array([[1.0, 1.0], [1e2, 1e2], [1e4, 1e4], [-0.7, 0.4]])
        for sigma in (1e-3, 1.0, 100.0):
            batch = gmm.posterior_weights(model, X, sigma)
            assert batch.w.shape == batch.log_w.shape == (4, 3)
            for x, w in zip(X, batch.w):
                pw = gmm.posterior_weights(model, x, sigma)
                assert abs(float(pw.w.sum()) - 1.0) < 1e-10
                assert np.all(np.isfinite(pw.w))
                np.testing.assert_allclose(w, pw.w, rtol=0.0, atol=1e-13)

    def test_sigma_domain(self):
        model, x = two_component_1d(), np.array([0.0])
        for sigma in (0.0, np.inf):
            for call in (gmm.posterior_weights, gmm.mixture_score, gmm.mixture_denoise,
                         lambda model, x, sigma: gmm.gmm_cfg_guidance(model, 0, x, sigma, 1.0)):
                with pytest.raises(ValueError, match="finite and positive"):
                    call(model, x, sigma)


class TestScoreAndDenoise:
    def test_k1_matches_single_gaussian(self):
        rng = np.random.default_rng(4)
        comp = random_stats(4, rng)
        model = gmm.MixtureModel(components=(comp,), weights=np.array([1.0]))
        for _ in range(5):
            x = rng.standard_normal(4) * 4.0
            sigma = float(rng.uniform(0.05, 20.0))
            np.testing.assert_allclose(gmm.mixture_score(model, x, sigma),
                                       denoiser.score(comp, x, sigma), atol=1e-12)
            np.testing.assert_allclose(gmm.mixture_denoise(model, x, sigma),
                                       denoiser.denoise(comp, x, sigma), atol=1e-12)

    def test_symmetric_model_zero_score_at_center(self):
        np.testing.assert_allclose(
            gmm.mixture_score(two_component_1d(), np.array([0.0]), 1.0), 0.0,
            atol=1e-15)

    def test_symmetric_midpoint_is_denoise_fixed_point(self):
        out = gmm.mixture_denoise(two_component_1d(), np.array([0.0]), 2.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_tweedie_identity(self):
        rng = np.random.default_rng(5)
        model = random_mixture(2, 3, rng)
        for _ in range(20):
            x = rng.standard_normal(2) * 5.0
            sigma = float(rng.uniform(0.05, 10.0))
            lhs = gmm.mixture_denoise(model, x, sigma)
            rhs = x + sigma**2 * gmm.mixture_score(model, x, sigma)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_score_matches_finite_differences(self):
        # oracle: central differences of the dense direct-summation density
        rng = np.random.default_rng(6)
        model = random_mixture(2, 3, rng)
        step = 1e-4

        def log_density(x):
            total = 0.0
            for w, comp in zip(model.weights, model.components):
                cov = comp.covariance() + 1.5**2 * np.eye(2)
                diff = x - comp.mean
                _, logdet = np.linalg.slogdet(cov)
                quad = diff @ np.linalg.solve(cov, diff)
                total += w * np.exp(-0.5 * (quad + logdet + 2 * np.log(2 * np.pi)))
            return np.log(total)

        for _ in range(6):
            x = rng.standard_normal(2) * 3.0
            got = gmm.mixture_score(model, x, 1.5)
            fd = np.array([
                (log_density(x + [step, 0]) - log_density(x - [step, 0])) / (2 * step),
                (log_density(x + [0, step]) - log_density(x - [0, step])) / (2 * step),
            ])
            np.testing.assert_allclose(got, fd, atol=1e-5)

    def test_batched_rows(self):
        rng = np.random.default_rng(7)
        model = random_mixture(2, 3, rng)
        X = rng.standard_normal((5, 2))
        batch = gmm.mixture_score(model, X, 0.9)
        rows = np.stack([gmm.mixture_score(model, x, 0.9) for x in X])
        np.testing.assert_allclose(batch, rows, atol=1e-13)


class TestGuidance:
    def test_k1_guidance_vanishes(self):
        comp = random_stats(3, np.random.default_rng(8))
        model = gmm.MixtureModel(components=(comp,), weights=np.array([1.0]))
        t = gmm.gmm_cfg_guidance(model, 0, np.ones(3), 1.0, 2.0)
        np.testing.assert_allclose(t.g_cpc_like, 0.0, atol=1e-14)
        np.testing.assert_array_equal(t.g_mean_like, 0.0)

    def test_identical_covariances_zero_cpc_term(self):
        rng = np.random.default_rng(9)
        base = random_stats(3, rng)
        comps = tuple(GaussianStats(mean=rng.standard_normal(3),
                                    eigvecs=base.eigvecs, eigvals=base.eigvals)
                      for _ in range(3))
        model = gmm.MixtureModel(components=comps, weights=np.full(3, 1 / 3))
        t = gmm.gmm_cfg_guidance(model, 1, rng.standard_normal(3), 0.8, 1.5)
        np.testing.assert_allclose(t.g_cpc_like, 0.0, atol=1e-13)

    @pytest.mark.parametrize("sigma", [1e-3, 0.3, 5.0, 80.0])
    def test_covariance_term_equals_per_component_shrinks(self, sigma):
        """g_cpc_like from the pass's projections is (gamma/sigma^2) (S~_c -
        sum_i w_i S~_i)(x - mu_c) with each S~ applied by denoiser.shrink."""
        rng = np.random.default_rng(12)
        model = random_mixture(8, 4, rng)
        spread = np.where(np.arange(16) % 2, 30.0, 1.0)[:, None]  # near and far states
        X = model.components[1].mean + spread * rng.standard_normal((16, 8))
        for target in range(model.k):
            tgt = model.components[target]
            t = gmm.gmm_cfg_guidance(model, target, X, sigma, 2.0)
            w = gmm.posterior_weights(model, X, sigma).w
            z = X - tgt.mean
            ref = denoiser.shrink(tgt, z, sigma)
            for i, comp in enumerate(model.components):
                ref -= w[:, i:i + 1] * denoiser.shrink(comp, z, sigma)
            ref *= 2.0 / sigma**2
            scale = 2.0 / sigma**2 * np.linalg.norm(z, axis=1, keepdims=True)
            assert np.max(np.abs(t.g_cpc_like - ref) / scale) <= 1e-13

    @pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            gmm.gmm_cfg_guidance(two_component_1d(), 0, np.array([0.0]), 1.0, gamma)

    def test_target_index_range(self):
        model = two_component_1d()
        with pytest.raises(IndexError):
            gmm.gmm_cfg_guidance(model, 2, np.array([0.0]), 1.0, 1.0)
        with pytest.raises(IndexError):
            gmm.gmm_cfg_guidance(model, -1, np.array([0.0]), 1.0, 1.0)
        with pytest.raises(IndexError):  # the target is checked before gamma and sigma
            gmm.gmm_cfg_guidance(model, 2, np.array([0.0]), -1.0, -1.0)
        for target in (2, -1):  # and before the start is read, even one of the wrong shape
            for x_T in (np.zeros((3, 1)), np.zeros((3, 5))):
                with pytest.raises(IndexError, match=f"target index {target} out of range"):
                    gmm.integrate(model, target, x_T, sampler.make_schedule(n_steps=2), G())


class TestMixtureSampling:
    def test_guidance_shifts_away_from_competing_clusters(self):
        # stronger guidance moves the batch further along the direction that
        # separates the target cluster from the rest
        model = demo_mixture()
        sched = sampler.make_schedule(n_steps=100)
        others = np.mean([model.components[i].mean for i in (1, 2)], axis=0)
        u = model.components[0].mean - others
        u /= np.linalg.norm(u)
        projections = []
        for gamma in (0.0, 1.0, 2.0):
            batch = gmm.sample_batch(model, 0, 200, 3, sched,
                                     sampler.GuidanceConfig(gamma=gamma))
            projections.append(float(np.mean(batch @ u)))
        assert projections[0] < projections[1] < projections[2]

    def test_deterministic(self):
        model = demo_mixture()
        sched = sampler.make_schedule(n_steps=20)
        cfg = sampler.GuidanceConfig(gamma=1.0)
        a = gmm.sample_batch(model, 1, 8, 11, sched, cfg)
        b = gmm.sample_batch(model, 1, 8, 11, sched, cfg)
        assert a.tobytes() == b.tobytes()

    def test_k1_matches_gaussian_sampler(self):
        rng = np.random.default_rng(12)
        comp = random_stats(3, rng)
        model = gmm.MixtureModel(components=(comp,), weights=np.array([1.0]))
        sched = sampler.make_schedule(n_steps=30)
        cfg = sampler.GuidanceConfig(gamma=1.5)
        a = gmm.sample_batch(model, 0, 6, 13, sched, cfg)
        b = sampler.sample_batch(comp, comp, 6, 13, sched, cfg)
        np.testing.assert_allclose(a, b, atol=1e-10)

    @staticmethod
    def _run_peak(model, m, heun, overwrite=True, n_steps=10):
        """(peak bytes a run of m states allocates, by tracemalloc's count of
        numpy's buffers, above the drawn x_T; x_T's bytes)."""
        sched = sampler.make_schedule(n_steps=n_steps)
        x_T = sampler.draw_initial_states(model.d, m, 3, sched)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = gmm.integrate(model, 0, x_T, sched, G(gamma=2.0), heun=heun,
                                overwrite_x=overwrite)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.shares_memory(out, x_T) == overwrite
        return peak, x_T.nbytes

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("m", [4096, 16384])
    def test_folded_run_holds_its_floor(self, m, heun, overwrite):
        """A folded run of m states in d = 32 toward one of K = 4 components
        steps one row block of 1024 rows at a time. With ``overwrite_x`` the
        states y = x - mu_t are stepped in x_T's buffer, and the floor is one
        (rows, Kd) work block of ROW_BLOCK_BYTES, 1 MiB, and the step's (rows,
        d) slope blocks, 0.25 MiB each: the drift's output, and for Heun z and
        k1 too, so 1.25 MiB with Euler and 1.75 MiB with Heun, whatever m is.
        The rest stays under one more slope block: the row block's (rows, K)
        weights and coefficients, the 1 + heun resolvent sets of K d^2 floats
        (32 KiB each) and the guard's m norms, which it reads once the slopes
        are gone. Without ``overwrite_x`` y is one more (m, d) block. The run
        makes no copy of the component bases."""
        d = 32
        assert sampler._row_blocks(m, 4 * d)[0] == slice(0, 1024)
        assert sampler.choose_path(m, d) == "compiled"
        model = random_mixture(d, 4, np.random.default_rng(3))
        peak, states = self._run_peak(model, m, heun, overwrite)
        slope = 1024 * d * 8
        floor = sampler.ROW_BLOCK_BYTES + (1 + 2 * heun) * slope + (0 if overwrite else states)
        assert peak < floor + slope, (peak / 2**20, floor / 2**20)

    @pytest.mark.parametrize("heun", [False, True])
    def test_folded_run_memory_does_not_grow_with_m(self, heun):
        """Above x_T, a folded run of 16384 states peaks within 5% of one of
        4096: every block it makes is a row block's, none is (m, d)."""
        model = random_mixture(32, 4, np.random.default_rng(3))
        small, large = (self._run_peak(model, m, heun)[0] for m in (4096, 16384))
        assert abs(large - small) <= 0.05 * small, (small, large)

    @pytest.mark.parametrize("heun", [False, True])
    def test_projected_run_makes_no_d2_copies(self, heun):
        """A projected run (m = 64 < d = 512, K = 4) reads each U_i from its
        component: above x_T it holds one (m, Kd) work block (1 MiB) and a
        few (m, d) blocks, under 3 work blocks in all. A stacked or
        transposed copy of the bases (K d^2 floats, 8 MiB) or a scaled copy
        of one U_i (2 MiB) would break that bound."""
        d, k, m = 512, 4, 64
        assert sampler.choose_path(m, d) == "stepwise"
        model = random_mixture(d, k, np.random.default_rng(3))
        peak, _ = self._run_peak(model, m, heun, n_steps=4)
        assert peak < 3 * m * k * d * 8, peak / 2**20

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("m", [24, 5])  # folded at m >= d = 8, projected below
    @pytest.mark.parametrize("cfg", list(MIXTURE_CFGS.values()), ids=list(MIXTURE_CFGS))
    def test_overwrite_x_gives_the_same_bytes_in_x_T(self, cfg, m, heun):
        model = random_mixture(8, 3, np.random.default_rng(14))
        sched = sampler.make_schedule(n_steps=12)
        x_T = sampler.draw_initial_states(model.d, m, 5, sched)
        drawn = x_T.copy()
        expect = gmm.integrate(model, 1, x_T, sched, cfg, heun=heun)
        assert x_T.tobytes() == drawn.tobytes()  # the default leaves x_T as it is
        got = gmm.integrate(model, 1, x_T, sched, cfg, heun=heun, overwrite_x=True)
        assert np.shares_memory(got, x_T)
        assert got.tobytes() == expect.tobytes() == x_T.tobytes()

    def test_the_model_is_left_as_built(self):
        """Every mixture path reads the components as they are: after folded
        and projected runs, Euler and Heun, and every diagnostic, the model
        holds its components and weights and nothing cached beside them."""
        model = random_mixture(8, 3, np.random.default_rng(15))
        sched = sampler.make_schedule(n_steps=6)
        assert [sampler.choose_path(m, 8) for m in (16, 4)] == ["compiled", "stepwise"]
        for m in (16, 4):
            x_T = sampler.draw_initial_states(model.d, m, 1, sched)
            for heun in (False, True):
                gmm.integrate(model, 0, x_T, sched, G(gamma=2.0), heun=heun)
        gmm.posterior_weights(model, x_T, 1.0)
        gmm.mixture_score(model, x_T, 1.0)
        gmm.mixture_denoise(model, x_T, 1.0)
        for target in range(model.k):
            gmm.gmm_cfg_guidance(model, target, x_T, 1.0, 2.0)
        assert set(vars(model)) == {"components", "weights"}


def _dense_parts(model, X, sigma):
    """From dense solves against Sigma_i + sigma^2 I, per component: the score
    (Sigma_i + sigma^2 I)^-1 (mu_i - X), the denoiser mu_i - Sigma_i times that
    score, and the prior-weighted log density; and the log-sum-exp weights."""
    scores, denoised, logp = [], [], []
    for comp, prior in zip(model.components, model.weights):
        a = comp.covariance() + sigma**2 * np.eye(model.d)
        r = comp.mean - X
        sol = np.linalg.solve(a, r.T).T
        scores.append(sol)
        denoised.append(comp.mean - sol @ comp.covariance())
        logp.append(np.log(prior) - 0.5 * (np.sum(r * sol, axis=1)
                                           + np.linalg.slogdet(a)[1]))
    logp = np.stack(logp, axis=1)
    w = np.exp(logp - logp.max(axis=1, keepdims=True))
    return scores, denoised, logp, w / w.sum(axis=1, keepdims=True)


def _dense_mixture_drift(model, target, cfg):
    """(1 + gamma) s_c - gamma s_mix from dense solves, with cond and interval gating."""
    def drift(x, sigma):
        scores, _, _, w = _dense_parts(model, x, sigma)
        s_c = scores[target]
        out = s_c if cfg.enable_cond else np.zeros_like(s_c)
        lo, hi = cfg.active_interval or (0.0, np.inf)
        if lo <= sigma <= hi:
            s_mix = sum(w[:, i:i + 1] * s for i, s in enumerate(scores))
            out = out + cfg.gamma * (s_c - s_mix)
        return out

    return drift


class TestDenseOracle:
    """Mixture sampling and its per-state functions against dense solves."""

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(MIXTURE_CFGS))
    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_sample_batch_matches_dense_solve_drift(self, d, name, heun):
        cfg = MIXTURE_CFGS[name]
        model = random_mixture(d, 3, np.random.default_rng(d))
        sched = sampler.make_schedule(n_steps=12)
        got = gmm.sample_batch(model, 1, 16, d, sched, cfg, heun=heun)
        x_T = sampler.draw_initial_states(d, 16, d, sched)
        ref = sampler._drive(_dense_mixture_drift(model, 1, cfg), x_T, sched, heun=heun)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12

    @pytest.mark.parametrize("sigma", [1e-3, 0.3, 5.0, 80.0])
    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_batched_functions_match_dense_solves(self, d, sigma):
        """Each row's errors, in units of the conditioning of its weights.

        The weights are a softmax of log densities of size L, which float64
        knows to about eps L; that moves w_i by about w_i (1 - w_i) eps L. So a
        row's weight errors are measured in units of
        kappa = max(1, L max_i w_i (1 - w_i)), and its score and denoiser
        errors in units of kappa max(1, max_i |part_i|). The guided drift of
        ``integrate``, in both forms, on the whole block (m >= d) and one row
        at a time (m = 1 < d), is a weighting of the scores: its errors are in
        the scores' units.
        """
        rng = np.random.default_rng(100 + d)
        model = random_mixture(d, 3, rng)
        X = np.concatenate([rng.standard_normal((8, d)) * scale
                            for scale in (1.0, 10.0, 1e2, 1e4)])
        scores, denoised, logp, w = _dense_parts(model, X, sigma)
        kappa = np.maximum(1.0, np.max(np.abs(logp), axis=1, keepdims=True)
                           * np.max(w * (1.0 - w), axis=1, keepdims=True))
        pw = gmm.posterior_weights(model, X, sigma)
        assert np.max(np.abs(pw.w - w) / kappa) <= 1e-12
        for got, parts in ((gmm.mixture_score(model, X, sigma), scores),
                           (gmm.mixture_denoise(model, X, sigma), denoised)):
            ref = sum(w[:, i:i + 1] * p for i, p in enumerate(parts))
            size = np.max([np.max(np.abs(p), axis=1) for p in parts], axis=0)[:, None]
            assert np.max(np.abs(got - ref) / (kappa * np.maximum(1.0, size))) <= 1e-12
        size = np.max([np.max(np.abs(s), axis=1) for s in scores], axis=0)[:, None]
        for cfg in MIXTURE_CFGS.values():
            for target in range(model.k):
                ref = _dense_mixture_drift(model, target, cfg)(X, sigma)
                for form in ("folded", "projected"):
                    for blocks in ([X], X[:, None]):
                        drift = gmm._guided_drift(model, target, cfg, form)
                        mu = model.components[target].mean
                        got = np.concatenate([drift(b - mu, sigma) for b in blocks])
                        err = np.max(np.abs(got - ref) / (kappa * np.maximum(1.0, size)))
                        assert err <= 1e-12, (cfg, target, form, len(blocks))


def far_mixture(d, rng):
    """Components 0 and 2 a few spreads apart and component 1 far from both:
    mid-run, block 1 drops out of every back-projection while 0 and 2 stay,
    and rows turn one-hot at different steps."""
    comps = []
    for shift in (0.0, 300.0, 20.0):
        s = random_stats(d, rng)
        comps.append(GaussianStats(mean=s.mean + shift, eigvecs=s.eigvecs, eigvals=s.eigvals))
    return gmm.MixtureModel(components=tuple(comps), weights=np.array([0.3, 0.3, 0.4]))


class TestFusedDrift:
    """Both forms of the guided drift, block skipping included, against dense solves."""

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(MIXTURE_CFGS))
    @pytest.mark.parametrize("target", [0, 2])
    @pytest.mark.parametrize("m", [3, 16])  # d = 4: projected below, folded at m >= d
    def test_block_skipping_matches_dense_solve_drift(self, monkeypatch, m, target, name, heun):
        cfg = MIXTURE_CFGS[name]
        model = far_mixture(4, np.random.default_rng(5))
        sched = sampler.make_schedule(n_steps=16)
        kept, packed = [], []

        def spy_coefficients(*args):
            coef = coefficients(*args)
            kept.append(np.abs(coef) >= gmm._TINY)
            return coef

        def spy_back_project(model, v, coef, scale, *out):
            packed.append(np.where(np.abs(coef) < gmm._TINY, 0.0, coef) != 0.0)
            return back_project(model, v, coef, scale, *out)

        coefficients, back_project = gmm._coefficients, gmm._back_project
        monkeypatch.setattr(gmm, "_coefficients", spy_coefficients)
        monkeypatch.setattr(gmm, "_back_project", spy_back_project)
        got = gmm.sample_batch(model, target, m, 3, sched, cfg, heun=heun)
        x_T = sampler.draw_initial_states(4, m, 3, sched)
        ref = sampler._drive(_dense_mixture_drift(model, target, cfg), x_T, sched, heun=heun)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12
        if sampler.choose_path(m, 4) == "stepwise":  # the projected form
            # block 1 was dropped between two kept blocks, so the kept ones were packed
            assert any(list(c.any(axis=0)) == [True, False, True] for c in packed)
            return
        assert not packed
        if name != "interval":  # the interval ends before any row is one-hot
            one_hot = [(c.sum(axis=1) <= 1).any() and (c.sum(axis=1) > 1).any()
                       for c in kept]
            assert any(one_hot), "no evaluation had both one-hot and mixed rows"

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(MIXTURE_CFGS))
    def test_single_component_matches_dense_solve_drift(self, name, heun):
        cfg = MIXTURE_CFGS[name]
        model = random_mixture(8, 1, np.random.default_rng(8))
        sched = sampler.make_schedule(n_steps=12)
        got = gmm.sample_batch(model, 0, 16, 8, sched, cfg, heun=heun)
        x_T = sampler.draw_initial_states(8, 16, 8, sched)
        ref = sampler._drive(_dense_mixture_drift(model, 0, cfg), x_T, sched, heun=heun)
        assert trajectory_rel_error(got, ref, x_T).max() <= 1e-12

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(MIXTURE_CFGS))
    def test_folded_drift_does_not_depend_on_row_blocks(self, monkeypatch, name, heun):
        """Folded runs of m = 1, rows - 1, rows, rows + 1 and 2 rows + 3
        states, streamed through row blocks of at most 6 rows, give the same
        bits as through one block, for every drift evaluation of an Euler
        and a Heun run. Every m is folded, m < d included."""
        d, k, rows = 8, 3, 6
        model = random_mixture(d, k, np.random.default_rng(4))
        sched = sampler.make_schedule(n_steps=12)
        monkeypatch.setattr(sampler, "choose_path", lambda m, d: "compiled")
        for m, n_blocks in ((1, 1), (rows - 1, 1), (rows, 1), (rows + 1, 2), (2 * rows + 3, 3)):
            x_T = sampler.draw_initial_states(d, m, m, sched)
            whole = gmm.integrate(model, 1, x_T, sched, MIXTURE_CFGS[name], heun=heun)
            with monkeypatch.context() as mp:
                mp.setattr(sampler, "ROW_BLOCK_BYTES", rows * 8 * k * d)
                blocks = sampler._row_blocks(m, k * d)
                assert len(blocks) == n_blocks and blocks[0].stop <= rows
                got = gmm.integrate(model, 1, x_T, sched, MIXTURE_CFGS[name], heun=heun)
            assert np.array_equal(got, whole), m

    @pytest.mark.parametrize("heun", [False, True])
    @pytest.mark.parametrize("name", sorted(MIXTURE_CFGS))
    def test_folded_run_builds_each_noise_level_once(self, monkeypatch, name, heun):
        """A folded run streamed through 4 row blocks builds the resolvents
        of each guided node once, in schedule order: N levels with Euler and
        N + 1 with Heun, whose steps share a node; the interval config only
        its guided ones. A rebuild per row block gives the same bits, so only
        a count sees it."""
        d, k, m, n_steps = 8, 3, 24, 12
        cfg = MIXTURE_CFGS[name]
        model = random_mixture(d, k, np.random.default_rng(4))
        sched = sampler.make_schedule(n_steps=n_steps)
        x_T = sampler.draw_initial_states(d, m, 2, sched)
        built = []

        def spy_resolvents(model, sigma, out):
            built.append(sigma)
            return resolvents(model, sigma, out)

        resolvents = gmm._resolvents
        monkeypatch.setattr(gmm, "_resolvents", spy_resolvents)
        monkeypatch.setattr(sampler, "ROW_BLOCK_BYTES", 6 * 8 * k * d)
        assert len(sampler._row_blocks(m, k * d)) == 4
        assert sampler.choose_path(m, d) == "compiled"
        gmm.integrate(model, 1, x_T, sched, cfg, heun=heun)
        guided = [float(s) for s in sched.sigmas[:n_steps + heun] if cfg.guidance_active(s)]
        assert built == guided
        if name == "interval":
            assert 0 < len(guided) < n_steps
        else:
            assert len(guided) == n_steps + heun

    @pytest.mark.parametrize("heun", [False, True])
    def test_offsets_are_formed_once_per_call_or_run(self, monkeypatch, heun):
        """The basis offsets (mu_i - mu_c) U_i are formed once per
        diagnostic call and once per projected run, however many steps it
        takes; a folded run, which reads the resolvents, never forms them."""
        d, k = 8, 3
        model = random_mixture(d, k, np.random.default_rng(4))
        sched = sampler.make_schedule(n_steps=12)
        centres = []

        def spy_offsets(model, centre):
            centres.append(centre)
            return offsets(model, centre)

        offsets = gmm._offsets
        monkeypatch.setattr(gmm, "_offsets", spy_offsets)
        X = np.random.default_rng(5).standard_normal((4, d))
        for call in (gmm.posterior_weights, gmm.mixture_score, gmm.mixture_denoise):
            call(model, X, 0.5)
            assert centres == [0]
            centres.clear()
        gmm.gmm_cfg_guidance(model, 2, X, 0.5, 2.0)
        assert centres == [2]
        centres.clear()
        for m, form, built in ((3, "stepwise", [1]), (2 * d, "compiled", [])):
            assert sampler.choose_path(m, d) == form
            x_T = sampler.draw_initial_states(d, m, 6, sched)
            gmm.integrate(model, 1, x_T, sched, MIXTURE_CFGS["full"], heun=heun)
            assert centres == built
            centres.clear()

    @pytest.mark.parametrize("form", ["folded", "projected"])
    @pytest.mark.parametrize("sigma", [0.1, 20.0])
    def test_unguided_drift_is_the_centred_target_score(self, form, sigma):
        """Outside the guidance interval the drift is, bit for bit,
        ``denoiser.score`` of the target with its mean set to 0, at y."""
        model = random_mixture(6, 3, np.random.default_rng(9))
        cfg = G(gamma=2.0, active_interval=(0.5, 10.0))
        assert not cfg.guidance_active(sigma)
        y = 3.0 * np.random.default_rng(10).standard_normal((7, 6))
        got = gmm._guided_drift(model, 1, cfg, form)(y, sigma)
        centred = replace(model.components[1], mean=np.zeros(6))
        assert np.array_equal(got, denoiser.score(centred, y, sigma))

    @pytest.mark.parametrize("form", ["folded", "projected"])
    def test_cond_off_drift_outside_the_interval_is_zero(self, form):
        """With the conditional score off and the guidance gated off, a
        drift evaluation is exactly 0, into a new block or into ``out``."""
        model = random_mixture(6, 3, np.random.default_rng(9))
        cfg = G(gamma=2.0, enable_cond=False, active_interval=(0.5, 10.0))
        y = 3.0 * np.random.default_rng(10).standard_normal((7, 6))
        drift = gmm._guided_drift(model, 1, cfg, form)
        for sigma in (0.1, 20.0):
            assert np.array_equal(drift(y, sigma), np.zeros_like(y))
            out = np.full_like(y, np.nan)
            assert drift(y, sigma, 0.5, out) is out and np.array_equal(out, np.zeros_like(y))

    @pytest.mark.parametrize("form", ["folded", "projected"])
    def test_subnormal_weight_never_reaches_the_back_projection(self, form):
        """At x = mu_0 with sigma = 1 the far component's weight is about
        exp(-721), subnormal; either form of the drift drops it and is exactly
        0 there, where the dense drift is -gamma w_1 s_1, itself subnormal."""
        comps = (GaussianStats(mean=[0.0, 0.0], eigvecs=np.eye(2), eigvals=[1.0, 1.0]),
                 GaussianStats(mean=[53.7, 0.0], eigvecs=np.eye(2), eigvals=[1.0, 1.0]))
        model = gmm.MixtureModel(components=comps, weights=np.array([0.5, 0.5]))
        X = np.array([[0.0, 0.0], [-0.5, 0.3], [-2.0, -1.0]])
        w1 = gmm.posterior_weights(model, X[0], 1.0).w[1]
        assert 0.0 < w1 < np.finfo(np.float64).tiny
        cfg = sampler.GuidanceConfig(gamma=2.0)
        got = gmm._guided_drift(model, 0, cfg, form)(X - comps[0].mean, 1.0)
        ref = _dense_mixture_drift(model, 0, cfg)(X, 1.0)
        assert np.all(got[0] == 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("sigma", [0.05, 1.0, 30.0])
    def test_batched_functions_on_far_clusters(self, sigma):
        model = far_mixture(4, np.random.default_rng(6))
        X = np.concatenate([model.components[i].mean + np.random.default_rng(i).standard_normal((5, 4))
                            for i in range(3)])
        scores, denoised, _, w = _dense_parts(model, X, sigma)
        for got, parts in ((gmm.mixture_score(model, X, sigma), scores),
                           (gmm.mixture_denoise(model, X, sigma), denoised)):
            ref = sum(w[:, i:i + 1] * p for i, p in enumerate(parts))
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-11 * np.max(np.abs(ref)))
        for target in range(3):
            terms = gmm.gmm_cfg_guidance(model, target, X, sigma, 2.0)
            ref = 2.0 * (denoised[target] - sum(w[:, i:i + 1] * p
                                                for i, p in enumerate(denoised))) / sigma**2
            np.testing.assert_allclose(terms.total(), ref, rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(ref)))


def _long_double_flow(model, target, x_T, sched, cfg, heun):
    """The mixture flow of ``_dense_mixture_drift`` stepped in x like the
    reference stepper sampler._drive, not like gmm.integrate's sampler._step
    on y = x - mu_target, all in long double: each score from the
    component's own eigenbasis, -U (U^T (x - mu) / (lam + sigma^2)), the
    weights by log-sum-exp."""
    ld = np.longdouble
    comps = [(c.mean.astype(ld), c.eigvecs.astype(ld), c.eigvals.astype(ld))
             for c in model.components]
    log_prior = np.log(model.weights.astype(ld))

    def drift(x, sigma):
        scores, logp = [], []
        for (mu, u, lam), lp in zip(comps, log_prior):
            y = (x - mu) @ u
            var = lam + sigma * sigma
            scores.append(-((y / var) @ u.T))
            logp.append(lp - 0.5 * (np.sum(y * y / var, axis=1) + np.sum(np.log(var))))
        logp = np.stack(logp, axis=1)
        w = np.exp(logp - logp.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        out = scores[target] if cfg.enable_cond else np.zeros_like(x)
        if cfg.guidance_active(float(sigma)):
            s_mix = sum(w[:, i:i + 1] * s for i, s in enumerate(scores))
            out = out + ld(cfg.gamma) * (scores[target] - s_mix)
        return out

    x, sig = x_T.astype(ld), sched.sigmas.astype(ld)
    for s0, s1 in zip(sig[:-1], sig[1:]):
        k0 = -s0 * drift(x, s0)
        x_next = x + (s1 - s0) * k0
        if heun:
            x_next = x + (s1 - s0) * ld(0.5) * (k0 - s1 * drift(x_next, s1))
        x = x_next
    return x


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="long double is no wider than float64 on this platform")
class TestCondOffRounding:
    """Without the cond term the guided mixture flow pushes states away from
    the other clusters and amplifies rounding by 1e2-1e4, so the eigenbasis
    pass and the split dense-solve drift end apart by far more than an ulp.
    Both are measured against the same flow in long double."""

    @pytest.mark.parametrize("heun", [False, True])
    def test_fused_flow_is_as_close_to_exact_as_rounding_allows(self, heun):
        cfg = sampler.GuidanceConfig(gamma=4.0, enable_cond=False)
        sched = sampler.make_schedule(n_steps=50)
        err, err_split, sens = [], [], []
        for seed in range(12):
            model = random_mixture(8, 3, np.random.default_rng(seed))
            x_T = sampler.draw_initial_states(8, 64, seed, sched)
            exact = _long_double_flow(model, 1, x_T, sched, cfg, heun)
            size = float(np.max(np.abs(exact)))
            got = gmm.integrate(model, 1, x_T, sched, cfg, heun=heun)
            split = sampler._drive(_dense_mixture_drift(model, 1, cfg), x_T, sched, heun=heun)
            err.append(float(np.max(np.abs(got - exact))) / size)
            err_split.append(float(np.max(np.abs(split - exact))) / size)
            # the flow's own 1-ulp sensitivity: x_T scaled by 1 +- 2^-52
            sens.append(max(float(np.max(np.abs(
                gmm.integrate(model, 1, x_T * (1.0 + e), sched, cfg, heun=heun) - got)))
                for e in (2.0**-52, -(2.0**-52))) / size)
        err, err_split, sens = map(np.array, (err, err_split, sens))
        assert np.all(err <= 8.0 * sens), (err / sens).round(2)
        # typically within the 1-ulp sensitivity, and no further from the
        # exact flow than the split drift
        assert np.exp(np.mean(np.log(err / sens))) <= 1.0
        assert np.exp(np.mean(np.log(err / err_split))) <= 1.0


def _long_double_cpc_like(model, target, X, sigma, gamma):
    """gamma sum_{i != t} w_i (R_i - R_t)(x - mu_t) all in long double, with
    the weights by log-sum-exp, and the off-target weight of each row."""
    ld = np.longdouble
    X, s2 = X.astype(ld), ld(sigma) ** 2
    z = X - model.components[target].mean.astype(ld)
    logp, rz = [], []
    for c, lp in zip(model.components, np.log(model.weights.astype(ld))):
        mu, u, var = c.mean.astype(ld), c.eigvecs.astype(ld), c.eigvals.astype(ld) + s2
        y = (X - mu) @ u
        logp.append(lp - 0.5 * (np.sum(y * y / var, axis=1) + np.sum(np.log(var))))
        rz.append(((z @ u) / var) @ u.T)
    logp = np.stack(logp, axis=1)
    w = np.exp(logp - logp.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    others = [i for i in range(model.k) if i != target]
    return (ld(gamma) * sum(w[:, i:i + 1] * (rz[i] - rz[target]) for i in others),
            w[:, others].sum(axis=1))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="long double is no wider than float64 on this platform")
@pytest.mark.parametrize("sigma", [1.0, 1e-1, 1e-2, 1e-3])
def test_cpc_like_term_matches_long_double(sigma):
    """g_cpc_like holds to each row's own size in rows close to one-hot, whose
    off-target weights here reach 1e-137. The target's coefficient is -sum_{i
    != t} w_i, never w_t - 1, which rounds to 0 there: (e_t - w) with the
    shrinkage factors missed by 9 at sigma=1 and 4e6 at 1e-3."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = random_mixture(8, 3, rng)
        spread = np.repeat([0.1, 0.3, 1.0, 3.0], 8)[:, None]
        for target in range(3):
            X = model.components[target].mean + spread * rng.standard_normal((32, 8))
            got = gmm.gmm_cfg_guidance(model, target, X, sigma, 2.0).g_cpc_like
            ref, off = _long_double_cpc_like(model, target, X, sigma, 2.0)
            assert off.min() > np.finfo(np.float64).tiny  # no row is one-hot in float64
            err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
            assert err.max() <= 1e-12, (seed, target)


class TestManifest:
    def _write_components(self, tmp_path):
        rng = np.random.default_rng(14)
        paths = []
        for i in range(3):
            stats = random_stats(2, rng)
            p = tmp_path / f"c{i}.stats"
            save_stats(stats, p)
            paths.append(p)
        return paths

    def test_round_trip(self, tmp_path):
        paths = self._write_components(tmp_path)
        manifest = tmp_path / "mixture.txt"
        manifest.write_text(
            "# demo mixture\n"
            f"{paths[0].name} 0.5\n"
            f"{paths[1].name} 0.25  # relative path\n"
            f"{paths[2]} 0.25\n")
        model = gmm.load_mixture(manifest)
        assert model.k == 3
        np.testing.assert_allclose(model.weights, [0.5, 0.25, 0.25])

    def test_bad_weight(self, tmp_path):
        paths = self._write_components(tmp_path)
        manifest = tmp_path / "bad.txt"
        for weights in (["notanumber"], ["0.5", "nan"], ["inf", "0.5"], ["0", "1"],
                        ["-1", "2"], ["0.5", "0.4"]):
            manifest.write_text("".join(f"{p} {w}\n" for p, w in zip(paths, weights)))
            with pytest.raises(FormatError, match=r"bad\.txt.*weight"):
                gmm.load_mixture(manifest)

    def test_missing_column(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("only-a-path\n")
        with pytest.raises(FormatError):
            gmm.load_mixture(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("# nothing here\n")
        with pytest.raises(FormatError,
                           match=r"empty\.txt: mixture components must number at least 1, got 0"):
            gmm.load_mixture(manifest)
