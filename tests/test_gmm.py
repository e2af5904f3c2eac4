import numpy as np
import pytest

from lincfg import denoiser, gmm, sampler
from lincfg.errors import FormatError
from lincfg.stats import GaussianStats, save_stats
from lincfg.synthetic import demo_mixture, random_mixture, random_stats


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
        with pytest.raises(ValueError, match="positive"):
            gmm.MixtureModel(components=(comp, comp), weights=np.array([1.0, 0.0]))

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
        with pytest.raises(ValueError):
            gmm.posterior_weights(two_component_1d(), np.array([0.0]), 0.0)


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

    def test_target_index_range(self):
        model = two_component_1d()
        with pytest.raises(IndexError):
            gmm.gmm_cfg_guidance(model, 2, np.array([0.0]), 1.0, 1.0)
        with pytest.raises(IndexError):
            gmm.gmm_cfg_guidance(model, -1, np.array([0.0]), 1.0, 1.0)


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


class TestManifest:
    def _write_components(self, tmp_path):
        rng = np.random.default_rng(14)
        paths = []
        for i in range(3):
            stats = random_stats(2, rng, label=f"c{i}")
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
        manifest.write_text(f"{paths[0]} notanumber\n")
        with pytest.raises(FormatError, match="weight"):
            gmm.load_mixture(manifest)

    def test_missing_column(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("only-a-path\n")
        with pytest.raises(FormatError):
            gmm.load_mixture(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("# nothing here\n")
        with pytest.raises(FormatError, match="no components"):
            gmm.load_mixture(manifest)
