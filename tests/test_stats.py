import os
import stat
import struct

import numpy as np
import pytest

from lincfg import gmm, sampler
from lincfg import stats as stats_mod
from lincfg.errors import DataError, FormatError, ShapeError
from lincfg.fileio import atomic_write_text
from lincfg.stats import (DATA_MAGIC, DataMatrix, GaussianStats, data_matrix_to_bytes,
                          estimate_gaussian_stats, load_data_csv, load_data_matrix, load_stats,
                          pool_stats, save_data_matrix, save_stats,
                          spectral_from_covariance, stats_to_bytes)
from lincfg.synthetic import random_mixture


def toy_cov():
    s = 1.0 / np.sqrt(2.0)
    U = np.array([[s, s], [s, -s]])
    return (U * np.array([10.0, 3.0])) @ U.T, U


class TestDataMatrix:
    def test_shape_properties(self):
        dm = DataMatrix(np.ones((4, 3)))
        assert (dm.n, dm.d) == (4, 3)

    def test_rejects_empty(self):
        with pytest.raises((DataError, Exception)):
            DataMatrix(np.empty((0, 2)))

    def test_rejects_nonfinite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(DataError):
            DataMatrix(bad)

    def test_values_read_only(self):
        dm = DataMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 7.0

    def test_read_only_input_is_kept_and_writable_input_copied(self, tmp_path, monkeypatch):
        frozen = np.frombuffer(np.arange(6.0).tobytes()).reshape(3, 2)
        assert np.shares_memory(DataMatrix(frozen).values, frozen)
        writable = np.arange(6.0).reshape(3, 2)
        assert not np.shares_memory(DataMatrix(writable).values, writable)
        # a loaded file is held once: the matrix is the payload as read
        read = []
        real = stats_mod._read_payload
        monkeypatch.setattr(stats_mod, "_read_payload", lambda *a: read.append(real(*a)) or read[0])
        save_data_matrix(writable, tmp_path / "x.lcfd")
        loaded = load_data_matrix(tmp_path / "x.lcfd").values
        assert np.shares_memory(loaded, read[0]) and np.array_equal(loaded, writable)
        parsed, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(loadtxt(*a, **k))
                            or parsed[0])
        (tmp_path / "x.csv").write_text("0,1\n2,3\n4,5\n")
        loaded = load_data_csv(tmp_path / "x.csv").values
        assert np.shares_memory(loaded, parsed[0]) and np.array_equal(loaded, writable)


class TestEstimate:
    def test_zero_variance_repeated_point(self):
        p = np.array([1.5, -2.0, 0.25])
        stats = estimate_gaussian_stats(DataMatrix(np.tile(p, (7, 1))))
        np.testing.assert_allclose(stats.mean, p)
        np.testing.assert_allclose(stats.eigvals, 0.0, atol=1e-14)

    def test_single_point_well_defined(self):
        stats = estimate_gaussian_stats(DataMatrix(np.array([[2.0, 3.0]])))
        np.testing.assert_allclose(stats.mean, [2.0, 3.0])
        np.testing.assert_allclose(stats.eigvals, 0.0)

    def test_two_point_hand_computation(self):
        # {(1,0), (-1,0)}: mu = 0, population cov = diag(1, 0)
        stats = estimate_gaussian_stats(DataMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]])))
        np.testing.assert_allclose(stats.mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(stats.eigvals, [1.0, 0.0], atol=1e-15)
        assert abs(abs(stats.eigvecs[0, 0]) - 1.0) < 1e-12

    def test_population_normalization(self):
        # 1/n, not 1/(n-1): two points at +-1 give variance exactly 1
        x = np.array([[1.0], [-1.0]])
        stats = estimate_gaussian_stats(DataMatrix(x))
        assert stats.eigvals[0] == pytest.approx(1.0, abs=1e-15)

    def test_toy_monte_carlo_recovery(self):
        cov, U = toy_cov()
        rng = np.random.default_rng(42)
        draws = rng.multivariate_normal(np.zeros(2), cov, size=10_000)
        stats = estimate_gaussian_stats(DataMatrix(draws))
        np.testing.assert_allclose(stats.eigvals, [10.0, 3.0], rtol=0.10)
        for i in range(2):
            cosang = abs(stats.eigvecs[:, i] @ U[:, i])
            assert np.degrees(np.arccos(min(cosang, 1.0))) < 5.0

    def test_reconstruction_matches_direct_covariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 8))
            x = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
            stats = estimate_gaussian_stats(DataMatrix(x))
            mu = x.mean(axis=0)
            direct = (x - mu).T @ (x - mu) / n
            tol = 1e-8 * max(1.0, float(np.max(np.abs(direct))))
            np.testing.assert_allclose(stats.covariance(), direct, atol=tol)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        a = estimate_gaussian_stats(DataMatrix(x))
        b = estimate_gaussian_stats(DataMatrix(x[rng.permutation(50)]))
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.eigvals, b.eigvals, atol=1e-12)
        np.testing.assert_allclose(a.eigvecs, b.eigvecs, atol=1e-8)

    def test_rank_property(self):
        rng = np.random.default_rng(3)
        d, k = 6, 3
        basis = np.linalg.qr(rng.standard_normal((d, k)))[0]
        offset = rng.standard_normal(d)
        x = offset + rng.standard_normal((200, k)) @ basis.T
        stats = estimate_gaussian_stats(DataMatrix(x))
        thresh = 1e-8 * stats.eigvals[0]
        assert int(np.sum(stats.eigvals > thresh)) == k

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 3))
        stats = estimate_gaussian_stats(DataMatrix(x))
        for col in stats.eigvecs.T:
            assert col[np.argmax(np.abs(col))] > 0


class TestGaussianStatsInvariants:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(DataError):
            GaussianStats(mean=np.zeros(2), eigvecs=np.ones((2, 2)),
                          eigvals=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_orthonormality_bound_is_1e_10(self, diagonal):
        """|U^T U - I| is held to 1e-10 on the diagonal (a column's norm) and
        off it (two columns' overlap), and the input is left as it was."""
        for dev, ok in ((5e-11, True), (2e-10, False)):
            U = np.eye(3)
            if diagonal:
                U[:, 0] *= np.sqrt(1.0 + dev)
            else:
                U[0, 1] = dev  # U^T U: dev off the diagonal, 1 + dev^2 on it
            kept = U.copy()
            make = lambda: GaussianStats(mean=np.zeros(3), eigvecs=U, eigvals=np.ones(3))
            if ok:
                make()
            else:
                with pytest.raises(DataError, match="orthonormal"):
                    make()
            np.testing.assert_array_equal(U, kept)

    def test_rejects_ascending_eigvals(self):
        with pytest.raises(DataError):
            GaussianStats(mean=np.zeros(2), eigvecs=np.eye(2),
                          eigvals=np.array([0.5, 1.0]))

    def test_rejects_negative_eigvals(self):
        with pytest.raises(DataError):
            GaussianStats(mean=np.zeros(2), eigvecs=np.eye(2),
                          eigvals=np.array([1.0, -0.1]))

    def test_spectral_from_covariance_clamps_roundoff(self):
        # slightly indefinite matrix from round-off must clamp, not raise
        cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-15]])
        stats = spectral_from_covariance(np.zeros(2), cov)
        assert np.all(stats.eigvals >= 0)


def _relaid(stats: GaussianStats, layout: str) -> GaussianStats:
    """stats rebuilt from a Fortran-ordered copy of its bases, or from a
    strided view of the same numbers in a wider Fortran-ordered buffer."""
    U = stats.eigvecs
    if layout == "fortran":
        U = np.asfortranarray(U)
    else:
        wide = np.zeros((2 * stats.d, 3 * stats.d), order="F")
        wide[::2, ::3] = U
        U = wide[::2, ::3]
    assert not U.flags.c_contiguous
    return GaussianStats(mean=stats.mean, eigvecs=U, eigvals=stats.eigvals)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_bases_are_stored_c_ordered(layout):
    """Bases handed over in any layout are stored C-ordered, so the mixture
    diagnostics, both forms of the mixture run and both Gaussian appliers
    give the bits of the C-ordered build."""
    d, k = 64, 3
    model = random_mixture(d, k, np.random.default_rng(3))
    comps = tuple(_relaid(c, layout) for c in model.components)
    assert all(c.eigvecs.flags.c_contiguous for c in comps)
    relaid = gmm.MixtureModel(components=comps, weights=model.weights)
    X = 3.0 * np.random.default_rng(4).standard_normal((5, d))
    for sigma in (0.01, 1.0):
        for f in (gmm.mixture_score, gmm.mixture_denoise):
            assert np.array_equal(f(relaid, X, sigma), f(model, X, sigma))
        assert np.array_equal(gmm.posterior_weights(relaid, X, sigma).log_w,
                              gmm.posterior_weights(model, X, sigma).log_w)
        for target in range(k):
            got = gmm.gmm_cfg_guidance(relaid, target, X, sigma, 2.0)
            ref = gmm.gmm_cfg_guidance(model, target, X, sigma, 2.0)
            assert np.array_equal(got.g_cpc_like, ref.g_cpc_like)
            assert np.array_equal(got.g_mean_like, ref.g_mean_like)
    sched = sampler.make_schedule(n_steps=8)
    cfg = sampler.GuidanceConfig(gamma=2.0)
    for m, path in ((5, "stepwise"), (d, "compiled")):  # projected, then folded
        assert sampler.choose_path(m, d) == path
        x_T = sampler.draw_initial_states(d, m, 5, sched)
        assert np.array_equal(gmm.integrate(relaid, 1, x_T, sched, cfg),
                              gmm.integrate(model, 1, x_T, sched, cfg))
        assert np.array_equal(sampler.integrate(*comps[:2], x_T, sched, cfg),
                              sampler.integrate(*model.components[:2], x_T, sched, cfg))


class TestStatsFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4))
        stats = estimate_gaussian_stats(DataMatrix(x))
        path = tmp_path / "a.stats"
        save_stats(stats, path)
        loaded = load_stats(path)
        assert loaded.mean.tobytes() == stats.mean.tobytes()
        assert loaded.eigvals.tobytes() == stats.eigvals.tobytes()
        assert loaded.eigvecs.tobytes() == stats.eigvecs.tobytes()
        save_stats(loaded, tmp_path / "b.stats")
        assert (tmp_path / "a.stats").read_bytes() == (tmp_path / "b.stats").read_bytes()

    def test_byte_layout_d2(self, tmp_path):
        stats = estimate_gaussian_stats(DataMatrix(np.eye(2)))
        raw = stats_to_bytes(stats)
        # magic(5) + version(1) + u32 d(4) + (2 + 2 + 4) float64
        assert len(raw) == 5 + 1 + 4 + 8 * (2 + 2 + 4)
        assert raw[:5] == b"LCFG1"
        assert raw[5] == 1

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.stats"
        path.write_bytes(b"XXXXX" + bytes(69))
        with pytest.raises(FormatError, match="magic"):
            load_stats(path)

    def test_truncated_names_offset(self, tmp_path):
        stats = estimate_gaussian_stats(DataMatrix(np.eye(2)))
        raw = stats_to_bytes(stats)
        path = tmp_path / "trunc.stats"
        path.write_bytes(raw[:20])
        with pytest.raises(FormatError, match="offset"):
            load_stats(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        stats = estimate_gaussian_stats(DataMatrix(np.eye(2)))
        path = tmp_path / "extra.stats"
        path.write_bytes(stats_to_bytes(stats) + b"\x00")
        with pytest.raises(FormatError):
            load_stats(path)


    def test_oversized_header_fails_before_reading(self, tmp_path):
        path = tmp_path / "huge.stats"
        path.write_bytes(b"LCFG1" + struct.pack("<BI", 1, 4096) + bytes(64))
        with pytest.raises(FormatError, match="134283264.*offset 10.*64"):
            load_stats(path)


class TestDataFiles:
    def test_binary_round_trip(self, tmp_path):
        values = np.random.default_rng(6).standard_normal((12, 3))
        path = tmp_path / "d.bin"
        save_data_matrix(values, path)
        back = load_data_matrix(path)
        assert back.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("layout", ["c", "fortran", "sliced"])
    def test_file_image_equals_header_plus_payload(self, layout):
        values = np.random.default_rng(7).standard_normal((9, 6))
        values = {"c": values, "fortran": np.asfortranarray(values),
                  "sliced": values[1::2, ::-2]}[layout]
        expect = (struct.pack("<5sII", DATA_MAGIC, *values.shape)
                  + np.ascontiguousarray(values, dtype="<f8").tobytes())
        assert bytes(data_matrix_to_bytes(values)) == expect

    @pytest.mark.parametrize("layout", ["c", "fortran", "sliced"])
    def test_saved_file_equals_file_image(self, tmp_path, layout):
        values = np.random.default_rng(8).standard_normal((7, 5))
        values = {"c": values, "fortran": np.asfortranarray(values),
                  "sliced": values[::-2, 1::2]}[layout]
        save_data_matrix(values, tmp_path / "d.bin")
        assert (tmp_path / "d.bin").read_bytes() == bytes(data_matrix_to_bytes(values))

    def test_save_neither_copies_nor_writes_bad_values(self, tmp_path, monkeypatch):
        """A C-order float64 block goes to the file as its own buffer; a
        block that is not 2-D, is empty or is not finite fails before any
        file is made."""
        values = np.random.default_rng(9).standard_normal((4, 3))
        parts = []
        monkeypatch.setattr(stats_mod, "atomic_write_bytes", lambda path, *p: parts.extend(p))
        save_data_matrix(values, tmp_path / "d.bin")
        assert np.shares_memory(np.frombuffer(parts[1], "<f8"), values)
        monkeypatch.undo()
        for bad, err in ((values[0], ShapeError), (np.empty((0, 3)), DataError),
                         (np.where(values > 1.0, np.nan, values), DataError),
                         (np.where(values > 1.0, -np.inf, values), DataError)):
            with pytest.raises(err):
                save_data_matrix(bad, tmp_path / "bad.bin")
        assert not (tmp_path / "bad.bin").exists()

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        """A part that cannot be written re-raises, leaves the old file as it
        was and removes the temporary file it was written through."""
        from lincfg.fileio import atomic_write_bytes
        path = tmp_path / "d.bin"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, b"new", object())
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["d.bin"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_written_files_keep_the_umask(self, tmp_path, umask, mode):
        """A stats file, a data matrix and a text file are each made with the
        mode open(path, "wb") gives a new file: 0o666 less the umask."""
        old = os.umask(umask)
        try:
            save_stats(spectral_from_covariance(np.zeros(2), toy_cov()[0]), tmp_path / "s.stats")
            save_data_matrix(np.ones((2, 3)), tmp_path / "d.bin")
            atomic_write_text(tmp_path / "m.json", "{}")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"s.stats": mode, "d.bin": mode, "m.json": mode}

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"NOPE!" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            load_data_matrix(path)

    def test_binary_oversized_header_fails_before_reading(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(b"LCFD1" + struct.pack("<II", 4096, 4096) + bytes(64))
        with pytest.raises(FormatError, match="134217728.*offset 13.*64"):
            load_data_matrix(path)

    def test_binary_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        save_data_matrix(np.ones((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="offset 13"):
            load_data_matrix(path)

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        dm = load_data_csv(path)
        np.testing.assert_allclose(dm.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,two\n")
        with pytest.raises(FormatError):
            load_data_csv(path)


def test_pool_stats_moment_matching():
    a = GaussianStats(mean=np.array([1.0, 0.0]), eigvecs=np.eye(2),
                      eigvals=np.array([2.0, 1.0]))
    b = GaussianStats(mean=np.array([-1.0, 0.0]), eigvecs=np.eye(2),
                      eigvals=np.array([2.0, 1.0]))
    pooled = pool_stats([a, b])
    np.testing.assert_allclose(pooled.mean, [0.0, 0.0], atol=1e-15)
    # mixture covariance: within-cov + between-means spread diag(1, 0)
    np.testing.assert_allclose(pooled.covariance(), np.diag([3.0, 1.0]), atol=1e-12)
