"""End-to-end tests of the command-line front end, run in-process."""

import json
import os
import platform
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import lincfg
from lincfg import cpca, denoiser, gmm, sampler, verify
from lincfg.cli import main
from lincfg.stats import (GaussianStats, load_data_matrix, load_stats, save_data_matrix,
                          save_stats)
from lincfg.synthetic import (demo_mixture, random_mixture, random_stats_pair,
                              toy_conditional_stats, toy_unconditional_stats)


def test_pyproject_version_is_the_package_version():
    """The manifest's version promises bit-identical samples; a bump must
    reach both places it is written."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lincfg.__version__


@pytest.fixture
def toy_files(tmp_path):
    cond = tmp_path / "cond.stats"
    uncond = tmp_path / "uncond.stats"
    save_stats(toy_conditional_stats(), cond)
    save_stats(toy_unconditional_stats(), uncond)
    return cond, uncond


@pytest.fixture
def mixture_file(tmp_path):
    model = demo_mixture()
    for i, comp in enumerate(model.components):
        save_stats(comp, tmp_path / f"comp{i}.stats")
    manifest = tmp_path / "mixture.txt"
    manifest.write_text("".join(
        f"comp{i}.stats {float(w)!r}\n" for i, w in enumerate(model.weights)))
    return model, manifest


class TestFit:
    def test_fit_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(80)
        data = tmp_path / "data.csv"
        lines = [",".join(f"{float(v)!r}" for v in row)
                 for row in rng.standard_normal((50, 2))]
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.stats"
        assert main(["fit", str(data), str(out)]) == 0
        stats = load_stats(out)
        assert stats.d == 2
        printed = capsys.readouterr().out
        assert "n=50" in printed and "top eigenvalues" in printed

    def test_fit_binary(self, tmp_path):
        rng = np.random.default_rng(81)
        data = tmp_path / "data.bin"
        save_data_matrix(rng.standard_normal((30, 3)), data)
        out = tmp_path / "fit.stats"
        assert main(["fit", str(data), str(out)]) == 0
        assert load_stats(out).d == 3

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv"), str(tmp_path / "o.stats")])
        assert code == 2
        assert "no such input" in capsys.readouterr().err

    def test_creates_parent_directories_of_output(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1.0,2.0\n3.0,5.0\n-1.0,0.5\n")
        out = tmp_path / "new" / "dir" / "out.stats"
        assert main(["fit", str(data), str(out)]) == 0
        assert load_stats(out).d == 2

    def test_malformed_header_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"LCFD1\x05\x00\x00\x00")  # truncated header
        code = main(["fit", str(bad), str(tmp_path / "o.stats")])
        assert code == 3
        assert "offset" in capsys.readouterr().err


class TestSample:
    def test_config_file_run_and_manifest_rerun(self, tmp_path, toy_files):
        cond, uncond = toy_files
        out1 = tmp_path / "run1"
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"cond_stats={cond}\n"
            f"uncond_stats={uncond}\n"
            "steps=10\nm=16\nseed=123\ngamma=1.0\n"
            f"outdir={out1}\n"
            "# trailing comment line\n")
        assert main(["sample", "--config", str(config)]) == 0
        samples1 = (out1 / "samples.bin").read_bytes()
        manifest = json.loads((out1 / "run_manifest.json").read_text())
        assert manifest["seed"] == 123
        assert manifest["version"] == lincfg.__version__
        assert manifest["environment"] == {
            "numpy": np.__version__, "python": platform.python_version(),
            "LCFG_THREADS": os.environ.get("LCFG_THREADS") or None}
        assert manifest["meta"]["sampler"] == "compiled"  # 16 states in d=2

        # re-run from the manifest into a fresh directory: bit-identical samples
        out2 = tmp_path / "run2"
        assert main(["sample", "--config", str(out1 / "run_manifest.json"),
                     "--outdir", str(out2)]) == 0
        assert (out2 / "samples.bin").read_bytes() == samples1

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_manifest_records_the_thread_cap(self, tmp_path, toy_files, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("LCFG_THREADS", raising=False)
        else:
            monkeypatch.setenv("LCFG_THREADS", threads)
        out = tmp_path / "o"
        assert main(["sample", "--cond-stats", str(toy_files[0]), "--uncond-stats",
                     str(toy_files[1]), "--steps", "4", "--m", "3", "--outdir", str(out)]) == 0
        environment = json.loads((out / "run_manifest.json").read_text())["environment"]
        assert set(environment) == {"numpy", "python", "LCFG_THREADS"}
        assert environment["LCFG_THREADS"] == threads

    @pytest.mark.parametrize("mode", ["gaussian", "mixture"])
    def test_out_of_memory_exit_1(self, tmp_path, toy_files, mixture_file, mode, capsys,
                                  monkeypatch):
        """A draw that cannot allocate is one error line and exit 1, with
        nothing written; numpy's allocation error is raised, never made."""
        def draw(*args, **kwargs):
            raise MemoryError("Unable to allocate 93.1 TiB for an array with shape "
                              "(100000000000, 128) and data type float64")

        monkeypatch.setattr(sampler, "draw_initial_states", draw)
        inputs = (["--mixture", str(mixture_file[1]), "--target", "1"] if mode == "mixture"
                  else ["--cond-stats", str(toy_files[0]), "--uncond-stats", str(toy_files[1])])
        out = tmp_path / "o"
        assert main(["sample", *inputs, "--steps", "4", "--m", "100000000000",
                     "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 93.1 TiB for an array with " \
                      "shape (100000000000, 128) and data type float64\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["gaussian", "mixture"])
    def test_manifest_phase_timings(self, tmp_path, toy_files, mixture_file, mode):
        inputs = (["--mixture", str(mixture_file[1]), "--target", "1"] if mode == "mixture"
                  else ["--cond-stats", str(toy_files[0]), "--uncond-stats", str(toy_files[1])])
        out = tmp_path / "o"
        assert main(["sample", *inputs, "--steps", "8", "--m", "6", "--gamma", "1",
                     "--outdir", str(out)]) == 0
        timings = json.loads((out / "run_manifest.json").read_text())["timings"]
        assert set(timings) == {"sample_seconds", "draw_seconds", "integrate_seconds",
                                "write_seconds"}
        assert all(isinstance(v, float) and v > 0 for v in timings.values())
        assert timings["sample_seconds"] == timings["draw_seconds"] + timings["integrate_seconds"]

    def test_flags_override_config(self, tmp_path, toy_files):
        cond, uncond = toy_files
        config = tmp_path / "exp.cfg"
        config.write_text(f"cond_stats={cond}\nuncond_stats={uncond}\n"
                          "steps=10\nm=4\nseed=1\n")
        out = tmp_path / "o"
        assert main(["sample", "--config", str(config), "--m", "7",
                     "--outdir", str(out)]) == 0
        assert load_data_matrix(out / "samples.bin").n == 7

    def test_gamma_zero_equals_naive_conditional(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        assert main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--gamma", "0",
                     "--steps", "12", "--m", "8", "--seed", "5",
                     "--outdir", str(out)]) == 0
        got = load_data_matrix(out / "samples.bin").values
        batch = sampler.sample_batch(
            toy_conditional_stats(), toy_unconditional_stats(), 8, 5,
            sampler.make_schedule(n_steps=12), sampler.GuidanceConfig(gamma=0.0))
        np.testing.assert_array_equal(got, batch)

    def test_gamma_zero_needs_no_uncond(self, tmp_path, toy_files):
        cond_path, _ = toy_files
        out = tmp_path / "o"
        assert main(["sample", "--cond-stats", str(cond_path), "--gamma", "0",
                     "--steps", "8", "--m", "2", "--outdir", str(out)]) == 0

    def test_component_ablation_flag(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out_ms = tmp_path / "ms"
        assert main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--gamma", "1",
                     "--components", "mean_shift", "--steps", "12", "--m", "6",
                     "--seed", "2", "--outdir", str(out_ms)]) == 0
        got = load_data_matrix(out_ms / "samples.bin").values
        cfg = sampler.GuidanceConfig(gamma=1.0, enable_pos_cpc=False,
                                     enable_neg_cpc=False, enable_mean_shift=True)
        batch = sampler.sample_batch(
            toy_conditional_stats(), toy_unconditional_stats(), 6, 2,
            sampler.make_schedule(n_steps=12), cfg)
        np.testing.assert_array_equal(got, batch)

    def test_interval_flag(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        assert main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--gamma", "2",
                     "--interval", "4:80", "--steps", "12", "--m", "4",
                     "--seed", "3", "--outdir", str(out)]) == 0
        got = load_data_matrix(out / "samples.bin").values
        cfg = sampler.GuidanceConfig(gamma=2.0, active_interval=(4.0, 80.0))
        batch = sampler.sample_batch(
            toy_conditional_stats(), toy_unconditional_stats(), 4, 3,
            sampler.make_schedule(n_steps=12), cfg)
        np.testing.assert_array_equal(got, batch)

    def test_mean_shifted_init(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        assert main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--gamma", "0",
                     "--init", "mean_shifted", "--init-gamma", "3",
                     "--init-sigma", "31.9", "--steps", "8", "--m", "4",
                     "--outdir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["init"] == "mean_shifted"

    def test_mean_shifted_init_with_zero_sigma_starts_at_the_shift(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        assert main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--gamma", "1",
                     "--init", "mean_shifted", "--init-gamma", "3",
                     "--init-sigma", "0", "--steps", "8", "--m", "3",
                     "--outdir", str(out)]) == 0
        cond, uncond = toy_conditional_stats(), toy_unconditional_stats()
        shift = 3.0 * (cond.mean - uncond.mean)
        sched, cfg = sampler.make_schedule(n_steps=8), sampler.GuidanceConfig(gamma=1.0)
        # choose_path compiles a batch of 3 and steps a lone state
        expect = sampler.integrate(cond, uncond, np.tile(shift, (3, 1)), sched, cfg)
        lone = sampler.integrate(cond, uncond, shift, sched, cfg)
        samples = load_data_matrix(out / "samples.bin").values
        assert samples.tobytes() == expect.tobytes()
        for row in samples:
            np.testing.assert_allclose(row, lone, rtol=1e-12, atol=1e-12)

    def test_overflowing_init_gamma_exit_3_before_the_draw(self, tmp_path, toy_files, capsys,
                                                            monkeypatch):
        """An init_gamma whose mean shift overflows is a format error naming
        it, raised while the run is built: no draw, no outdir, no warning."""
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        monkeypatch.setattr(sampler, "draw_initial_states", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sample", "--cond-stats", str(cond_path),
                         "--uncond-stats", str(uncond_path), "--init", "mean_shifted",
                         "--init-gamma", "1e308", "--steps", "4", "--m", "2",
                         "--outdir", str(out)])
        assert code == 3
        assert "'init_gamma'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exit_3(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("nonsense=1\n")
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"config": {"gamma": "1", "bogus_key": "1"}}))
        for path in (config, manifest):
            assert main(["sample", "--config", str(path)]) == 3

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "abc"), ("--steps", "2.5"), ("--m", "ten"), ("--seed", "1e3"),
        ("--sigma-max", "big"), ("--rho", "seven"), ("--init-sigma", "wide"),
        ("--interval", "a:b"), ("--interval", "1:2:3"), ("--freeze-cpc-at", "one"),
        ("--fixed-range", "0"), ("--ppm-count", "2.0"), ("--ppm-shape", "axb"),
        ("--gamma", "nan"), ("--init-sigma", "nan"), ("--interval", "0.3:inf"),
        ("--fixed-range", "nan:1"),
    ])
    def test_malformed_value_exit_3(self, tmp_path, toy_files, capsys, flag, value):
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        code = main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--steps", "4", "--m", "2",
                     "--outdir", str(out), flag, value])
        assert code == 3
        assert repr(flag[2:].replace("-", "_")) in capsys.readouterr().err
        assert not (out / "samples.bin").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "-1"), ("--interval", "5:0.3"), ("--steps", "0"), ("--m", "0"),
        ("--sigma-min", "100"), ("--rho", "0.5"), ("--init-sigma", "-1"),
        ("--init-gamma", "-1"), ("--freeze-cpc-at", "0"),
    ])
    def test_out_of_range_value_exit_3(self, tmp_path, toy_files, capsys, flag, value):
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        code = main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--steps", "4", "--m", "2",
                     "--outdir", str(out), flag, value])
        assert code == 3
        assert repr(flag[2:].replace("-", "_")) in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_exit_4(self, tmp_path, toy_files, capsys):
        cond_path, uncond_path = toy_files
        for m in (2, 1):
            code = main(["sample", "--cond-stats", str(cond_path),
                         "--uncond-stats", str(uncond_path), "--gamma", "1e18",
                         "--steps", "3", "--m", str(m), "--outdir", str(tmp_path / "d")])
            assert code == 4
            err = capsys.readouterr().err
            # the step, its sigma range and the sample (of a run of more than one) once each
            assert "divergence" in err
            assert err.count("step") == 1 and err.count("sigma") == 1 and err.count("->") == 1
            assert err.count("sample") == (m > 1)
            assert not (tmp_path / "d").exists()

    def test_compiled_run_divergence_exit_4(self, tmp_path):
        cond, uncond = random_stats_pair(4, np.random.default_rng(7))
        save_stats(cond, tmp_path / "c.stats")
        save_stats(uncond, tmp_path / "u.stats")
        argv = ["sample", "--cond-stats", str(tmp_path / "c.stats"),
                "--uncond-stats", str(tmp_path / "u.stats"), "--steps", "4", "--m", "32"]
        assert sampler.choose_path(32, 4) == "compiled"
        assert main(argv + ["--gamma", "1e6", "--outdir", str(tmp_path / "d")]) == 4
        assert not (tmp_path / "d" / "samples.bin").exists()
        assert main(argv + ["--gamma", "1", "--outdir", str(tmp_path / "ok")]) == 0

    @pytest.mark.parametrize("m, form", [(8, "folded"), (3, "projected")])
    def test_mixture_divergence_exit_4(self, tmp_path, capsys, m, form):
        """A mixture run steps inside x_T's buffer; one that diverges still
        exits 4 with the guard's one line and writes no samples."""
        model = random_mixture(4, 3, np.random.default_rng(7))
        for i, comp in enumerate(model.components):
            save_stats(comp, tmp_path / f"comp{i}.stats")
        manifest = tmp_path / "mixture.txt"
        manifest.write_text("".join(f"comp{i}.stats {float(w)!r}\n"
                                    for i, w in enumerate(model.weights)))
        assert ("folded" if sampler.choose_path(m, 4) == "compiled" else "projected") == form
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sample", "--mixture", str(manifest), "--target", "0",
                         "--gamma", "1e18", "--steps", "3", "--m", str(m), "--outdir", str(out)])
        assert code == 4
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error: numerical divergence: trajectory diverged at step ")
        assert err.count("step") == 1 and err.count("sigma") == 1 and err.count("->") == 1
        assert err.count("sample") == 1
        assert not out.exists()  # so no samples.bin

    def test_overflowing_run_prints_only_the_divergence_line(self, tmp_path, capsys):
        """With every sample at mu_c = mu_uc = 0, gamma = 1e30 overflows the
        folded map; the run exits 4 and stderr holds the guard's line alone,
        no numpy RuntimeWarning."""
        cond, uncond = (GaussianStats(mean=np.zeros(4), eigvecs=s.eigvecs, eigvals=s.eigvals)
                        for s in random_stats_pair(4, np.random.default_rng(7)))
        save_stats(cond, tmp_path / "c.stats")
        save_stats(uncond, tmp_path / "u.stats")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sample", "--cond-stats", str(tmp_path / "c.stats"),
                         "--uncond-stats", str(tmp_path / "u.stats"), "--init-sigma", "0",
                         "--gamma", "1e30", "--steps", "40", "--m", "32",
                         "--outdir", str(tmp_path / "d")])
        assert code == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: numerical divergence: trajectory diverged at step 11 ")
        assert line.endswith(", sample 0")

    def test_mixture_mode(self, tmp_path, mixture_file):
        model, manifest = mixture_file
        out = tmp_path / "o"
        assert main(["sample", "--mixture", str(manifest), "--target", "1",
                     "--gamma", "1", "--steps", "15", "--m", "5",
                     "--seed", "9", "--outdir", str(out)]) == 0
        got = load_data_matrix(out / "samples.bin").values
        batch = gmm.sample_batch(model, 1, 5, 9, sampler.make_schedule(n_steps=15),
                                 sampler.GuidanceConfig(gamma=1.0))
        np.testing.assert_array_equal(got, batch)
        meta = json.loads((out / "run_manifest.json").read_text())["meta"]
        assert (meta["sampler"], meta["mixture_form"]) == ("mixture", "folded")  # m = 5 >= d = 2

        # the manifest lists every key, the Gaussian-only ones at their defaults
        rerun = tmp_path / "rerun"
        assert main(["sample", "--config", str(out / "run_manifest.json"),
                     "--outdir", str(rerun)]) == 0
        assert (rerun / "samples.bin").read_bytes() == (out / "samples.bin").read_bytes()

        # one sample is below the folding threshold: the same flow, projected
        one = tmp_path / "one"
        assert main(["sample", "--mixture", str(manifest), "--target", "1", "--gamma", "1",
                     "--steps", "15", "--m", "1", "--seed", "9", "--outdir", str(one)]) == 0
        meta = json.loads((one / "run_manifest.json").read_text())["meta"]
        assert (meta["sampler"], meta["mixture_form"]) == ("mixture", "projected")
        np.testing.assert_allclose(load_data_matrix(one / "samples.bin").values, batch[:1],
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(batch)))

    @pytest.mark.parametrize("mixture,flag,value", [
        (True, "--cond-stats", "cond.stats"), (True, "--uncond-stats", "uncond.stats"),
        (True, "--components", "mean_shift"), (True, "--freeze-cpc-at", "5"),
        (True, "--init", "mean_shifted"), (True, "--init-gamma", "2"),
        (False, "--target", "1"),
    ])
    def test_key_foreign_to_mode_exit_3(self, tmp_path, toy_files, mixture_file,
                                        capsys, mixture, flag, value):
        cond_path, uncond_path = toy_files
        source = (["--mixture", str(mixture_file[1])] if mixture else
                  ["--cond-stats", str(cond_path), "--uncond-stats", str(uncond_path)])
        out = tmp_path / "o"
        code = main(["sample", *source, "--steps", "4", "--m", "2",
                     "--outdir", str(out), flag, value])
        assert code == 3
        assert repr(flag[2:].replace("-", "_")) in capsys.readouterr().err
        assert not (out / "samples.bin").exists()

    @pytest.mark.parametrize("mixture,extra,code,message", [
        (False, ["--ppm-shape", "3x3x1"], 5, "3x3x1"),
        (True, ["--ppm-shape", "3x3x1"], 5, "3x3x1"),
        (True, ["--target", "3"], 3, "'target'"),
        (True, ["--target", "5"], 3, "'target'"),
        (True, ["--target", "-1"], 3, "'target'"),
        (False, ["--cond-stats", "missing"], 2, "no such input"),
        (False, ["--uncond-stats", "missing"], 2, "no such input"),
        (True, ["--mixture", "missing"], 2, "no such input"),
    ])
    def test_bad_input_fails_before_outdir(self, tmp_path, toy_files, mixture_file, capsys,
                                           mixture, extra, code, message):
        cond_path, uncond_path = toy_files
        source = (["--mixture", str(mixture_file[1])] if mixture else
                  ["--cond-stats", str(cond_path), "--uncond-stats", str(uncond_path)])
        extra = [str(tmp_path / v) if v == "missing" else v for v in extra]
        out = tmp_path / "o"
        assert main(["sample", *source, "--steps", "4", "--m", "2",
                     "--outdir", str(out), *extra]) == code
        assert message in capsys.readouterr().err
        assert not (out / "samples.bin").exists()
        assert not out.exists()

    def test_ppm_output(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out = tmp_path / "o"
        assert main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--gamma", "0",
                     "--steps", "8", "--m", "3", "--ppm-shape", "1x2x1",
                     "--ppm-count", "2", "--outdir", str(out)]) == 0
        img = (out / "sample_00000.pgm").read_bytes()
        assert img.startswith(b"P5\n2 1\n255\n")


class TestVerifyCommand:
    def test_decomposition_suite_passes(self, capsys):
        assert main(["verify", "decomposition"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "FAIL" not in out

    def test_gmm_suite_passes(self, capsys):
        assert main(["verify", "gmm"]) == 0

    @pytest.mark.parametrize("suite", sorted(set(verify.SUITES) - {"decomposition", "gmm"}))
    def test_suite_passes(self, capsys, suite):
        assert main(["verify", suite]) == 0
        assert "FAIL" not in capsys.readouterr().out


    def test_failing_check_prints_its_name_and_exits_1(self, capsys, monkeypatch):
        fake = [verify.CheckResult("fake/ok", True, 0.0, 1.0),
                verify.CheckResult("fake/bad", False, 2.0, 1.0)]
        monkeypatch.setitem(verify.SUITES, "cpca", lambda: fake)
        assert main(["verify", "cpca"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] fake/bad" in out and "verify cpca: 1/2 checks passed" in out
        assert out.splitlines()[-1] == "failed: fake/bad"

    def test_run_suite_all_is_every_suite_in_order(self, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", {
            name: (lambda name=name: [verify.CheckResult(f"{name}/{i}", True, 0.0, 1.0)
                                      for i in range(2)])
            for name in ("b", "a", "c")})
        assert [r.name for r in verify.run_suite("all")] == ["b/0", "b/1", "a/0", "a/1",
                                                             "c/0", "c/1"]
        with pytest.raises(ValueError, match=r"unknown suite 'z'; choose from \['a', 'b', 'c'\]"):
            verify.run_suite("z")


class TestExport:
    def test_export_cpcs(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out = tmp_path / "exp"
        assert main(["export", "cpcs", "--cond", str(cond_path),
                     "--uncond", str(uncond_path), "--sigma", "1.0",
                     "--count", "1", "--shape", "1x2x1",
                     "--outdir", str(out)]) == 0
        assert (out / "pos_cpc_00.pgm").exists()
        assert (out / "neg_cpc_00.pgm").exists()
        table = (out / "cpc_eigenvalues.csv").read_text().splitlines()
        assert table[0] == "index,eigenvalue"
        assert float(table[1].split(",")[1]) == pytest.approx(10 / 11 - 3 / 4)

    @pytest.mark.parametrize("sigma", [1e-3, 1.0])
    def test_export_cpcs_at_sigma_matches_dense_solves(self, tmp_path, sigma):
        """On a pair that shares no basis, the exported eigenvalues are those
        of sigma^2 [(Sigma_uc + sigma^2)^-1 - (Sigma_c + sigma^2)^-1], to
        1e-13 of max|lambda|."""
        d = 16
        cond, uncond = random_stats_pair(d, np.random.default_rng(16))
        save_stats(cond, tmp_path / "c.stats")
        save_stats(uncond, tmp_path / "u.stats")
        out = tmp_path / "exp"
        assert main(["export", "cpcs", "--cond", str(tmp_path / "c.stats"),
                     "--uncond", str(tmp_path / "u.stats"), "--sigma", repr(sigma),
                     "--count", "1", "--shape", "4x4", "--outdir", str(out)]) == 0
        rows = (out / "cpc_eigenvalues.csv").read_text().splitlines()[1:]
        got = np.array([float(row.split(",")[1]) for row in rows])
        inv_uc, inv_c = (np.linalg.solve(s.covariance() + sigma**2 * np.eye(d), np.eye(d))
                         for s in (uncond, cond))
        contrast = sigma**2 * (inv_uc - inv_c)
        ref = np.linalg.eigvalsh(0.5 * (contrast + contrast.T))[::-1]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_export_shape_mismatch_exit_5(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        code = main(["export", "cpcs", "--cond", str(cond_path),
                     "--uncond", str(uncond_path), "--shape", "8x8x3",
                     "--outdir", str(tmp_path / "x")])
        assert code == 5
        assert not (tmp_path / "x").exists()

    def test_export_cpcs_negative_images_start_at_the_most_negative(self, tmp_path):
        from lincfg import cpca
        from lincfg.export import write_image
        from lincfg.synthetic import random_stats_pair
        cond, uncond = random_stats_pair(4, np.random.default_rng(3))
        spec = cpca.contrastive_components(cond.covariance(), uncond.covariance())
        assert spec.n_neg >= 2
        save_stats(cond, tmp_path / "c.stats")
        save_stats(uncond, tmp_path / "u.stats")
        write_image(tmp_path / "expect", spec.negative[1][:, -1], (2, 2, 1))
        for count in (1, 9):
            out = tmp_path / f"n{count}"
            assert main(["export", "cpcs", "--cond", str(tmp_path / "c.stats"),
                         "--uncond", str(tmp_path / "u.stats"), "--count", str(count),
                         "--shape", "2x2", "--outdir", str(out)]) == 0
            assert ((out / "neg_cpc_00.pgm").read_bytes()
                    == (tmp_path / "expect.pgm").read_bytes())

    def test_export_mean_shift_dir(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        out = tmp_path / "exp"
        assert main(["export", "mean_shift_dir", "--cond", str(cond_path),
                     "--uncond", str(uncond_path), "--shape", "1x2x1",
                     "--outdir", str(out)]) == 0
        # mu_c - mu_uc = (4,4): constant vector renders mid gray
        raw = (out / "mean_shift.pgm").read_bytes()
        assert raw.endswith(bytes([128, 128]))

    def test_export_mean_shift_dir_at_sigma(self, tmp_path):
        from lincfg.export import write_image
        from lincfg.synthetic import random_stats_pair
        cond, uncond = random_stats_pair(12, np.random.default_rng(83))
        save_stats(cond, tmp_path / "c.stats")
        save_stats(uncond, tmp_path / "u.stats")
        sigma, gamma = 1.7, 3.0
        out = tmp_path / "exp"
        assert main(["export", "mean_shift_dir", "--cond", str(tmp_path / "c.stats"),
                     "--uncond", str(tmp_path / "u.stats"), "--sigma", str(sigma),
                     "--shape", "3x4x1", "--outdir", str(out)]) == 0
        cfg = sampler.GuidanceConfig(gamma=gamma, enable_cond=False,
                                     enable_pos_cpc=False, enable_neg_cpc=False)
        t = sampler.guidance_terms(cond, uncond, np.zeros(12), sigma, cfg)
        write_image(tmp_path / "expect.pgm", t.g_mean * sigma**2 / gamma, (3, 4, 1))
        assert (out / "mean_shift.pgm").read_bytes() == (tmp_path / "expect.pgm").read_bytes()

    def test_export_histograms(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        samples = tmp_path / "samples.bin"
        rng = np.random.default_rng(82)
        save_data_matrix(rng.standard_normal((40, 2)), samples)
        out = tmp_path / "h"
        assert main(["export", "histograms", "--samples", str(samples),
                     "--cond", str(cond_path), "--uncond", str(uncond_path),
                     "--direction", "mean_shift", "--outdir", str(out)]) == 0
        assert (out / "hist_mean_shift.csv").exists()
        assert (out / "hist_mean_shift.svg").read_text().startswith("<svg")

    def test_export_histograms_mean_shift_at_sigma(self, tmp_path):
        from lincfg.export import histogram_csv
        from lincfg.metrics import project_histogram
        from lincfg.synthetic import random_stats_pair
        # a random pair: mu_c - mu_uc is no eigenvector of Sigma_uc, so the
        # gate at sigma turns the direction
        cond, uncond = random_stats_pair(6, np.random.default_rng(84))
        save_stats(cond, tmp_path / "c.stats")
        save_stats(uncond, tmp_path / "u.stats")
        data = np.random.default_rng(85).standard_normal((50, 6))
        save_data_matrix(data, tmp_path / "s.bin")
        csv = {}
        for sigma in (None, 0.8):
            out = tmp_path / f"h{sigma}"
            extra = [] if sigma is None else ["--sigma", str(sigma)]
            assert main(["export", "histograms", "--samples", str(tmp_path / "s.bin"),
                         "--cond", str(tmp_path / "c.stats"),
                         "--uncond", str(tmp_path / "u.stats"),
                         "--direction", "mean_shift", "--outdir", str(out), *extra]) == 0
            csv[sigma] = (out / "hist_mean_shift.csv").read_text()
            w = (cond.mean - uncond.mean if sigma is None
                 else denoiser.mean_shift(cond, uncond, sigma))
            expect = project_histogram(data, w / np.linalg.norm(w), cond.mean)
            assert csv[sigma] == histogram_csv(expect)
        assert csv[None] != csv[0.8]

    @pytest.mark.parametrize("direction,magnitude", [("pos_cpc:0", True), ("eigvec:0", False)])
    def test_export_histograms_along_a_basis_vector(self, tmp_path, direction, magnitude):
        """A CPC histogram defaults to |projection| and an eigenvector one to
        the signed projection; --magnitude and --signed override either."""
        from lincfg.export import histogram_csv
        from lincfg.metrics import project_histogram
        cond, uncond = random_stats_pair(6, np.random.default_rng(84))
        save_stats(cond, tmp_path / "c.stats")
        save_stats(uncond, tmp_path / "u.stats")
        data = np.random.default_rng(85).standard_normal((50, 6))
        save_data_matrix(data, tmp_path / "s.bin")
        v = (cpca.posterior_cpcs(cond, uncond, 1.0).positive[1][:, 0]
             if direction == "pos_cpc:0" else cond.eigvecs[:, 0])
        name = direction.replace(":", "_")
        for extra, mag in (([], magnitude), (["--magnitude"], True), (["--signed"], False)):
            out = tmp_path / f"h{len(extra)}{mag}"
            assert main(["export", "histograms", "--samples", str(tmp_path / "s.bin"),
                         "--cond", str(tmp_path / "c.stats"),
                         "--uncond", str(tmp_path / "u.stats"), "--direction", direction,
                         "--sigma", "1", "--outdir", str(out), *extra]) == 0
            expect = project_histogram(data, v, cond.mean, magnitude=mag)
            assert (out / f"hist_{name}.csv").read_text() == histogram_csv(expect)
            assert (out / f"hist_{name}.svg").read_text().startswith("<svg")

    def test_export_similarity_and_top_level_alias(self, tmp_path, toy_files, capsys):
        cond_path, uncond_path = toy_files
        out = tmp_path / "sim"
        assert main(["export", "similarity", "--stats", str(cond_path),
                     str(uncond_path), "--outdir", str(out)]) == 0
        assert (out / "similarity.csv").exists()
        assert (out / "similarity.svg").exists()
        assert "class similarity" in capsys.readouterr().out
        # the top-level alias is gone: an unknown command is a usage error
        assert main(["similarity", str(cond_path), str(uncond_path)]) == 3
        assert "invalid choice: 'similarity'" in capsys.readouterr().err

    def test_export_similarity_labels_read_back_unchanged(self, tmp_path):
        """Labels are stats-file stems: '&', '<', '>' and '"' are escaped in
        the SVG, and a comma or a quote is quoted in the CSV."""
        import csv
        import xml.etree.ElementTree as ET
        labels = ["a&b", "c,d", 'e<"f">']
        cond, uncond = random_stats_pair(3, np.random.default_rng(5))
        paths = [tmp_path / f"{name}.stats" for name in labels]
        for path, stats in zip(paths, (cond, uncond, cond)):
            save_stats(stats, path)
        out = tmp_path / "sim"
        assert main(["export", "similarity", "--stats", *map(str, paths),
                     "--outdir", str(out)]) == 0
        rows = list(csv.reader((out / "similarity.csv").read_text().splitlines()))
        assert rows[0] == ["", *labels] and [row[0] for row in rows[1:]] == labels
        assert all(len(row) == 4 for row in rows)
        svg = ET.parse(out / "similarity.svg").getroot()
        texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-2 * len(labels):] == [name for name in labels for _ in (0, 1)]


def test_gmm_demo(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["gmm-demo", "--out", str(out), "--m", "64", "--steps", "40",
                 "--gamma", "1.0"]) == 0
    printed = capsys.readouterr().out
    assert "variance ratio" in printed
    for name in ("toy_naive.bin", "toy_cfg.bin", "gmm_naive.bin",
                 "gmm_cfg.bin", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "toy" in summary and "mixture" in summary


# Every command fails the same way: a bad flag value or usage error exits 3, a
# missing or non-file input exits 2, a shape mismatch exits 5, and none of them
# leaves the output directory behind. {cond}, {uncond}, {samples}, {out} and
# {tmp} are filled in with paths under tmp_path.
_SAMPLE = ["sample", "--cond-stats", "{cond}", "--uncond-stats", "{uncond}",
           "--steps", "4", "--m", "2", "--outdir", "{out}"]
_PAIR = ["--cond", "{cond}", "--uncond", "{uncond}", "--outdir", "{out}"]
_HIST = ["export", "histograms", "--samples", "{samples}", *_PAIR]
# Mixture manifests over cond.stats and uncond.stats, written as {tmp}/w_NAME.txt,
# whose weights MixtureModel rejects.
_BAD_WEIGHTS = {"nan": ("0.5", "nan"), "inf": ("inf", "0.5"), "zero": ("0", "1"),
                "negative": ("-1", "2"), "sum": ("0.5", "0.4")}
_MIX = ["sample", "--steps", "4", "--m", "2", "--outdir", "{out}", "--mixture"]


@pytest.mark.parametrize("argv,code,message", [
    (_SAMPLE + ["--gamma", "nan"], 3, "'gamma'"),
    (_SAMPLE + ["--init-sigma", "nan"], 3, "'init_sigma'"),
    (_SAMPLE + ["--gamma", "inf"], 3, "'gamma'"),
    (_SAMPLE + ["--seed", "-1"], 3, "'seed'"),
    (_SAMPLE + ["--init-gamma", "4"], 3, "'init_gamma'"),
    (_SAMPLE + ["--ppm-shape", "2x1x1", "--ppm-count", "-1"], 3, "'ppm_count'"),
    # image keys with no ppm_shape would write no image
    (_SAMPLE + ["--ppm-count", "3", "--fixed-range", "0:1"], 3, "'ppm_count'"),
    (_SAMPLE + ["--fixed-range", "0:1"], 3, "'fixed_range'"),
    (_SAMPLE + ["--cond-stats", "{tmp}"], 2, "no such input: {tmp}"),
    (["sample", "--cond-stats", "{cond}", "--steps", "4", "--m", "2", "--outdir", "{out}"], 2,
     "no such input: uncond_stats required when gamma > 0"),
    (["sample", "--uncond-stats", "{uncond}", "--steps", "4", "--m", "2", "--outdir", "{out}"],
     2, "no such input: cond_stats not configured"),
    (_SAMPLE + ["--config", "{tmp}"], 2, "no such input: {tmp}"),
    (["fit", "{tmp}", "{out}/o.stats"], 2, "no such input: {tmp}"),
    (["export", "cpcs", *_PAIR, "--shape", "8x8x3"], 5, "8x8x3"),
    (["export", "cpcs", *_PAIR, "--shape", "1x2x2"], 3, "--shape"),
    (["export", "cpcs", *_PAIR, "--shape", "1x2", "--sigma", "abc"], 3, "--sigma"),
    (["export", "cpcs", *_PAIR, "--shape", "1x2", "--count", "-1"], 3, "--count"),
    (["export", "cpcs", *_PAIR], 3, "--shape"),
    (["export", "mean_shift_dir", *_PAIR, "--shape", "1x2", "--sigma", "0"], 3, "--sigma"),
    (["export", "mean_shift_dir", *_PAIR, "--shape", "1x2", "--sigma", "inf"], 3, "--sigma"),
    (["export", "mean_shift_dir", *_PAIR, "--shape", "1x2", "--fixed-range", "1:0"], 3,
     "--fixed-range"),
    (_HIST + ["--direction", "pos_cpc:-1"], 3, "--direction"),
    (_HIST + ["--direction", "eigvec:-2"], 3, "--direction"),
    (_HIST + ["--direction", "bogus:x"], 3, "--direction"),
    (_HIST + ["--direction", "mean_shift:1"], 3, "--direction"),
    (_HIST + ["--direction", "eigvec:9"], 5, "eigvec index 9"),
    (_HIST + ["--direction", "pos_cpc:1"], 5, "pos_cpc index 1"),
    (_HIST + ["--direction", "mean_shift", "--bins", "0"], 3, "--bins"),
    (["export", "similarity", "--stats", "{cond}", "{tmp}/missing.stats", "--outdir", "{out}"],
     2, "missing.stats"),
    (["gmm-demo", "--out", "{out}", "--m", "0"], 3, "--m"),
    # one sample has no variance to take a ratio of
    (["gmm-demo", "--out", "{out}", "--m", "1"], 3, "--m"),
    (["gmm-demo", "--out", "{out}", "--steps", "0"], 3, "--steps"),
    (["gmm-demo", "--out", "{out}", "--gamma", "-1"], 3, "--gamma"),
    (["gmm-demo", "--out", "{out}", "--m", "abc"], 3, "--m"),
    (["gmm-demo", "--out", "{out}", "--seed", "-1"], 3, "--seed"),
    ([], 3, "command"),
    (["verify", "bogus"], 3, "bogus"),
    *((_MIX + [f"{{tmp}}/w_{name}.txt"], 3, f"{{tmp}}/w_{name}.txt") for name in _BAD_WEIGHTS),
])
def test_failing_command_exit_code_and_no_outdir(tmp_path, toy_files, capsys, argv, code,
                                                 message):
    cond_path, uncond_path = toy_files
    save_data_matrix(np.random.default_rng(86).standard_normal((20, 2)), tmp_path / "s.bin")
    for name, weights in _BAD_WEIGHTS.items():
        (tmp_path / f"w_{name}.txt").write_text(
            "".join(f"{p.name} {w}\n" for p, w in zip(toy_files, weights)))
    paths = {"cond": cond_path, "uncond": uncond_path, "samples": tmp_path / "s.bin",
             "out": tmp_path / "o", "tmp": tmp_path}
    assert main([a.format(**paths) for a in argv]) == code
    assert message.format(**paths) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,text,message", [
    ("run.json", '{"config": {"gamma": ', "invalid JSON manifest"),
    ("run.json", '{"meta": {}}', "manifest has no 'config' object"),
    ("run.json", '{"config": ["gamma"]}', "manifest has no 'config' object"),
    ("run.cfg", "gamma=1\nsteps 4\n", "run.cfg:2: expected key=value, got 'steps 4'"),
])
def test_malformed_config_file_exit_3(tmp_path, toy_files, capsys, name, text, message):
    config = tmp_path / name
    config.write_text(text)
    out = tmp_path / "o"
    assert main(["sample", "--config", str(config), "--cond-stats", str(toy_files[0]),
                 "--uncond-stats", str(toy_files[1]), "--outdir", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_components_none_runs_the_conditional_score_alone(tmp_path, toy_files):
    """components=none keeps gamma but no guidance term: the samples are the
    gamma = 0 run's, bit for bit."""
    cond_path, uncond_path = toy_files
    out = tmp_path / "o"
    assert main(["sample", "--cond-stats", str(cond_path), "--uncond-stats", str(uncond_path),
                 "--components", "none", "--gamma", "3", "--steps", "6", "--m", "5",
                 "--seed", "4", "--outdir", str(out)]) == 0
    got = load_data_matrix(out / "samples.bin").values
    sched = sampler.make_schedule(n_steps=6)
    none = sampler.GuidanceConfig(gamma=3.0, enable_pos_cpc=False, enable_neg_cpc=False,
                                  enable_mean_shift=False)
    for cfg in (none, sampler.GuidanceConfig(gamma=0.0)):
        np.testing.assert_array_equal(got, sampler.sample_batch(
            toy_conditional_stats(), toy_unconditional_stats(), 5, 4, sched, cfg))


_BAD_HEADERS = {
    "stats_version": b"LCFG1" + struct.pack("<BI", 2, 2) + bytes(64),
    "stats_d0": b"LCFG1" + struct.pack("<BI", 1, 0),
    "data_n0": b"LCFD1" + struct.pack("<II", 0, 2),
    "data_d0": b"LCFD1" + struct.pack("<II", 3, 0),
}


@pytest.mark.parametrize("name,message", [
    ("stats_version", "unsupported stats version 2 at offset 5"),
    ("stats_d0", "invalid dimension 0 at offset 6"),
    ("data_n0", "invalid shape (0,2) at offset 5"),
    ("data_d0", "invalid shape (3,0) at offset 5"),
])
def test_bad_file_header_exit_3(tmp_path, toy_files, capsys, name, message):
    """A stats header that load_stats rejects fails ``sample``, and a data
    header that load_data_matrix rejects fails ``fit``, with exit 3."""
    path = tmp_path / name
    path.write_bytes(_BAD_HEADERS[name])
    out = tmp_path / "o"
    argv = (["sample", "--cond-stats", str(path), "--uncond-stats", str(toy_files[1]),
             "--outdir", str(out)] if name.startswith("stats")
            else ["fit", str(path), str(out / "fit.stats")])
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mixture_component_that_is_a_directory_exits_2(tmp_path, toy_files, capsys):
    """A manifest line naming a directory is a missing input, like a missing file."""
    (tmp_path / "adir").mkdir()
    manifest = tmp_path / "mixture.txt"
    manifest.write_text(f"{toy_files[0].name} 0.5\nadir 0.5\n")
    argv = [a.format(out=tmp_path / "o") for a in _MIX] + [str(manifest)]
    assert main(argv) == 2
    assert f"no such input: {tmp_path / 'adir'}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,path", [
    (["export", "similarity", "--stats", "{cond}", "{uncond}", "--outdir", "{afile}/x"],
     "{afile}/x"),
    (["sample", "--cond-stats", "{cond}", "--uncond-stats", "{uncond}", "--steps", "4",
      "--m", "2", "--outdir", "{afile}/x"], "{afile}/x"),
    (["fit", "{samples}", "{afile}/out.stats"], "{afile}/out.stats"),
])
def test_output_below_a_regular_file_exit_1(tmp_path, toy_files, capsys, argv, path):
    cond_path, uncond_path = toy_files
    save_data_matrix(np.random.default_rng(87).standard_normal((20, 2)), tmp_path / "s.bin")
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    paths = {"cond": cond_path, "uncond": uncond_path, "samples": tmp_path / "s.bin",
             "afile": afile}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert path.format(**paths) in err and "Traceback" not in err
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("argv", [
    ["sample", "--cond-stats", "{cond}", "--uncond-stats", "{uncond}", "--steps", "4",
     "--m", "3", "--ppm-shape", "1x2"],
    ["export", "cpcs", "--cond", "{cond}", "--uncond", "{uncond}", "--shape", "1x2"],
])
def test_fixed_range_with_negative_bound_as_separate_token(tmp_path, toy_files, argv):
    cond_path, uncond_path = toy_files
    argv = [a.format(cond=cond_path, uncond=uncond_path) for a in argv]
    images = []
    for name, spelling in (("sep", ["--fixed-range", "-1:1"]), ("eq", ["--fixed-range=-1:1"])):
        out = tmp_path / name
        assert main(argv + spelling + ["--outdir", str(out)]) == 0
        images.append({p.name: p.read_bytes() for p in sorted(out.glob("*.pgm"))})
    assert images[0] and images[0] == images[1]


def test_main_builds_its_parser_once_and_runs_the_command_by_name(tmp_path, toy_files,
                                                                   monkeypatch, capsys):
    """One process builds the argparse tree once, however many commands it
    runs, failed ones and --help included. Each command's function is looked
    up by name when it runs, so a ``cmd_*`` replaced on the module (as a
    tracer wraps ``cmd_sample``) is the one that runs."""
    from lincfg import cli
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()  # a parser from an earlier test would hide the count
    cond, uncond = map(str, toy_files)
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0\n3.0,5.0\n-1.0,0.5\n")
    out = str(tmp_path / "o")
    for argv, code in ((["fit", str(data), str(tmp_path / "fit.stats")], 0),
                       (["sample", "--cond-stats", cond, "--uncond-stats", uncond, "--m", "4",
                         "--steps", "3", "--outdir", out], 0),
                       (["verify", "decomposition"], 0),
                       (["export", "mean_shift_dir", "--cond", cond, "--uncond", uncond,
                         "--shape", "1x2", "--outdir", out], 0),
                       (["fit", str(tmp_path / "missing.csv"), out], 2),
                       (["sample", "--gamma", "nan"], 3)):
        assert main(argv) == code, argv
    with pytest.raises(SystemExit):
        main(["--help"])
    assert len(built) == 1
    ran = []
    monkeypatch.setattr(cli, "cmd_sample", lambda args: ran.append(args.m) or 0)
    assert main(["sample", "--m", "3"]) == 0 and ran == ["3"]
    assert len(built) == 1
    capsys.readouterr()
