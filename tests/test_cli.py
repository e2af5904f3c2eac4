"""End-to-end tests of the command-line front end, run in-process."""

import json

import numpy as np
import pytest

from lincfg import denoiser, gmm, sampler, verify
from lincfg.cli import main
from lincfg.stats import (DataMatrix, load_data_matrix, load_stats,
                          save_data_matrix, save_stats)
from lincfg.synthetic import (demo_mixture, toy_conditional_stats,
                              toy_unconditional_stats)


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
        save_data_matrix(DataMatrix(rng.standard_normal((30, 3))), data)
        out = tmp_path / "fit.stats"
        assert main(["fit", str(data), str(out)]) == 0
        assert load_stats(out).d == 3

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv"), str(tmp_path / "o.stats")])
        assert code == 2
        assert "no such input" in capsys.readouterr().err

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

        # re-run from the manifest into a fresh directory: bit-identical samples
        out2 = tmp_path / "run2"
        assert main(["sample", "--config", str(out1 / "run_manifest.json"),
                     "--outdir", str(out2)]) == 0
        assert (out2 / "samples.bin").read_bytes() == samples1

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
        expect = sampler.integrate(cond, uncond, 3.0 * (cond.mean - uncond.mean),
                                   sampler.make_schedule(n_steps=8),
                                   sampler.GuidanceConfig(gamma=1.0))
        for row in load_data_matrix(out / "samples.bin").values:
            np.testing.assert_array_equal(row, expect)

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
        code = main(["sample", "--cond-stats", str(cond_path),
                     "--uncond-stats", str(uncond_path), "--gamma", "1e18",
                     "--steps", "3", "--m", "2", "--outdir", str(tmp_path / "d")])
        assert code == 4
        err = capsys.readouterr().err
        assert "divergence" in err and "step" in err

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

        # the manifest lists every key, the Gaussian-only ones at their defaults
        rerun = tmp_path / "rerun"
        assert main(["sample", "--config", str(out / "run_manifest.json"),
                     "--outdir", str(rerun)]) == 0
        assert (rerun / "samples.bin").read_bytes() == (out / "samples.bin").read_bytes()

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

    def test_export_shape_mismatch_exit_5(self, tmp_path, toy_files):
        cond_path, uncond_path = toy_files
        code = main(["export", "cpcs", "--cond", str(cond_path),
                     "--uncond", str(uncond_path), "--shape", "8x8x3",
                     "--outdir", str(tmp_path / "x")])
        assert code == 5

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
        save_data_matrix(DataMatrix(rng.standard_normal((40, 2))), samples)
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
        save_data_matrix(DataMatrix(data), tmp_path / "s.bin")
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

    def test_export_similarity_and_top_level_alias(self, tmp_path, toy_files, capsys):
        cond_path, uncond_path = toy_files
        out = tmp_path / "sim"
        assert main(["export", "similarity", "--stats", str(cond_path),
                     str(uncond_path), "--outdir", str(out)]) == 0
        assert (out / "similarity.csv").exists()
        assert (out / "similarity.svg").exists()
        csv_out = tmp_path / "alias.csv"
        assert main(["similarity", str(cond_path), str(uncond_path),
                     "--out-csv", str(csv_out)]) == 0
        assert csv_out.exists()
        assert "class similarity" in capsys.readouterr().out


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
