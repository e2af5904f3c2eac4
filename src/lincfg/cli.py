"""Command-line front end.

Commands: fit, sample, verify, export, similarity, gmm-demo. Experiment
configuration is a flat key=value text file; CLI flags override file values.
A run manifest (JSON) written next to the samples makes every sampling run
reproducible: pass the manifest back as --config to regenerate bit-identical
sample files.

Exit codes: 0 ok, 1 verification/other failure, 2 missing input,
3 format error, 4 numerical divergence, 5 shape error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import analytic, cpca, denoiser, gmm, metrics, sampler, synthetic, verify
from .errors import DataError, DivergenceError, FormatError, QuadratureError, ShapeError
from .export import (heatmap_svg, histogram_csv, histogram_svg, matrix_csv,
                     parse_shape, write_image)
from .fileio import atomic_write_bytes, atomic_write_text
from .metrics import project_histogram
from .stats import (DataMatrix, data_matrix_to_bytes, estimate_gaussian_stats,
                    load_data_any, load_data_matrix, load_stats, save_stats)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_MISSING_INPUT = 2
EXIT_FORMAT = 3
EXIT_DIVERGENCE = 4
EXIT_SHAPE = 5

GUIDANCE_COMPONENT_NAMES = ("pos_cpc", "neg_cpc", "mean_shift")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _float_pair(text: str) -> tuple[float, float]:
    lo, hi = (float(p) for p in text.split(":"))
    return lo, hi


def _optional(parse):
    """parse, except that an empty value means None."""
    return lambda text: parse(text) if text else None


def _parse_init(text: str) -> str:
    mode = text.strip().lower()
    if mode not in ("zero", "mean_shifted"):
        raise ValueError(mode)
    return mode


def _parse_components(text: str) -> set[str]:
    low = text.strip().lower()
    if low in ("all", ""):
        return set(GUIDANCE_COMPONENT_NAMES)
    if low == "none":
        return set()
    parts = {p.strip() for p in low.split(",") if p.strip()}
    unknown = parts - set(GUIDANCE_COMPONENT_NAMES)
    if unknown:
        raise FormatError(f"unknown guidance components {sorted(unknown)}; "
                          f"choose from {GUIDANCE_COMPONENT_NAMES}")
    return parts


# The sample-config schema: key -> (default text, parser of the text).
CONFIG_KEYS: dict[str, tuple] = {
    "cond_stats": ("", str),
    "uncond_stats": ("", str),
    "mixture": ("", str),
    "target": ("0", int),
    "sigma_max": (str(sampler.DEFAULT_SIGMA_MAX), float),
    "sigma_min": (str(sampler.DEFAULT_SIGMA_MIN), float),
    "steps": (str(sampler.DEFAULT_STEPS), int),
    "rho": (str(sampler.DEFAULT_RHO), float),
    "gamma": (str(sampler.DEFAULT_GAMMA), float),
    "components": ("all", _parse_components),
    "cond": ("true", _parse_bool),
    "interval": ("none", lambda text: None if text.lower() in ("", "none")
                 else _float_pair(text)),
    "freeze_cpc_at": ("", _optional(float)),
    "heun": ("false", _parse_bool),
    "m": ("64", int),
    "seed": ("0", int),
    "init": ("zero", _parse_init),
    "init_gamma": ("0", float),
    "init_sigma": ("", _optional(float)),
    "outdir": ("out", Path),
    "ppm_shape": ("", _optional(parse_shape)),
    "ppm_count": ("0", int),
    "fixed_range": ("", _optional(_float_pair)),
}

# Keys that apply to one sampling mode only; setting them in the other is an error.
GAUSSIAN_ONLY_KEYS = ("cond_stats", "uncond_stats", "components", "freeze_cpc_at",
                      "init", "init_gamma")
MIXTURE_ONLY_KEYS = ("target",)


def _parse(key: str, text: str):
    """The typed value of one config key; a malformed value is a format error."""
    try:
        return CONFIG_KEYS[key][1](text)
    except ValueError:
        raise FormatError(f"malformed {key!r} value {text!r}") from None


def _fixed_range(text: str | None) -> tuple[float, float] | None:
    return _parse("fixed_range", text or "")


def parse_config(resolved: dict[str, str]) -> dict:
    """Typed values of a resolved config, with keys foreign to its mode rejected.

    A key counts as set when its value differs from its default's, so a run
    manifest, which lists every key, re-runs in either mode.
    """
    config = {key: _parse(key, resolved[key]) for key in CONFIG_KEYS}
    mixture = bool(config["mixture"])
    foreign = GAUSSIAN_ONLY_KEYS if mixture else MIXTURE_ONLY_KEYS
    for key in foreign:
        if config[key] != _parse(key, CONFIG_KEYS[key][0]):
            raise FormatError(f"config key {key!r} does not apply to "
                              f"{'mixture' if mixture else 'Gaussian'} runs")
    return config


def parse_config_file(path: Path) -> dict[str, str]:
    """Read a flat key=value config, or the 'config' block of a run manifest."""
    if not path.exists():
        raise FileNotFoundError(path)
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON manifest: {exc}") from exc
        config = manifest.get("config")
        if not isinstance(config, dict):
            raise FormatError(f"{path}: manifest has no 'config' object")
        unknown = sorted(str(k) for k in config if str(k) not in CONFIG_KEYS)
        if unknown:
            raise FormatError(f"{path}: unknown config keys {unknown}")
        return {str(k): str(v) for k, v in config.items()}
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def resolve_config(path: Path | None, overrides: dict[str, str]) -> dict[str, str]:
    config = {key: default for key, (default, _) in CONFIG_KEYS.items()}
    if path is not None:
        config.update(parse_config_file(path))
    for key, value in overrides.items():
        if value is not None:
            config[key] = str(value)
    return config


def _require_file(path_text: str, what: str) -> Path:
    if not path_text:
        raise FileNotFoundError(f"{what} not configured")
    path = Path(path_text)
    if not path.exists():
        raise FileNotFoundError(path)
    return path


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args: argparse.Namespace) -> int:
    data_path = Path(args.data)
    if not data_path.exists():
        raise FileNotFoundError(data_path)
    data = load_data_any(data_path)
    stats = estimate_gaussian_stats(data, label=args.label)
    save_stats(stats, args.out)
    top = stats.eigvals[:10]
    print(f"fit: n={data.n} d={data.d} -> {args.out}")
    print("top eigenvalues: " + " ".join(f"{v:.6g}" for v in top))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _checked(keys: tuple[str, ...], build):
    """build(), with its ValueError turned into a format error naming the keys."""
    try:
        return build()
    except ValueError as exc:
        names = ", ".join(map(repr, keys))
        raise FormatError(f"out-of-range value among {names}: {exc}") from None


def _build_run(config: dict) -> tuple[sampler.NoiseSchedule, sampler.GuidanceConfig,
                                      sampler.InitSpec]:
    """Schedule, guidance and init spec of a parsed config. An out-of-range value
    is a format error naming its key, raised before any file is touched."""
    for key, low in (("m", 1), ("init_sigma", 0.0), ("init_gamma", 0.0)):
        if config[key] is not None and config[key] < low:
            raise FormatError(f"out-of-range {key!r} value {config[key]!r}: need >= {low}")
    schedule = _checked(("sigma_max", "sigma_min", "steps", "rho"),
                        lambda: sampler.make_schedule(config["sigma_max"], config["sigma_min"],
                                                      config["steps"], config["rho"]))
    comps = config["components"]
    cfg = _checked(("gamma", "interval", "freeze_cpc_at"), lambda: sampler.GuidanceConfig(
        gamma=config["gamma"],
        enable_cond=config["cond"],
        enable_pos_cpc="pos_cpc" in comps,
        enable_neg_cpc="neg_cpc" in comps,
        enable_mean_shift="mean_shift" in comps,
        active_interval=config["interval"],
        freeze_cpc_at=config["freeze_cpc_at"],
    ))
    return schedule, cfg, sampler.InitSpec(std=config["init_sigma"])


def _run_sampling(config: dict, schedule: sampler.NoiseSchedule,
                  cfg: sampler.GuidanceConfig,
                  init: sampler.InitSpec) -> tuple[sampler.SampleBatch, dict]:
    m, seed, heun = config["m"], config["seed"], config["heun"]

    if config["mixture"]:
        model = gmm.load_mixture(_require_file(config["mixture"], "mixture manifest"))
        batch = gmm.sample_batch(model, config["target"], m, seed,
                                 schedule, cfg, init, heun=heun)
        meta = {"mode": "mixture", "k": model.k, "d": model.d}
        return batch, meta

    cond = load_stats(_require_file(config["cond_stats"], "cond_stats"))
    if config["uncond_stats"]:
        uncond = load_stats(_require_file(config["uncond_stats"], "uncond_stats"))
    elif cfg.gamma == 0.0:
        uncond = cond  # unused when guidance is off
    else:
        raise FileNotFoundError("uncond_stats required when gamma > 0")
    if config["init"] == "mean_shifted":
        std = init.std if init.std is not None else schedule.sigma_max
        init = metrics.mean_shifted_init(cond, uncond, config["init_gamma"], std)
    batch = sampler.sample_batch(cond, uncond, m, seed, schedule, cfg, init,
                                 heun=heun)
    meta = {"mode": "gaussian", "d": cond.d}
    return batch, meta


def cmd_sample(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    resolved = resolve_config(Path(args.config) if args.config else None, overrides)
    config = parse_config(resolved)  # fails fast, before any file is touched
    run = _build_run(config)
    outdir = config["outdir"]
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    batch, meta = _run_sampling(config, *run)
    elapsed = time.perf_counter() - t0

    samples_path = outdir / "samples.bin"
    atomic_write_bytes(samples_path, data_matrix_to_bytes(DataMatrix(batch.samples)))
    outputs = {"samples": samples_path.name}

    shape = config["ppm_shape"]
    if shape is not None:
        count = min(config["ppm_count"] or batch.m, batch.m)
        ext = "ppm" if shape[2] == 3 else "pgm"
        for k in range(count):
            write_image(outdir / f"sample_{k:05d}.{ext}", batch.samples[k], shape,
                        config["fixed_range"])
        outputs["images"] = count

    manifest = {
        "tool": "lincfg",
        "config": resolved,
        "seed": config["seed"],
        "meta": meta,
        "timings": {"sample_seconds": elapsed},
        "outputs": outputs,
    }
    atomic_write_text(outdir / "run_manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"sample: wrote {batch.m} x {batch.d} samples to {samples_path}")
    print(f"manifest: {outdir / 'run_manifest.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"verify {args.suite}: {len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed))
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _load_pair(args) -> tuple:
    cond = load_stats(_require_file(args.cond, "cond stats"))
    uncond = load_stats(_require_file(args.uncond, "uncond stats"))
    return cond, uncond


def cmd_export_cpcs(args: argparse.Namespace) -> int:
    cond, uncond = _load_pair(args)
    if args.sigma is not None:
        spec = cpca.posterior_cpcs(cond, uncond, args.sigma)
    else:
        spec = cpca.contrastive_components(cond.covariance(), uncond.covariance())
    shape = parse_shape(args.shape)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fixed = _fixed_range(args.fixed_range)
    ext = "ppm" if shape[2] == 3 else "pgm"
    pos_vals, pos_vecs = spec.positive
    neg_vals, neg_vecs = spec.negative
    n_pos = min(args.count, pos_vecs.shape[1])
    n_neg = min(args.count, neg_vecs.shape[1])
    for i in range(n_pos):
        write_image(outdir / f"pos_cpc_{i:02d}.{ext}", pos_vecs[:, i], shape, fixed)
    for i in range(n_neg):
        # most negative first
        write_image(outdir / f"neg_cpc_{i:02d}.{ext}", neg_vecs[:, n_neg - 1 - i], shape, fixed)
    rows = [f"{i},{float(v)!r}" for i, v in enumerate(spec.eigvals)]
    atomic_write_text(outdir / "cpc_eigenvalues.csv",
                      "index,eigenvalue\n" + "\n".join(rows) + "\n")
    print(f"export cpcs: {n_pos} positive, {n_neg} negative -> {outdir}")
    return EXIT_OK


def cmd_export_mean_shift(args: argparse.Namespace) -> int:
    cond, uncond = _load_pair(args)
    if args.sigma is not None:
        w = denoiser.mean_shift(cond, uncond, args.sigma)
    else:
        w = cond.mean - uncond.mean
    shape = parse_shape(args.shape)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ext = "ppm" if shape[2] == 3 else "pgm"
    write_image(outdir / f"mean_shift.{ext}", w, shape, _fixed_range(args.fixed_range))
    print(f"export mean_shift_dir -> {outdir / ('mean_shift.' + ext)}")
    return EXIT_OK


def _resolve_direction(args, cond, uncond) -> tuple[np.ndarray, bool]:
    """Return (unit direction, magnitude_default) for histogram export."""
    spec_name = args.direction
    if spec_name == "mean_shift":
        w = cond.mean - uncond.mean
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise DataError("mean-shift direction is zero")
        return w / norm, False
    kind, _, index_text = spec_name.partition(":")
    index = int(index_text) if index_text else 0
    if kind == "eigvec":
        return cond.eigvecs[:, index].copy(), False
    if args.sigma is not None:
        spec = cpca.posterior_cpcs(cond, uncond, args.sigma)
    else:
        spec = cpca.contrastive_components(cond.covariance(), uncond.covariance())
    if kind == "pos_cpc":
        vals, vecs = spec.positive
    elif kind == "neg_cpc":
        vals, vecs = spec.negative
        vecs = vecs[:, ::-1]  # most negative first
    else:
        raise FormatError(f"unknown direction {spec_name!r}; use mean_shift, "
                          "eigvec:I, pos_cpc:I or neg_cpc:I")
    if index >= vecs.shape[1]:
        raise ShapeError(f"{kind} index {index} out of range ({vecs.shape[1]} available)")
    return vecs[:, index].copy(), True


def cmd_export_histograms(args: argparse.Namespace) -> int:
    cond, uncond = _load_pair(args)
    data = load_data_matrix(_require_file(args.samples, "samples file"))
    direction, mag_default = _resolve_direction(args, cond, uncond)
    magnitude = args.magnitude if args.magnitude is not None else mag_default
    hist = project_histogram(data.values, direction, cond.mean,
                             n_bins=args.bins, magnitude=magnitude)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = args.direction.replace(":", "_")
    atomic_write_text(outdir / f"hist_{name}.csv", histogram_csv(hist))
    atomic_write_text(outdir / f"hist_{name}.svg",
                      histogram_svg(hist, title=f"projection onto {args.direction}"))
    print(f"export histograms: mean={hist.mean:.6g} std={hist.std:.6g} -> {outdir}")
    return EXIT_OK


def _similarity_outputs(paths: list[str], out_csv: str | None,
                        out_svg: str | None) -> int:
    stats_list = [load_stats(_require_file(p, "stats file")) for p in paths]
    labels = [s.label or Path(p).stem for s, p in zip(stats_list, paths)]
    matrix = metrics.class_similarity_matrix(stats_list)
    print("class similarity (Gaussian Frechet distance):")
    width = max(len(s) for s in labels)
    for name, row in zip(labels, matrix):
        print(f"  {name:>{width}} " + " ".join(f"{v:12.5g}" for v in row))
    if out_csv:
        atomic_write_text(out_csv, matrix_csv(matrix, labels))
    if out_svg:
        atomic_write_text(out_svg, heatmap_svg(matrix, labels,
                                               title="class similarity"))
    return EXIT_OK


def cmd_export_similarity(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _similarity_outputs(args.stats, str(outdir / "similarity.csv"),
                               str(outdir / "similarity.svg"))


def cmd_similarity(args: argparse.Namespace) -> int:
    return _similarity_outputs(args.stats, args.out_csv, args.out_svg)


# ---------------------------------------------------------------------------
# gmm-demo
# ---------------------------------------------------------------------------


def cmd_gmm_demo(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    schedule = sampler.make_schedule(n_steps=args.steps)
    summary: dict = {"seed": args.seed}

    # 2D anti-correlated toy: CFG reshapes variance along the signed CPCs
    cond = synthetic.toy_conditional_stats()
    uncond = synthetic.toy_unconditional_stats()
    pair = synthetic.toy_common_pair()
    naive = sampler.sample_batch(cond, uncond, args.m, args.seed, schedule,
                                 sampler.GuidanceConfig(gamma=0.0))
    guided = sampler.sample_batch(cond, uncond, args.m, args.seed, schedule,
                                  sampler.GuidanceConfig(gamma=args.gamma))
    atomic_write_bytes(outdir / "toy_naive.bin",
                       data_matrix_to_bytes(DataMatrix(naive.samples)))
    atomic_write_bytes(outdir / "toy_cfg.bin",
                       data_matrix_to_bytes(DataMatrix(guided.samples)))
    v_pos = pair.eigvecs[:, 0]
    v_neg = pair.eigvecs[:, 1]
    ratios = {}
    for name, v in (("pos_cpc", v_pos), ("neg_cpc", v_neg)):
        var_n = float(np.var((naive.samples - cond.mean) @ v))
        var_g = float(np.var((guided.samples - cond.mean) @ v))
        ratios[name] = var_g / var_n
    pred_pos = analytic.h_factor(10.0, 3.0, schedule.sigma_min, schedule.sigma_max) ** args.gamma
    pred_neg = analytic.h_factor(3.0, 10.0, schedule.sigma_min, schedule.sigma_max) ** args.gamma
    print(f"toy 2D: variance ratio along +CPC {ratios['pos_cpc']:.3f} "
          f"(h^gamma prediction {pred_pos:.3f})")
    print(f"toy 2D: variance ratio along -CPC {ratios['neg_cpc']:.3f} "
          f"(h^gamma prediction {pred_neg:.3f})")
    summary["toy"] = {"variance_ratios": ratios,
                      "h_predictions": {"pos_cpc": pred_pos, "neg_cpc": pred_neg}}

    # 3-cluster mixture: guide toward cluster 0 against the mixture score
    model = synthetic.demo_mixture()
    m_naive = gmm.sample_batch(model, 0, args.m, args.seed + 1, schedule,
                               sampler.GuidanceConfig(gamma=0.0))
    m_guided = gmm.sample_batch(model, 0, args.m, args.seed + 1, schedule,
                                sampler.GuidanceConfig(gamma=args.gamma))
    atomic_write_bytes(outdir / "gmm_naive.bin",
                       data_matrix_to_bytes(DataMatrix(m_naive.samples)))
    atomic_write_bytes(outdir / "gmm_cfg.bin",
                       data_matrix_to_bytes(DataMatrix(m_guided.samples)))
    sigma_eval = schedule.sigma_min
    w_naive = np.mean(gmm.posterior_weights(model, m_naive.samples[:200], sigma_eval).w[:, 0])
    w_guided = np.mean(gmm.posterior_weights(model, m_guided.samples[:200], sigma_eval).w[:, 0])
    print(f"mixture: mean target-cluster weight {w_naive:.3f} (naive) -> "
          f"{w_guided:.3f} (gamma={args.gamma})")
    summary["mixture"] = {"target_weight_naive": float(w_naive),
                          "target_weight_guided": float(w_guided),
                          "gamma": args.gamma}

    atomic_write_text(outdir / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"gmm-demo: outputs in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lincfg",
        description="Linear-Gaussian diffusion sampling and guidance analysis lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate Gaussian stats from a data matrix")
    p_fit.add_argument("data", help="input data file (LCFD1 binary or CSV)")
    p_fit.add_argument("out", help="output stats file (LCFG1)")
    p_fit.add_argument("--label", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sample = sub.add_parser("sample", help="run a guided sampling experiment")
    p_sample.add_argument("--config", default=None,
                          help="key=value config file or run manifest JSON")
    for key in CONFIG_KEYS:
        p_sample.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run built-in property suites")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="render vectors/stats as images or figures")
    export_sub = p_export.add_subparsers(dest="what", required=True)

    pe_cpcs = export_sub.add_parser("cpcs", help="CPC images and eigenvalue table")
    pe_cpcs.add_argument("--cond", required=True)
    pe_cpcs.add_argument("--uncond", required=True)
    pe_cpcs.add_argument("--sigma", type=float, default=None,
                         help="posterior CPCs at this noise level (default: raw contrast)")
    pe_cpcs.add_argument("--count", type=int, default=4)
    pe_cpcs.add_argument("--shape", required=True, help="HxWxC with C in {1,3}")
    pe_cpcs.add_argument("--fixed-range", default=None, help="lo:hi intensity clamp")
    pe_cpcs.add_argument("--outdir", default="out")
    pe_cpcs.set_defaults(func=cmd_export_cpcs)

    pe_ms = export_sub.add_parser("mean_shift_dir", help="mean-shift direction image")
    pe_ms.add_argument("--cond", required=True)
    pe_ms.add_argument("--uncond", required=True)
    pe_ms.add_argument("--sigma", type=float, default=None,
                       help="apply the (I - shrunk covariance) gate at this sigma")
    pe_ms.add_argument("--shape", required=True)
    pe_ms.add_argument("--fixed-range", default=None)
    pe_ms.add_argument("--outdir", default="out")
    pe_ms.set_defaults(func=cmd_export_mean_shift)

    pe_hist = export_sub.add_parser("histograms", help="projection histogram CSV + SVG")
    pe_hist.add_argument("--samples", required=True, help="LCFD1 samples file")
    pe_hist.add_argument("--cond", required=True)
    pe_hist.add_argument("--uncond", required=True)
    pe_hist.add_argument("--direction", required=True,
                         help="mean_shift | eigvec:I | pos_cpc:I | neg_cpc:I")
    pe_hist.add_argument("--sigma", type=float, default=None)
    pe_hist.add_argument("--bins", type=int, default=metrics.DEFAULT_BINS)
    mag = pe_hist.add_mutually_exclusive_group()
    mag.add_argument("--magnitude", dest="magnitude", action="store_true", default=None)
    mag.add_argument("--signed", dest="magnitude", action="store_false")
    pe_hist.add_argument("--outdir", default="out")
    pe_hist.set_defaults(func=cmd_export_histograms)

    pe_sim = export_sub.add_parser("similarity", help="class-similarity CSV + SVG heatmap")
    pe_sim.add_argument("--stats", nargs="+", required=True)
    pe_sim.add_argument("--outdir", default="out")
    pe_sim.set_defaults(func=cmd_export_similarity)

    p_sim = sub.add_parser("similarity", help="pairwise Gaussian Frechet distances")
    p_sim.add_argument("stats", nargs="+")
    p_sim.add_argument("--out-csv", default=None)
    p_sim.add_argument("--out-svg", default=None)
    p_sim.set_defaults(func=cmd_similarity)

    p_demo = sub.add_parser("gmm-demo", help="run the built-in synthetic demos")
    p_demo.add_argument("--out", default="gmm_demo_out")
    p_demo.add_argument("--gamma", type=float, default=1.0)
    p_demo.add_argument("--m", type=int, default=1000)
    p_demo.add_argument("--steps", type=int, default=200)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=cmd_gmm_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except FormatError as exc:
        print(f"error: format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DivergenceError as exc:
        where = f"step {exc.step}"
        if exc.sample is not None:
            where += f", sample {exc.sample}"
        print(f"error: numerical divergence at {where}: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ShapeError as exc:
        print(f"error: shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (DataError, QuadratureError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
