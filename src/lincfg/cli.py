"""Command-line front end.

Commands: fit, sample, verify, export (cpcs, mean_shift_dir, histograms,
similarity), gmm-demo. Experiment configuration is a flat key=value text
file; CLI flags override file values. A run manifest (JSON) written next to
the samples makes every sampling run reproducible: pass the manifest back as
--config to regenerate bit-identical sample files with the same lincfg
version and thread count, which the manifest records with the numpy and
python versions.

Exit codes: 0 ok, 1 verification/other failure (an output path that cannot
be written and running out of memory included), 2 missing input, 3 format
or usage error, 4 numerical divergence, 5 shape error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import sys
import time
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__, analytic, cpca, denoiser, gmm, metrics, sampler, synthetic, verify
from .errors import DataError, DivergenceError, FormatError, QuadratureError, ShapeError
from .export import (check_image_shape, heatmap_svg, histogram_csv, histogram_svg,
                     matrix_csv, parse_shape, write_image)
from .fileio import atomic_write_text
from .metrics import project_histogram
from .stats import (estimate_gaussian_stats, load_data_any, load_data_matrix, load_stats,
                    save_data_matrix, save_stats)

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


def _number(kind: type, low: float | None = None, strict: bool = False):
    """Parser of one int or finite float, at least low (above low if strict). It
    and the parsers built on it type every flag and config value."""
    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError("need a finite number")
        if low is not None and not (value > low if strict else value >= low):
            raise ValueError(f"need {'>' if strict else '>='} {low}")
        return value
    return parse


def _float_pair(text: str, increasing: bool = False) -> tuple[float, float]:
    lo, hi = map(_number(float), text.split(":"))
    if increasing and not hi > lo:
        raise ValueError("need lo < hi")
    return lo, hi


def _optional(parse):
    """parse, except that an empty value or 'none' means None."""
    return lambda text: None if text.lower() in ("", "none") else parse(text)


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
    "target": ("0", _number(int, 0)),
    "sigma_max": (str(sampler.DEFAULT_SIGMA_MAX), _number(float, 0.0, strict=True)),
    "sigma_min": (str(sampler.DEFAULT_SIGMA_MIN), _number(float, 0.0, strict=True)),
    "steps": (str(sampler.DEFAULT_STEPS), _number(int, 1)),
    "rho": (str(sampler.DEFAULT_RHO), _number(float, 1.0)),
    "gamma": (str(sampler.DEFAULT_GAMMA), _number(float, 0.0)),
    "components": ("all", _parse_components),
    "cond": ("true", _parse_bool),
    "interval": ("none", _optional(_float_pair)),
    "freeze_cpc_at": ("", _optional(_number(float, 0.0, strict=True))),
    "heun": ("false", _parse_bool),
    "m": ("64", _number(int, 1)),
    "seed": ("0", _number(int, 0)),
    "init": ("zero", _parse_init),
    "init_gamma": ("0", _number(float, 0.0)),
    "init_sigma": ("", _optional(_number(float, 0.0))),
    "outdir": ("out", Path),
    "ppm_shape": ("", _optional(parse_shape)),
    "ppm_count": ("0", _number(int, 0)),
    "fixed_range": ("", _optional(partial(_float_pair, increasing=True))),
}

# Keys that apply to one sampling mode only; setting them in the other is an error.
GAUSSIAN_ONLY_KEYS = ("cond_stats", "uncond_stats", "components", "freeze_cpc_at",
                      "init", "init_gamma")
MIXTURE_ONLY_KEYS = ("target",)


def _parse(key: str, text: str):
    """The typed value of one config key; a value its parser rejects is a format error."""
    try:
        return CONFIG_KEYS[key][1](text)
    except ValueError as exc:
        raise FormatError(f"invalid {key!r} value {text!r}: {exc}") from None


def parse_config(resolved: dict[str, str]) -> dict:
    """Typed values of a resolved config, with keys foreign to its mode, an
    init_gamma that init=zero would ignore, and a ppm_count or fixed_range
    that no ppm_shape would use, rejected.

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
    if config["init"] == "zero" and config["init_gamma"] != 0.0:
        raise FormatError("config key 'init_gamma' applies only with init=mean_shifted")
    for key in ("ppm_count", "fixed_range"):
        if config["ppm_shape"] is None and config[key] != _parse(key, CONFIG_KEYS[key][0]):
            raise FormatError(f"config key {key!r} applies only with ppm_shape")
    return config


def parse_config_file(path: Path) -> dict[str, str]:
    """Read a flat key=value config, or the 'config' block of a run manifest."""
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


def resolve_config(path: str | None, overrides: dict[str, str]) -> dict[str, str]:
    config = {key: default for key, (default, _) in CONFIG_KEYS.items()}
    if path:
        config.update(parse_config_file(_require_file(path, "config")))
    for key, value in overrides.items():
        if value is not None:
            config[key] = str(value)
    return config


def _require_file(path_text: str, what: str) -> Path:
    if not path_text:
        raise FileNotFoundError(f"{what} not configured")
    path = Path(path_text)
    if not path.is_file():
        raise FileNotFoundError(path)
    return path


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args: argparse.Namespace) -> int:
    data = load_data_any(_require_file(args.data, "data file"))
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
    """Schedule, guidance and init spec of a parsed config. Values that conflict
    with each other are a format error naming their keys."""
    schedule = _checked(("sigma_max", "sigma_min"),
                        lambda: sampler.make_schedule(config["sigma_max"], config["sigma_min"],
                                                      config["steps"], config["rho"]))
    comps = config["components"]
    cfg = _checked(("interval",), lambda: sampler.GuidanceConfig(
        gamma=config["gamma"],
        enable_cond=config["cond"],
        enable_pos_cpc="pos_cpc" in comps,
        enable_neg_cpc="neg_cpc" in comps,
        enable_mean_shift="mean_shift" in comps,
        active_interval=config["interval"],
        freeze_cpc_at=config["freeze_cpc_at"],
    ))
    return schedule, cfg, sampler.InitSpec(std=config["init_sigma"])


def _load_inputs(config: dict, schedule: sampler.NoiseSchedule,
                 cfg: sampler.GuidanceConfig, init: sampler.InitSpec) -> tuple:
    """Read the stats pair or the mixture of a parsed config and check the
    config against it. Returns (draw, run, meta): draw() draws x_T and run(x_T)
    integrates the run from it, writing its samples over x_T. Writes nothing."""
    m, seed, heun = config["m"], config["seed"], config["heun"]
    if config["mixture"]:
        model = gmm.load_mixture(_require_file(config["mixture"], "mixture manifest"))
        target = config["target"]
        if not 0 <= target < model.k:
            raise FormatError(f"out-of-range 'target' value {target}: "
                              f"the mixture has K={model.k} components")
        meta = {"mode": "mixture", "k": model.k, "d": model.d, "sampler": "mixture",
                "mixture_form": ("folded" if sampler.choose_path(m, model.d) == "compiled"
                                 else "projected")}
        run = partial(gmm.integrate, model, target, schedule=schedule, cfg=cfg, heun=heun,
                      overwrite_x=True)
    else:
        cond = load_stats(_require_file(config["cond_stats"], "cond_stats"))
        if config["uncond_stats"]:
            uncond = load_stats(_require_file(config["uncond_stats"], "uncond_stats"))
        elif cfg.gamma == 0.0:
            uncond = cond  # unused when guidance is off
        else:
            raise FileNotFoundError("uncond_stats required when gamma > 0")
        if config["init"] == "mean_shifted":
            init = _checked(("init_gamma",), partial(metrics.mean_shifted_init, cond, uncond,
                                                     config["init_gamma"], init.std))
        meta = {"mode": "gaussian", "d": cond.d,
                "sampler": sampler.choose_path(m, cond.d)}
        run = partial(sampler.integrate, cond, uncond, schedule=schedule, cfg=cfg, heun=heun,
                      overwrite_x=True)  # x_T is read once: the samples take its buffer
    if config["ppm_shape"] is not None:
        check_image_shape(config["ppm_shape"], meta["d"])
    draw = partial(sampler.draw_initial_states, meta["d"], m, seed, schedule, init)
    return draw, run, meta


def cmd_sample(args: argparse.Namespace) -> int:
    """Parse and build the run, read and check its inputs, then sample and write."""
    overrides = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    resolved = resolve_config(args.config, overrides)
    config = parse_config(resolved)
    draw, run, meta = _load_inputs(config, *_build_run(config))
    outdir = config["outdir"]

    t0 = time.perf_counter()
    x_T = draw()
    t1 = time.perf_counter()
    samples = run(x_T)
    t2 = time.perf_counter()
    samples_path = outdir / "samples.bin"
    save_data_matrix(samples, samples_path)
    timings = {"draw_seconds": t1 - t0, "integrate_seconds": t2 - t1,
               "write_seconds": time.perf_counter() - t2}
    timings["sample_seconds"] = timings["draw_seconds"] + timings["integrate_seconds"]
    outputs = {"samples": samples_path.name}
    shape = config["ppm_shape"]
    if shape is not None:
        count = min(config["ppm_count"] or len(samples), len(samples))
        for k in range(count):
            write_image(outdir / f"sample_{k:05d}", samples[k], shape, config["fixed_range"])
        outputs["images"] = count

    manifest = {
        "tool": "lincfg",
        "version": __version__,
        "environment": {"numpy": np.__version__, "python": platform.python_version(),
                        "LCFG_THREADS": os.environ.get("LCFG_THREADS") or None},
        "config": resolved,
        "seed": config["seed"],
        "meta": meta,
        "timings": timings,
        "outputs": outputs,
    }
    atomic_write_text(outdir / "run_manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"sample: wrote {samples.shape[0]} x {samples.shape[1]} samples to {samples_path}")
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


def _cpcs(args, cond, uncond) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Eigenvalues, and positive and negative CPCs as columns, strongest first: of
    the posterior contrast at --sigma, or of the raw covariance contrast without it."""
    spec = (cpca.posterior_cpcs(cond, uncond, args.sigma) if args.sigma is not None
            else cpca.contrastive_components(cond.covariance(), uncond.covariance()))
    return spec.eigvals, {"pos_cpc": spec.positive[1], "neg_cpc": spec.negative[1][:, ::-1]}


def _mean_shift(args, cond, uncond) -> np.ndarray:
    """The mean-shift direction gated at --sigma, or mu_c - mu_uc without it."""
    if args.sigma is not None:
        return denoiser.mean_shift(cond, uncond, args.sigma)
    return cond.mean - uncond.mean


def cmd_export_cpcs(args: argparse.Namespace) -> int:
    cond, uncond = _load_pair(args)
    eigvals, columns = _cpcs(args, cond, uncond)
    counts = []
    for kind, vecs in columns.items():
        counts.append(min(args.count, vecs.shape[1]))
        for i in range(counts[-1]):
            write_image(args.outdir / f"{kind}_{i:02d}", vecs[:, i], args.shape, args.fixed_range)
    rows = [f"{i},{float(v)!r}" for i, v in enumerate(eigvals)]
    atomic_write_text(args.outdir / "cpc_eigenvalues.csv",
                      "index,eigenvalue\n" + "\n".join(rows) + "\n")
    print(f"export cpcs: {counts[0]} positive, {counts[1]} negative -> {args.outdir}")
    return EXIT_OK


def cmd_export_mean_shift(args: argparse.Namespace) -> int:
    cond, uncond = _load_pair(args)
    path = write_image(args.outdir / "mean_shift", _mean_shift(args, cond, uncond),
                       args.shape, args.fixed_range)
    print(f"export mean_shift_dir -> {path}")
    return EXIT_OK


def _parse_direction(text: str) -> tuple[str, str, int]:
    """(text, KIND, I) of 'mean_shift' or of KIND[:I], KIND in eigvec, pos_cpc, neg_cpc."""
    kind, colon, index = text.partition(":")
    if kind not in ("eigvec", "pos_cpc", "neg_cpc") and text != "mean_shift":
        raise ValueError("use mean_shift, eigvec:I, pos_cpc:I or neg_cpc:I")
    return text, kind, _number(int, 0)(index) if colon else 0


def _resolve_direction(args, cond, uncond) -> tuple[np.ndarray, bool]:
    """Return (unit direction, magnitude_default) for histogram export."""
    _, kind, index = args.direction
    if kind == "mean_shift":
        w = _mean_shift(args, cond, uncond)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise DataError("mean-shift direction is zero")
        return w / norm, False
    vecs = cond.eigvecs if kind == "eigvec" else _cpcs(args, cond, uncond)[1][kind]
    if index >= vecs.shape[1]:
        raise ShapeError(f"{kind} index {index} out of range ({vecs.shape[1]} available)")
    return vecs[:, index].copy(), kind != "eigvec"


def cmd_export_histograms(args: argparse.Namespace) -> int:
    cond, uncond = _load_pair(args)
    data = load_data_matrix(_require_file(args.samples, "samples file"))
    direction, mag_default = _resolve_direction(args, cond, uncond)
    magnitude = args.magnitude if args.magnitude is not None else mag_default
    hist = project_histogram(data.values, direction, cond.mean,
                             n_bins=args.bins, magnitude=magnitude)
    text = args.direction[0]
    name = text.replace(":", "_")
    atomic_write_text(args.outdir / f"hist_{name}.csv", histogram_csv(hist))
    atomic_write_text(args.outdir / f"hist_{name}.svg",
                      histogram_svg(hist, title=f"projection onto {text}"))
    print(f"export histograms: mean={hist.mean:.6g} std={hist.std:.6g} -> {args.outdir}")
    return EXIT_OK


def cmd_export_similarity(args: argparse.Namespace) -> int:
    stats_list = [load_stats(_require_file(p, "stats file")) for p in args.stats]
    labels = [s.label or Path(p).stem for s, p in zip(stats_list, args.stats)]
    matrix = metrics.class_similarity_matrix(stats_list)
    print("class similarity (Gaussian Frechet distance):")
    width = max(len(s) for s in labels)
    for name, row in zip(labels, matrix):
        print(f"  {name:>{width}} " + " ".join(f"{v:12.5g}" for v in row))
    atomic_write_text(args.outdir / "similarity.csv", matrix_csv(matrix, labels))
    atomic_write_text(args.outdir / "similarity.svg",
                      heatmap_svg(matrix, labels, title="class similarity"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gmm-demo
# ---------------------------------------------------------------------------


def cmd_gmm_demo(args: argparse.Namespace) -> int:
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
    save_data_matrix(naive, args.out / "toy_naive.bin")
    save_data_matrix(guided, args.out / "toy_cfg.bin")
    ratios, preds = {}, {}
    for name, sign, v, lam in (("pos_cpc", "+", pair.eigvecs[:, 0], (10.0, 3.0)),
                                ("neg_cpc", "-", pair.eigvecs[:, 1], (3.0, 10.0))):
        var_n = float(np.var((naive - cond.mean) @ v))
        var_g = float(np.var((guided - cond.mean) @ v))
        ratios[name] = var_g / var_n
        preds[name] = analytic.h_factor(*lam, schedule.sigma_min, schedule.sigma_max) ** args.gamma
        print(f"toy 2D: variance ratio along {sign}CPC {ratios[name]:.3f} "
              f"(h^gamma prediction {preds[name]:.3f})")
    summary["toy"] = {"variance_ratios": ratios, "h_predictions": preds}

    # 3-cluster mixture: guide toward cluster 0 against the mixture score
    model = synthetic.demo_mixture()
    m_naive = gmm.sample_batch(model, 0, args.m, args.seed + 1, schedule,
                               sampler.GuidanceConfig(gamma=0.0))
    m_guided = gmm.sample_batch(model, 0, args.m, args.seed + 1, schedule,
                                sampler.GuidanceConfig(gamma=args.gamma))
    save_data_matrix(m_naive, args.out / "gmm_naive.bin")
    save_data_matrix(m_guided, args.out / "gmm_cfg.bin")
    sigma_eval = schedule.sigma_min
    w_naive = np.mean(gmm.posterior_weights(model, m_naive[:200], sigma_eval).w[:, 0])
    w_guided = np.mean(gmm.posterior_weights(model, m_guided[:200], sigma_eval).w[:, 0])
    print(f"mixture: mean target-cluster weight {w_naive:.3f} (naive) -> "
          f"{w_guided:.3f} (gamma={args.gamma})")
    summary["mixture"] = {"target_weight_naive": float(w_naive),
                          "target_weight_guided": float(w_guided),
                          "gamma": args.gamma}

    atomic_write_text(args.out / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"gmm-demo: outputs in {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are format errors (exit 3), and which
    reads a token that starts with '-' and a digit ('-1:1', '-0.5') as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


def _flag(parse):
    """parse as an argparse type: its rejection, with the reason, is a usage error."""
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
    return typed


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command. Each command's ``func`` default is
    the name of its ``cmd_*`` function, which ``main`` looks up when it runs."""
    parser = _Parser(
        prog="lincfg",
        description="Linear-Gaussian diffusion sampling and guidance analysis lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate Gaussian stats from a data matrix")
    p_fit.add_argument("data", help="input data file (LCFD1 binary or CSV)")
    p_fit.add_argument("out", help="output stats file (LCFG1)")
    p_fit.add_argument("--label", default=None)
    p_fit.set_defaults(func="cmd_fit")

    p_sample = sub.add_parser("sample", help="run a guided sampling experiment")
    p_sample.add_argument("--config", default=None,
                          help="key=value config file or run manifest JSON")
    for key in CONFIG_KEYS:
        p_sample.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    p_sample.set_defaults(func="cmd_sample")

    p_verify = sub.add_parser("verify", help="run built-in property suites")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_verify.set_defaults(func="cmd_verify")

    p_export = sub.add_parser("export", help="render vectors/stats as images or figures")
    export_sub = p_export.add_subparsers(dest="what", required=True)

    pair = _Parser(add_help=False)
    pair.add_argument("--cond", required=True)
    pair.add_argument("--uncond", required=True)
    pair.add_argument("--sigma", type=_flag(_number(float, 0.0, strict=True)),
                      help="posterior CPCs and gated mean shift at this noise level "
                           "(default: raw covariance contrast and mu_c - mu_uc)")
    pair.add_argument("--outdir", type=Path, default="out")
    image = _Parser(add_help=False)
    image.add_argument("--shape", type=_flag(parse_shape), required=True,
                       help="HxWxC with C in {1,3}")
    image.add_argument("--fixed-range", type=_flag(partial(_float_pair, increasing=True)),
                       help="lo:hi intensity clamp")

    pe_cpcs = export_sub.add_parser("cpcs", parents=[pair, image],
                                    help="CPC images and eigenvalue table")
    pe_cpcs.add_argument("--count", type=_flag(_number(int, 0)), default=4)
    pe_cpcs.set_defaults(func="cmd_export_cpcs")

    pe_ms = export_sub.add_parser("mean_shift_dir", parents=[pair, image],
                                  help="mean-shift direction image")
    pe_ms.set_defaults(func="cmd_export_mean_shift")

    pe_hist = export_sub.add_parser("histograms", parents=[pair],
                                    help="projection histogram CSV + SVG")
    pe_hist.add_argument("--samples", required=True, help="LCFD1 samples file")
    pe_hist.add_argument("--direction", type=_flag(_parse_direction), required=True,
                         help="mean_shift | eigvec:I | pos_cpc:I | neg_cpc:I")
    pe_hist.add_argument("--bins", type=_flag(_number(int, 1)), default=metrics.DEFAULT_BINS)
    mag = pe_hist.add_mutually_exclusive_group()
    mag.add_argument("--magnitude", dest="magnitude", action="store_true", default=None)
    mag.add_argument("--signed", dest="magnitude", action="store_false")
    pe_hist.set_defaults(func="cmd_export_histograms")

    pe_sim = export_sub.add_parser("similarity", help="class-similarity CSV + SVG heatmap")
    pe_sim.add_argument("--stats", nargs="+", required=True)
    pe_sim.add_argument("--outdir", type=Path, default="out")
    pe_sim.set_defaults(func="cmd_export_similarity")

    p_demo = sub.add_parser("gmm-demo", help="run the built-in synthetic demos")
    p_demo.add_argument("--out", type=Path, default="gmm_demo_out")
    p_demo.add_argument("--gamma", type=_flag(_number(float, 0.0)), default=1.0)
    p_demo.add_argument("--m", type=_flag(_number(int, 2)), default=1000)
    p_demo.add_argument("--steps", type=_flag(_number(int, 1)), default=200)
    p_demo.add_argument("--seed", type=_flag(_number(int, 0)), default=0)
    p_demo.set_defaults(func="cmd_gmm_demo")

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: a parse leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()[args.func](args)  # by name, so a patched cmd_* runs
    except FileNotFoundError as exc:
        print(f"error: no such input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except FormatError as exc:
        print(f"error: format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DivergenceError as exc:  # the message names the step and its sigma range
        sample = "" if exc.sample is None else f", sample {exc.sample}"
        print(f"error: numerical divergence: {exc}{sample}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ShapeError as exc:
        print(f"error: shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (DataError, QuadratureError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
