"""The bench harness in perfbench/ must keep resolving against the package:
it wraps functions by name and imports lincfg for its oracles."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = _load("tracer")
    missing = [f"lincfg.{mod}.{fn}" for mod, fn in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"lincfg.{mod}"), fn, None))]
    assert missing == []
    from lincfg import sampler  # tracer.projection_flops reads these five positionally
    assert list(inspect.signature(sampler.guidance_terms).parameters) == [
        "cond", "uncond", "x", "sigma", "cfg"]


def test_oracle_imports():
    oracle = _load("oracle")
    assert callable(oracle.sigmas) and oracle.TOL > 0.0


def test_bench_configs_run_and_meet_their_oracles(tmp_path):
    """Every config of every workload, at the smoke shape, fits, samples with
    exit 0 through the CLI and stays within the oracle's tolerance."""
    from lincfg import cli
    workloads, oracle = _load("workloads"), _load("oracle")
    for name, workload in workloads.WORKLOADS.items():
        w, workdir = workloads.smoke(workload), tmp_path / name
        workdir.mkdir()
        workloads.generate(w, 1, workdir)
        for data, stats in w.fits:
            assert cli.main(["fit", str(workdir / data), str(workdir / stats)]) == 0
        for config, _, kind in w.cycle:
            cfg = workdir / f"{config}.cfg"
            assert cli.main(["sample", "--config", str(cfg)]) == 0, (name, config)
            samples = workdir / "out" / config / "samples.bin"
            assert oracle.check(kind, cfg, samples) <= oracle.TOL, (name, config)
