"""The bench harness in perfbench/ must keep resolving against the package:
it wraps functions by name and imports lincfg for its oracles."""

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
