"""Print the sha256 of every bench config's samples.bin, one line per config.

    python tools/sample_hashes.py --seed N [--src PATH]

The inputs come from ``perfbench/workloads.generate`` at seed N, written to a
temporary directory; every config of the three workloads (11 in all) is
fitted and sampled through ``lincfg.cli.main``, and one ``workload/config
sha256`` line is printed per config. ``--src`` names the directory that holds
the ``lincfg`` package to run (a checkout's ``src``; this tree's by default),
so two trees give the same samples bit for bit exactly when

    diff <(python tools/sample_hashes.py --seed 1 --src A/src) \\
         <(python tools/sample_hashes.py --seed 1 --src B/src)

is empty. A different BLAS thread count moves the samples at the rounding
level, so ``LCFG_THREADS`` is set to 1 before lincfg is imported unless it
is already set; then two trees never differ by thread count alone. What
lincfg prints on stdout is dropped; its errors reach stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """perfbench/workloads.py, loaded from this tree without running the bench."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def sample_hashes(seed: int, smoke: bool = False) -> list[str]:
    """``workload/config sha256`` of each config's samples.bin, in bench
    order; ``smoke`` runs the workloads at perfbench's smoke shape."""
    from lincfg import cli
    workloads, lines = _workloads(), []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name, workload in workloads.WORKLOADS.items():
            w, workdir = workloads.smoke(workload) if smoke else workload, Path(tmp) / name
            workdir.mkdir()
            workloads.generate(w, seed, workdir)
            for data, stats in w.fits:
                if cli.main(["fit", str(workdir / data), str(workdir / stats)]) != 0:
                    raise SystemExit(f"fit {name}/{data} failed")
            for config, _, _ in w.cycle:
                if cli.main(["sample", "--config", str(workdir / f"{config}.cfg")]) != 0:
                    raise SystemExit(f"sample {name}/{config} failed")
                digest = hashlib.sha256((workdir / "out" / config / "samples.bin").read_bytes())
                lines.append(f"{name}/{config} {digest.hexdigest()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the lincfg package (default: this tree's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    os.environ.setdefault("LCFG_THREADS", "1")
    lincfg = importlib.import_module("lincfg")  # applies LCFG_THREADS before numpy loads
    print(f"lincfg {lincfg.__version__} from {Path(lincfg.__file__).parent}", file=sys.stderr)
    print("\n".join(sample_hashes(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
