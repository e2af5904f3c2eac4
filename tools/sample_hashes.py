"""Print the sha256 of every bench config's samples.bin, one line per config.

    python tools/sample_hashes.py --seed N [--src PATH] [--keep DIR] [--set KEY=VALUE ...]

The inputs come from ``perfbench/workloads.generate`` at seed N, written to a
temporary directory; every config of the three workloads (11 in all) is
fitted and sampled through ``lincfg.cli.main``, and one ``workload/config
sha256`` line is printed per config. ``--src`` names the directory that holds
the ``lincfg`` package to run (a checkout's ``src``; this tree's by default),
so two trees give the same samples bit for bit exactly when

    diff <(python tools/sample_hashes.py --seed 1 --src A/src) \\
         <(python tools/sample_hashes.py --seed 1 --src B/src)

is empty. Where they differ, ``--keep DIR`` says by how much: each config's
samples.bin is kept as ``DIR/<workload>/<config>.bin``, and where that file
is already there from an earlier run (of the other tree, say) it is left as
it is and the config's line gains a third field, the largest
|x - x_kept|_2 / |x_kept|_2 over its samples:

    python tools/sample_hashes.py --seed 1 --src A/src --keep kept
    python tools/sample_hashes.py --seed 1 --src B/src --keep kept

``--set KEY=VALUE``, repeatable, is passed as ``--KEY VALUE`` to every
``lincfg sample`` call, over each config's own value, so the tool also
covers paths that no bench config runs: ``--set heun=true`` runs every
config with Heun, the mixture's folded Heun run included, and ``--set
m=64`` runs the mixture projected (m < d) and the Gaussian configs stepped
rather than compiled wherever d > 64. Kept files from a run with other
``--set`` values are not comparable, so give each its own ``--keep``.

A different BLAS thread count moves the samples at the rounding
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


def sample_hashes(seed: int, smoke: bool = False, keep: Path | None = None,
                  sets: dict[str, str] | None = None) -> list[str]:
    """``workload/config sha256`` of each config's samples.bin, in bench
    order; ``smoke`` runs the workloads at perfbench's smoke shape. With
    ``keep``, each samples.bin is kept as ``keep/<workload>/<config>.bin``,
    or, where that file is already there, compared with it: the line then
    ends in the largest |x - x_kept|_2 / |x_kept|_2 over the samples.
    ``sets`` maps config keys to values passed as ``--key value`` to every
    ``lincfg sample`` call."""
    import numpy as np
    from lincfg import cli
    from lincfg.stats import load_data_matrix
    workloads, lines = _workloads(), []
    flags = [arg for key, value in (sets or {}).items()
             for arg in (f"--{key.replace('_', '-')}", value)]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name, workload in workloads.WORKLOADS.items():
            w, workdir = workloads.smoke(workload) if smoke else workload, Path(tmp) / name
            workdir.mkdir()
            workloads.generate(w, seed, workdir)
            for data, stats in w.fits:
                if cli.main(["fit", str(workdir / data), str(workdir / stats)]) != 0:
                    raise SystemExit(f"fit {name}/{data} failed")
            for config, _, _ in w.cycle:
                if cli.main(["sample", "--config", str(workdir / f"{config}.cfg"), *flags]) != 0:
                    raise SystemExit(f"sample {name}/{config} failed")
                out = workdir / "out" / config / "samples.bin"
                data = out.read_bytes()
                lines.append(f"{name}/{config} {hashlib.sha256(data).hexdigest()}")
                if keep is not None:
                    kept = Path(keep) / name / f"{config}.bin"
                    if kept.exists():
                        x, ref = (load_data_matrix(p).values for p in (out, kept))
                        moved = np.linalg.norm(x - ref, axis=1) / np.linalg.norm(ref, axis=1)
                        lines[-1] += f" {moved.max():.2g}"
                    else:
                        kept.parent.mkdir(parents=True, exist_ok=True)
                        kept.write_bytes(data)
    return lines


def _setting(text: str) -> tuple[str, str]:
    """KEY=VALUE as (KEY, VALUE)."""
    key, eq, value = text.partition("=")
    if not (key and eq):
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the lincfg package (default: this tree's)")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep each samples.bin under DIR, or compare with the one kept there")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        type=_setting, help="pass --KEY VALUE to every lincfg sample call "
                        "(repeatable)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    os.environ.setdefault("LCFG_THREADS", "1")
    lincfg = importlib.import_module("lincfg")  # applies LCFG_THREADS before numpy loads
    print(f"lincfg {lincfg.__version__} from {Path(lincfg.__file__).parent}", file=sys.stderr)
    print("\n".join(sample_hashes(args.seed, keep=args.keep, sets=dict(args.set))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
