"""Benchmark `lincfg sample` end to end and per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --smoke     # every workload at a tiny shape

Run from any directory of a checkout: lincfg is imported from its src/
tree, nothing is installed. The workload's inputs are generated from --seed
into .perfbench_work/ at the checkout root, set up with `lincfg fit`
(timed as setup_s, fresh process each repeat), then a worker process runs a
closed loop of `lincfg sample` ops for --seconds (see worker.py). With
--trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer metrics; names and units come from BENCHMARK.json. The full
result, with its environment block, is written to --out (default
.perfbench_work/results/). README.md documents the schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
THREADS = "1"          # LCFG_THREADS for every lincfg process; <= nproc
for _var in BLAS_VARS:  # this process only generates inputs; keep it quiet
    os.environ[_var] = THREADS

import workloads  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7     # setup_s is the median of these fresh-process fits
TIME_LIMIT = 170.0    # seconds for one whole run, children included


def child_env() -> dict[str, str]:
    """Environment of lincfg processes: threads pinned by LCFG_THREADS only."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["LCFG_THREADS"] = THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child python process; raise if it fails or passes the deadline."""
    return subprocess.run([sys.executable, *argv], env=child_env(), check=True,
                          timeout=max(deadline - time.monotonic(), 1.0), **kwargs)


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lincfg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def run(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload run; returns the full result record."""
    deadline = time.monotonic() + TIME_LIMIT
    w = workloads.WORKLOADS[name]
    if smoke:
        w = workloads.smoke(w)
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    try:
        workloads.generate(w, seed, workdir)
        fit_args = [str(workdir / f) for pair in w.fits for f in pair]
        setup = []
        if not trace:
            for _ in range(SETUP_REPEATS):
                t0 = time.monotonic()
                out = run_child([str(HERE / "fit.py"), *fit_args], deadline,
                                capture_output=True, text=True)
                setup.append(float(out.stdout.split()[-1]) - t0)
        run_child([str(HERE / "worker.py"), "--workload", name, "--seconds", str(seconds),
                   "--trace", str(trace), "--workdir", str(workdir)]
                  + (["--smoke"] if smoke else []), deadline, stdout=sys.stderr)
        res = json.loads((workdir / "worker_result.json").read_text())
        spans = workdir / "spans.jsonl"
        spans = spans.read_text() if spans.exists() else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = res["ops"]
    timed = [op for op in ops if op["phase"] == "timed"]
    res["environment"].update(git_sha=git_sha(), src_sha256=source_sha256(), seed=seed)
    res.update(workload=name, trace=trace, seconds=seconds, smoke=smoke,
               shape={"d": w.d, "m": w.m, "steps": w.steps, "K": workloads.K},
               attempted=len(ops), failed=sum(not op["ok"] for op in ops),
               setup_runs_s=setup, spans=spans)
    if not trace:
        res["end_to_end"] = {
            "op_s_p50": statistics.median(op["s"] for op in timed),
            "samples_per_s": sum(op["samples"] for op in timed) / sum(op["s"] for op in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
        }
    return res


def report(res: dict, spec: dict, out: Path) -> dict:
    """Print the human-readable summary and return the final result line."""
    kind = "per_layer" if res["trace"] else "end_to_end"
    values = res[kind]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    res["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == res["workload"])
    s, seed = res["shape"], res["environment"]["seed"]
    print(f"{res['workload']} d={s['d']} m={s['m']} N={s['steps']} seed={seed}"
          f" trace={res['trace']}: {res['attempted']} ops, {res['failed']} failed;"
          f" oracle errors {res['oracle_errors']}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    for config, table in res.get("shares", {}).items():
        top = ", ".join(f"{n} {v:.0%}" for n, v in table["layer_self"].items() if v >= 0.005)
        print(f"  layer self-time shares [{config}]: {top}")
    print("  environment: " + json.dumps(res["environment"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = res.pop("spans")
    if spans is not None:
        out.with_suffix(".spans.jsonl").write_text(spans)
    out.write_text(json.dumps(res, indent=1) + "\n")
    print(f"  result: {out}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload, traced and not, at d=8 m=16 N=4")
    ap.add_argument("--out", default=None, help="full result JSON path")
    args = ap.parse_args()
    if not (ROOT / "src" / "lincfg" / "__init__.py").is_file():
        print(f"error: no lincfg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = ROOT / ".perfbench_work" / "results"

    if args.smoke:
        line = None
        for name in sorted(workloads.WORKLOADS):
            for trace in (0, 1):
                res = run(name, args.seed, args.seconds or 0.2, trace, smoke=True)
                line = report(res, spec, results / f"smoke-{name}-trace{trace}.json")
                if not line["correct"]:
                    return 1
        return 0

    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    res = run(args.workload, args.seed, seconds, args.trace, smoke=False)
    out = Path(args.out) if args.out else (
        results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print(json.dumps(report(res, spec, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
