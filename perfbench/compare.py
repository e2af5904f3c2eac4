"""Compare result files of two versions of lincfg on one workload.

usage: python3 perfbench/compare.py --old A1.json [A2.json ...] --new B1.json [B2.json ...]

Each side's files are runs of one workload (different --seed values). For
every metric found in them it prints each side's median and quartiles and
the change of the medians; an end-to-end metric whose median got worse by
more than its BENCHMARK.json bound is marked REGRESSION, and one whose
quartile spread on either side exceeds its bound is marked unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("numpy", "python", "blas", "blas_version", "LCFG_THREADS", "nproc")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def values(results: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for res in results:
        for name, value in res.get("end_to_end", res.get("per_layer", {})).items():
            out.setdefault(name, []).append(value)
    return out


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    old, new = load(args.old), load(args.new)
    workloads = {r["workload"] for r in old + new}
    if len(workloads) != 1 or len({r["trace"] for r in old + new}) != 1:
        print(f"error: mixed workloads or trace modes: {sorted(workloads)}", file=sys.stderr)
        return 2
    for key in ENV_KEYS:
        seen = {str(r["environment"].get(key)) for r in old + new}
        if len(seen) > 1:
            print(f"warning: environment differs in {key}: {sorted(seen)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = values(old), values(new)
    print(f"{workloads.pop()}: {len(old)} old runs, {len(new)} new runs; "
          f"failed ops old {sum(r['failed'] for r in old)}, new {sum(r['failed'] for r in new)}")
    for name in a:
        if name not in b:
            continue
        spec_m = metrics.get(name, {})
        qa, qb = quartiles(a[name]), quartiles(b[name])
        change = qb[1] / qa[1] - 1.0 if qa[1] else float("nan")
        verdict = ""
        if "bound" in spec_m:
            worse = change if spec_m["better"] == "lower" else -change
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb) if q[1])
            if spread > spec_m["bound"]:
                verdict = "unresolved"
            elif worse > spec_m["bound"]:
                verdict = "REGRESSION"
        print(f"  {name:40s} old {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
              f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change:+.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
