"""One workload run in one process: a closed loop of `lincfg sample` ops.

Started by run.py with LCFG_THREADS pinned and lincfg's src on PYTHONPATH.
Each op is one lincfg.cli.main(["sample", "--config", ...]) call; the next
starts when the previous returns. After one untimed warm-up op, ops run
until the time budget is spent (ablation-sweep stops only at whole cycles).
Outside the timed region each op's samples.bin is hashed and compared with
the first output of the same config in this run, and after the loop that
first output is checked against its oracle.

With --trace 1 the budget is split: untraced ops first, then the same ops
with the tracer installed; the workload's fits also run traced, in process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import lincfg  # first: applies LCFG_THREADS before numpy loads
from lincfg import cli
import numpy as np

import oracle
import workloads
from tracer import Tracer


class Runner:
    def __init__(self, w: workloads.Workload, workdir: Path):
        self.w = w
        self.workdir = workdir
        self.ops: list[dict] = []
        self.refs: dict[str, str | None] = {}   # config -> first output's sha256

    def one(self, name: str) -> dict:
        argv = ["sample", "--config", str(self.workdir / f"{name}.cfg")]
        with contextlib.redirect_stdout(io.StringIO()):
            c0, t0 = os.times(), time.perf_counter()
            rc = cli.main(argv)
            dt, c1 = time.perf_counter() - t0, os.times()
        out = self.workdir / "out" / name
        digest = None
        if rc == 0:
            digest = hashlib.sha256((out / "samples.bin").read_bytes()).hexdigest()
        if name not in self.refs:
            self.refs[name] = digest
            if digest:
                shutil.copyfile(out / "samples.bin", out / "reference.bin")
        return {"config": name, "s": dt, "user_s": c1.user - c0.user,
                "sys_s": c1.system - c0.system, "rc": rc, "sha256": digest,
                "samples": self.w.m if rc == 0 else 0}

    def loop(self, seconds: float, phase: str, tracer: Tracer | None = None) -> None:
        start = time.perf_counter()
        while True:
            for name, _, _ in self.w.cycle:
                if tracer is not None:
                    tracer.op = len(self.ops)
                    with tracer.span("op"):
                        op = self.one(name)
                else:
                    op = self.one(name)
                op["phase"] = phase
                self.ops.append(op)
            if time.perf_counter() - start >= seconds:
                return

    def check(self) -> dict[str, float]:
        """Oracle error of each config's first output; marks every op ok or not."""
        errors = {}
        for name, _, kind in self.w.cycle:
            ref = self.workdir / "out" / name / "reference.bin"
            errors[name] = (oracle.check(kind, self.workdir / f"{name}.cfg", ref)
                            if self.refs[name] else float("inf"))
        for op in self.ops:
            op["ok"] = bool(op["rc"] == 0 and op["sha256"] == self.refs[op["config"]]
                            and errors[op["config"]] <= oracle.TOL)
        return errors


def layer_metrics(tracer: Tracer, ops: list[int], fit_ops: list[str]) -> dict:
    """Per-layer metrics per op, averaged over the traced ops (stats.fit_s is
    the total over the workload's fits)."""
    spans, counts = tracer.summarize(ops)
    n = len(ops)

    def s(name, key="s"):
        return spans.get(name, {}).get(key, 0.0) / n

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / n

    op_set = set(ops)
    mixture_drift_evals = sum(
        1 for op, name, _, _, parent in tracer.spans
        if op in op_set and name == "denoiser.score" and parent >= 0
        and tracer.spans[parent][1] == "sampler.integrate_with_scores")
    drift_evals = calls("sampler.guidance_terms") + mixture_drift_evals / n
    fit_spans, _ = tracer.summarize(fit_ops)
    return {
        "cpca.posterior_cpcs_s": s("cpca.posterior_cpcs"),
        "cpca.posterior_cpcs_calls": calls("cpca.posterior_cpcs"),
        "cpca.contrastive_components_self_s": s("cpca.contrastive_components", "self_s"),
        "cpca.decomps_per_drift_eval":
            calls("cpca.contrastive_components") / drift_evals if drift_evals else 0.0,
        "denoiser.shrunk_covariance_s": s("denoiser.shrunk_covariance"),
        "denoiser.shrunk_covariance_calls": calls("denoiser.shrunk_covariance"),
        "denoiser.score_s": s("denoiser.score"),
        "denoiser.score_calls": calls("denoiser.score"),
        "sampler.guidance_terms_self_s": s("sampler.guidance_terms", "self_s"),
        "sampler.guidance_terms_calls": calls("sampler.guidance_terms"),
        "sampler.integrate_self_s": s("sampler.integrate", "self_s"),
        "sampler.integrate_with_scores_self_s": s("sampler.integrate_with_scores", "self_s"),
        "sampler.draw_initial_states_s": s("sampler.draw_initial_states"),
        "sampler.projection_flops": counts.get("sampler.projection_flops", 0) / n,
        "gmm.mixture_score_s": s("gmm.mixture_score"),
        "gmm.mixture_score_calls": calls("gmm.mixture_score"),
        "gmm.load_mixture_s": s("gmm.load_mixture"),
        "stats.load_stats_s": s("stats.load_stats"),
        "stats.load_bytes": counts.get("stats.load_bytes", 0) / n,
        "stats.fit_s": fit_spans.get("stats.estimate_gaussian_stats", {}).get("s", 0.0),
        "stats.data_matrix_to_bytes_s": s("stats.data_matrix_to_bytes"),
        "metrics.mean_shifted_init_s": s("metrics.mean_shifted_init"),
        "fileio.atomic_write_bytes_s": s("fileio.atomic_write_bytes"),
        "fileio.bytes_written": counts.get("fileio.bytes_written", 0) / n,
        "cli.sample_self_s": s("cli.cmd_sample", "self_s"),
        "trace.unattributed_s": s("op", "self_s"),
    }


def shares(tracer: Tracer, ops: list[int]) -> dict:
    """Self time per layer (module) and inclusive time per traced function,
    each as a share of op time."""
    spans, _ = tracer.summarize(ops)
    total = spans["op"]["s"]
    layers: dict = {}
    for name, row in spans.items():
        layer = name.split(".")[0] if "." in name else "unattributed"
        layers[layer] = layers.get(layer, 0.0) + row["self_s"] / total
    return {"layer_self": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
            "function": {name: row["s"] / total for name, row in spans.items()}}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"lincfg": lincfg.__version__, "numpy": np.__version__,
            "python": platform.python_version(), "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "LCFG_THREADS": os.environ.get("LCFG_THREADS"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    workdir = Path(args.workdir)
    runner = Runner(w, workdir)
    result: dict = {"environment": environment()}

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        for i, (data, stats) in enumerate(w.fits):
            tracer.op = f"fit{i}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["fit", str(workdir / data), str(workdir / stats)])
            if rc != 0:
                raise SystemExit(f"lincfg fit {data} exited {rc}")
        tracer.uninstall()

    runner.one(w.cycle[0][0])  # warm-up: untimed, but its output is config 0's reference
    if tracer is None:
        runner.loop(args.seconds, "timed")
    else:
        runner.loop(args.seconds / 2, "untraced")
        first_traced = len(runner.ops)
        tracer.install()
        runner.loop(args.seconds / 2, "traced", tracer)
        tracer.uninstall()
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["oracle_errors"] = runner.check()
    result["ops"] = runner.ops

    if tracer is not None:
        traced = list(range(first_traced, len(runner.ops)))
        metrics = layer_metrics(tracer, traced, [f"fit{i}" for i in range(len(w.fits))])
        p50 = {phase: statistics.median(op["s"] for op in runner.ops if op["phase"] == phase)
               for phase in ("untraced", "traced")}
        metrics["trace.overhead_frac"] = p50["traced"] / p50["untraced"] - 1.0
        result["per_layer"] = metrics
        result["shares"] = {"all": shares(tracer, traced)}
        if len(w.cycle) > 1:
            for name, _, _ in w.cycle:
                result["shares"][name] = shares(
                    tracer, [i for i in traced if runner.ops[i]["config"] == name])
        tracer.write(workdir / "spans.jsonl")
    (workdir / "worker_result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
