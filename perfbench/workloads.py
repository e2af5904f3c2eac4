"""Workload definitions and the seeded input generator.

Every workload has K=4 synthetic classes that share one random orthonormal
basis. Each class has its own jittered spectrum, a few class-private
high-variance directions and a separated mean, so the conditional vs pooled
covariance contrast has both positive and negative CPCs. Class 0 is the
conditional class; the pool of all rows is the unconditional set.

Only generated files reach the program: LCFD1 data matrices, key=value
sampling configs and a mixture manifest. Nothing here imports lincfg.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 4                 # classes per workload
PRIVATE_DIRS = 4      # class-private high-variance directions per class
PRIVATE_VAR = 20.0    # variance along a private direction
MEAN_NORM = 3.0       # |mu_k|, several within-class std apart
GAMMA = 4.0

# Ablation cycle: each op runs the next entry, in this order. The "oracle"
# field names the independent check its output is held to (see oracle.py).
ABLATION_CYCLE: tuple[tuple[str, dict[str, str], str], ...] = (
    ("gamma0", {"gamma": "0"}, "plain"),
    ("pos_cpc", {"components": "pos_cpc"}, "dense"),
    ("neg_cpc", {"components": "neg_cpc"}, "dense"),
    ("mean_shift", {"components": "mean_shift"}, "dense"),
    ("freeze5", {"freeze_cpc_at": "5"}, "dense"),
    ("interval", {"interval": "0.3:5"}, "plain"),
    ("heun", {"heun": "true"}, "plain"),
    ("mean_shifted_init", {"init": "mean_shifted", "init_gamma": "4"}, "plain"),
    ("mixture", {"mixture": "mixture.txt", "target": "0"}, "mixture"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    m: int
    steps: int
    cycle: tuple         # (config name, overrides, oracle kind) per op
    rows_per_class: int

    @property
    def fits(self) -> list[tuple[str, str]]:
        """(data file, stats file) pairs that `lincfg fit` turns into stats."""
        classes = range(K) if any(c[2] == "mixture" for c in self.cycle) else (0,)
        return ([(f"class{k}.lcfd", f"class{k}.stats") for k in classes]
                + [("pool.lcfd", "pool.stats")])


_FULL = (("full", {}, "plain"),)

WORKLOADS = {
    # Why each workload exists, and its dominant layer, is in BENCHMARK.json.
    "wide-cfg": Workload("wide-cfg", d=768, m=256, steps=20, cycle=_FULL,
                         rows_per_class=1536),
    "batch-cfg": Workload("batch-cfg", d=256, m=4096, steps=20, cycle=_FULL,
                          rows_per_class=512),
    "ablation-sweep": Workload("ablation-sweep", d=128, m=1024, steps=50,
                               cycle=ABLATION_CYCLE, rows_per_class=256),
}


def smoke(w: Workload) -> Workload:
    """The same workload at a tiny shape that runs in well under a second."""
    return Workload(w.name, d=8, m=16, steps=4, cycle=w.cycle, rows_per_class=32)


def write_lcfd(path: Path, x: np.ndarray) -> None:
    """LCFD1 data matrix: magic, u32 n, u32 d, n*d little-endian f64."""
    n, d = x.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5sII", b"LCFD1", n, d))
        fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())


def generate(w: Workload, seed: int, workdir: Path) -> None:
    """Write the workload's data files, configs and mixture manifest."""
    rng = np.random.default_rng([seed, w.d, w.m, w.steps])
    d, n = w.d, w.rows_per_class
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    base = 1.0 / (1.0 + np.arange(d) / max(d / 16, 1.0)) ** 1.5
    p = max(1, min(PRIVATE_DIRS, d // (2 * K)))  # smoke shape has d=8
    private = rng.permutation(d)[:K * p].reshape(K, p)
    rows = []
    for k in range(K):
        lam = base * np.exp(0.3 * rng.standard_normal(d))
        lam[private[k]] = PRIVATE_VAR
        mu = rng.standard_normal(d)
        mu *= MEAN_NORM / np.linalg.norm(mu)
        rows.append(mu + (rng.standard_normal((n, d)) * np.sqrt(lam)) @ basis.T)
    needed = {data for data, _ in w.fits}
    for k in range(K):
        if f"class{k}.lcfd" in needed:
            write_lcfd(workdir / f"class{k}.lcfd", rows[k])
    write_lcfd(workdir / "pool.lcfd", np.concatenate(rows))

    if any(c[2] == "mixture" for c in w.cycle):
        (workdir / "mixture.txt").write_text(
            "".join(f"class{k}.stats {1.0 / K!r}\n" for k in range(K)))
    for name, overrides, _ in w.cycle:
        config = {"steps": str(w.steps), "m": str(w.m), "seed": str(seed),
                  "gamma": repr(GAMMA), "outdir": str(workdir / "out" / name)}
        if "mixture" in overrides:
            overrides = dict(overrides, mixture=str(workdir / overrides["mixture"]))
        else:
            config["cond_stats"] = str(workdir / "class0.stats")
            config["uncond_stats"] = str(workdir / "pool.stats")
        config.update(overrides)
        (workdir / f"{name}.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in config.items()))
