"""In-memory span tracer installed around lincfg's public functions.

Spans are recorded from wrappers that live here, not in lincfg: each traced
function is replaced by one wrapper in every lincfg module namespace that
binds it (a function imported with ``from .x import f`` is looked up in the
importing module, so patching only its home module misses those calls).
A span is (op, name, start, end, parent); self time is duration minus the
part covered by child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, function) pairs to trace; the module name is the metric layer.
TRACED = (
    ("cpca", "posterior_cpcs"), ("cpca", "contrastive_components"),
    ("denoiser", "shrunk_covariance"), ("denoiser", "score"),
    ("sampler", "guidance_terms"), ("sampler", "integrate"),
    ("sampler", "integrate_with_scores"), ("sampler", "draw_initial_states"),
    ("gmm", "mixture_score"), ("gmm", "load_mixture"),
    ("stats", "load_stats"), ("stats", "estimate_gaussian_stats"),
    ("stats", "data_matrix_to_bytes"),
    ("metrics", "mean_shifted_init"),
    ("fileio", "atomic_write_bytes"),
    ("cli", "cmd_sample"),
)


def projection_flops(args, kwargs, cpc) -> int:
    """Flops (2 per multiply-add) of one guidance_terms call's projections.

    f_c projects the (m, d) state onto the d eigenvectors and back; each CPC
    sign projects onto its n_pos / n_neg directions and back; the mean shift
    is one d x d matrix-vector pair. Computed from shapes, not counted.
    """
    cond, _, x, sigma, cfg = args[:5]
    cpc = kwargs.get("_cpc") or cpc
    rows = int(np.prod(np.shape(x)[:-1]))
    d = cond.d
    flops = 4 * rows * d * d if cfg.enable_cond else 0
    if cfg.guidance_active(sigma) and cfg.gamma > 0.0:
        if cfg.enable_pos_cpc or cfg.enable_neg_cpc:
            flops += 4 * rows * d * (cpc.n_pos * cfg.enable_pos_cpc
                                     + cpc.n_neg * cfg.enable_neg_cpc)
        if cfg.enable_mean_shift:
            flops += 4 * d * d
    return flops


class Tracer:
    """Records spans and counters of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []          # [op, name, start, end, parent]
        self.counts: dict = defaultdict(int)  # (op, metric name) -> count
        self.op = None
        self._stack: list[int] = []
        self._last_cpc = None
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        self._stack.append(len(self.spans))
        self.spans.append([self.op, name, time.perf_counter(), None,
                           self._stack[-2] if len(self._stack) > 1 else -1])
        try:
            yield
        finally:
            self.spans[self._stack.pop()][3] = time.perf_counter()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._count(name, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, kwargs, out) -> None:
        if name == "cpca.posterior_cpcs":
            self._last_cpc = out
        elif name == "sampler.guidance_terms":
            self.counts[(self.op, "sampler.projection_flops")] += projection_flops(
                args, kwargs, self._last_cpc)
        elif name == "stats.load_stats":
            self.counts[(self.op, "stats.load_bytes")] += os.path.getsize(args[0])
        elif name == "fileio.atomic_write_bytes":
            self.counts[(self.op, "fileio.bytes_written")] += len(args[1])

    def install(self) -> None:
        """Replace every binding of each traced function across lincfg."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lincfg" or n.startswith("lincfg."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"lincfg.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def summarize(self, ops) -> tuple[dict, dict]:
        """Totals over the given ops: per span name {calls, s, self_s}, and
        per counter name its sum."""
        ops = set(ops)
        covered = defaultdict(float)
        for op, _, start, end, parent in self.spans:
            if op in ops and parent >= 0:
                covered[parent] += end - start  # one thread: children never overlap
        spans: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (op, name, start, end, _) in enumerate(self.spans):
            if op in ops:
                row = spans[name]
                row["calls"] += 1
                row["s"] += end - start
                row["self_s"] += end - start - covered[i]
        counts: dict = defaultdict(int)
        for (op, name), value in self.counts.items():
            if op in ops:
                counts[name] += value
        return dict(spans), dict(counts)
