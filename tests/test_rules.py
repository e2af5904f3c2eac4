"""The input rules that several modules share, at every public entry point
that reads them: a noise level sigma, a pair (sigma_t, sigma_T) of a reverse
run, a guidance strength gamma, the dimension of a state, a unit direction,
finite values, an orthonormal basis and eigenvalues. Each rule is written
once, in ``lincfg.errors``; these tables hold every reader of it to the same
exception type and message. The guidance gain g(sigma), written once as
``GuidanceConfig.weight``, and the import cost of the quadrature rule are
tested here too."""

import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lincfg import analytic, cpca, denoiser, gmm, metrics, sampler
from lincfg.errors import DataError, ShapeError
from lincfg.stats import (STATS_MAGIC, STATS_VERSION, DataMatrix, GaussianStats,
                          data_matrix_to_bytes, load_stats, save_data_matrix)
from lincfg.synthetic import random_mixture, random_stats_pair, toy_common_pair

D = 4
COND, UNCOND = random_stats_pair(D, np.random.default_rng(3))
MODEL = random_mixture(D, 3, np.random.default_rng(4))
PAIR = toy_common_pair()  # d = 2
X = np.random.default_rng(5).standard_normal((2, D))
SCHED = sampler.make_schedule(n_steps=3)
CFG = sampler.GuidanceConfig(gamma=1.0)

# name -> (call(sigma), the name the message gives sigma)
SIGMA_READERS = {
    "denoiser.shrinkage": (lambda s: denoiser.shrinkage(COND, s), "sigma"),
    "denoiser.score": (lambda s: denoiser.score(COND, X, s), "sigma"),
    "cpca.posterior_cpcs": (lambda s: cpca.posterior_cpcs(COND, UNCOND, s), "sigma"),
    "gmm.posterior_weights": (lambda s: gmm.posterior_weights(MODEL, X, s), "sigma"),
    "gmm.mixture_score": (lambda s: gmm.mixture_score(MODEL, X, s), "sigma"),
    "gmm.mixture_denoise": (lambda s: gmm.mixture_denoise(MODEL, X, s), "sigma"),
    "gmm.gmm_cfg_guidance": (lambda s: gmm.gmm_cfg_guidance(MODEL, 0, X, s, 1.0), "sigma"),
    "sampler.guidance_terms": (lambda s: sampler.guidance_terms(COND, UNCOND, X, s, CFG),
                               "sigma"),
    "sampler.NoiseSchedule": (lambda s: sampler.NoiseSchedule([80.0, s, 1e-3]), "noise level"),
    "sampler.make_schedule.sigma_max": (lambda s: sampler.make_schedule(sigma_max=s),
                                        "sigma_max"),
    "sampler.make_schedule.sigma_min": (lambda s: sampler.make_schedule(sigma_min=s),
                                        "sigma_min"),
    "sampler.GuidanceConfig.freeze_cpc_at": (lambda s: sampler.GuidanceConfig(freeze_cpc_at=s),
                                             "freeze_cpc_at"),
}

# name -> (call(gamma), the name the message gives gamma)
GAMMA_READERS = {
    "sampler.GuidanceConfig": (lambda g: sampler.GuidanceConfig(gamma=g), "gamma"),
    "analytic.b_coefficient": (lambda g: analytic.b_coefficient(1.0, 2.0, 0.1, 1.0, g), "gamma"),
    "analytic.closed_form_cfg": (lambda g: analytic.closed_form_cfg(PAIR, X[:, :2], 0.1, 1.0, g),
                                 "gamma"),
    "metrics.mean_shifted_init": (lambda g: metrics.mean_shifted_init(COND, UNCOND, g), "gamma"),
    "gmm.gmm_cfg_guidance": (lambda g: gmm.gmm_cfg_guidance(MODEL, 0, X, 1.0, g), "gamma"),
    "sampler.draw_initial_states": (lambda g: sampler.draw_initial_states(
        D, 2, 0, SCHED, sampler.InitSpec(std=g)), "init std"),
}

# name -> (call(state), a state of the wrong dimension, the parent's message)
SHORT = X[:, :-1]
STATE_READERS = {
    "denoiser.score": (lambda x: denoiser.score(COND, x, 1.0), SHORT,
                       f"vector dimension {D - 1} != stats dimension {D}"),
    "cpca.variance_along": (lambda x: cpca.variance_along(COND, x), np.eye(D - 1)[0],
                            f"direction dimension {D - 1} != stats dimension {D}"),
    "gmm.mixture_score": (lambda x: gmm.mixture_score(MODEL, x, 1.0), SHORT,
                          f"state dimension {D - 1} != mixture dimension {D}"),
    "gmm.integrate": (lambda x: gmm.integrate(MODEL, 0, x, SCHED, CFG), SHORT,
                      f"state dimension {D - 1} != mixture dimension {D}"),
    "sampler.guidance_terms": (lambda x: sampler.guidance_terms(COND, UNCOND, x, 1.0, CFG),
                               SHORT, f"state dimension {D - 1} != stats dimension {D}"),
    "sampler.integrate": (lambda x: sampler.integrate(COND, UNCOND, x, SCHED, CFG), SHORT,
                          f"state dimension {D - 1} != stats dimension {D}"),
    "sampler.closed_form_unguided": (lambda x: sampler.closed_form_unguided(COND, x, 80.0, 1.0),
                                     SHORT, f"state dimension {D - 1} != stats dimension {D}"),
    "analytic.closed_form_cfg": (lambda x: analytic.closed_form_cfg(PAIR, x, 0.1, 1.0, 1.0),
                                 X[:, :1], "state dimension 1 != pair dimension 2"),
}


# name -> call(sigma_t, sigma_T); closed_form_unguided takes (sigma_T, sigma_t)
SIGMA_PAIR_READERS = {
    "analytic.h_factor": lambda t, T: analytic.h_factor(1.0, 2.0, t, T),
    "analytic.b_coefficient": lambda t, T: analytic.b_coefficient(1.0, 2.0, t, T, 1.0),
    "analytic.closed_form_cfg": lambda t, T: analytic.closed_form_cfg(PAIR, X[:, :2], t, T, 1.0),
    "sampler.closed_form_unguided": lambda t, T: sampler.closed_form_unguided(COND, X, T, t),
}

# name -> call(direction)
UNIT_READERS = {
    "cpca.variance_along": lambda v: cpca.variance_along(COND, v),
    "metrics.project_histogram": lambda v: metrics.project_histogram(X, v, np.zeros(D)),
}


def _with(a, value, index=0) -> np.ndarray:
    """A float copy of a with its entry at the flat ``index`` set to value."""
    out = np.array(a, dtype=np.float64)
    out.flat[index] = value
    return out


def _loaded(mean, eigvecs, eigvals) -> GaussianStats:
    """``load_stats`` of an LCFG1 file holding these arrays, written byte by
    byte, since ``save_stats`` takes only stats that already passed."""
    payload = np.concatenate([mean, eigvals, np.ravel(eigvecs)]).astype("<f8").tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.stats"
        path.write_bytes(struct.pack("<5sBI", STATS_MAGIC, STATS_VERSION, len(mean)) + payload)
        return load_stats(path)


def _saved(values) -> None:
    """``save_data_matrix`` of values, as ``lincfg sample`` writes samples.bin."""
    with tempfile.TemporaryDirectory() as tmp:
        save_data_matrix(values, Path(tmp) / "samples.bin")


def _pair(**bad) -> analytic.CommonPCPair:
    fields = dict(eigvecs=PAIR.eigvecs, lam_c=PAIR.lam_c, lam_uc=PAIR.lam_uc, mu_c=PAIR.mu_c,
                  mu_uc=PAIR.mu_uc)
    return analytic.CommonPCPair(**{**fields, **bad})


FINITE_STATE = (ShapeError, "initial state contains non-finite entries")

# name -> (call(value), exception type, message); each call puts value into one entry
FINITE_READERS = {
    "stats.GaussianStats": (lambda v: GaussianStats(_with(COND.mean, v), COND.eigvecs,
                                                    COND.eigvals),
                            DataError, "mean contains non-finite entries"),
    "stats.load_stats": (lambda v: _loaded(_with(COND.mean, v), COND.eigvecs, COND.eigvals),
                         DataError, "mean contains non-finite entries"),
    "stats.DataMatrix": (lambda v: DataMatrix(_with(X, v, -1)),
                         DataError, "data matrix contains non-finite entries"),
    "stats.data_matrix_to_bytes": (lambda v: data_matrix_to_bytes(_with(X, v, -1)),
                                   DataError, "data matrix contains non-finite entries"),
    "stats.save_data_matrix": (lambda v: _saved(_with(X, v, -1)),
                               DataError, "data matrix contains non-finite entries"),
    "analytic.CommonPCPair.mu_c": (lambda v: _pair(mu_c=_with(PAIR.mu_c, v)),
                                   DataError, "mu_c contains non-finite entries"),
    "analytic.CommonPCPair.mu_uc": (lambda v: _pair(mu_uc=_with(PAIR.mu_uc, v, 1)),
                                    DataError, "mu_uc contains non-finite entries"),
    "sampler.draw_initial_states": (lambda v: sampler.draw_initial_states(
        D, 2, 0, SCHED, sampler.InitSpec(shift=_with(np.zeros(D), v))),
        DataError, "init shift contains non-finite entries"),
    "analytic.closed_form_cfg": (lambda v: analytic.closed_form_cfg(
        PAIR, _with(X[:, :2], v), 0.1, 1.0, 1.0), *FINITE_STATE),
    "sampler.closed_form_unguided": (lambda v: sampler.closed_form_unguided(
        COND, _with(X, v), 80.0, 1.0), *FINITE_STATE),
    "sampler.integrate": (lambda v: sampler.integrate(COND, UNCOND, _with(X, v), SCHED, CFG),
                          *FINITE_STATE),
    "gmm.integrate": (lambda v: gmm.integrate(MODEL, 0, _with(X, v), SCHED, CFG),
                      *FINITE_STATE),
}

# name -> call(eigvecs)
BASIS_READERS = {
    "stats.GaussianStats": lambda U: GaussianStats(np.zeros(2), U, [2.0, 1.0]),
    "stats.load_stats": lambda U: _loaded(np.zeros(2), U, [2.0, 1.0]),
    "analytic.CommonPCPair": lambda U: _pair(eigvecs=U),
}

# name -> call(eigenvalue), the value put into one eigenvalue
EIGVAL_READERS = {
    "stats.GaussianStats": lambda v: GaussianStats(np.zeros(2), np.eye(2), [v, 0.0]),
    "stats.load_stats": lambda v: _loaded(np.zeros(2), np.eye(2), [v, 0.0]),
    "analytic.CommonPCPair.lam_c": lambda v: _pair(lam_c=_with(PAIR.lam_c, v)),
    "analytic.CommonPCPair.lam_uc": lambda v: _pair(lam_uc=_with(PAIR.lam_uc, v, 1)),
    "analytic.h_factor.lam_c": lambda v: analytic.h_factor(np.array([1.0, v]), 2.0, 0.1, 1.0),
    "analytic.h_factor.lam_uc": lambda v: analytic.h_factor(1.0, v, 0.1, 1.0),
    "analytic.b_coefficient.lam_c": lambda v: analytic.b_coefficient(v, 2.0, 0.1, 1.0, 1.0),
    "analytic.b_coefficient.lam_uc": lambda v: analytic.b_coefficient(1.0, v, 0.1, 1.0, 1.0),
}


def _raises_exactly(kind, message, call, *args):
    with pytest.raises(kind) as info:
        call(*args)
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(SIGMA_READERS))
def test_every_sigma_reader_rejects_a_bad_sigma(name, sigma):
    call, what = SIGMA_READERS[name]
    _raises_exactly(ValueError, f"{what} must be finite and positive, got {sigma}", call, sigma)


@pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(GAMMA_READERS))
def test_every_gamma_reader_rejects_a_bad_gamma(name, gamma):
    call, what = GAMMA_READERS[name]
    _raises_exactly(ValueError, f"{what} must be finite and >= 0, got {gamma}", call, gamma)


@pytest.mark.parametrize("name", sorted(STATE_READERS))
def test_every_state_reader_rejects_the_wrong_dimension(name):
    call, state, message = STATE_READERS[name]
    _raises_exactly(ShapeError, message, call, state)


@pytest.mark.parametrize("sigmas", [(1.0, math.inf), (0.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                    (1.0, math.nan)], ids=str)
@pytest.mark.parametrize("name", sorted(SIGMA_PAIR_READERS))
def test_every_sigma_pair_reader_rejects_a_bad_pair(name, sigmas):
    sigma_t, sigma_T = sigmas
    _raises_exactly(ValueError, f"need finite sigma_T >= sigma_t > 0, "
                    f"got sigma_t={sigma_t}, sigma_T={sigma_T}",
                    SIGMA_PAIR_READERS[name], sigma_t, sigma_T)


@pytest.mark.parametrize("v", [[2.0, 0.0, 0.0, 0.0], [0.0] * D, [math.nan, 0.0, 0.0, 0.0]],
                         ids=["norm2", "zeros", "nan"])
@pytest.mark.parametrize("name", sorted(UNIT_READERS))
def test_every_unit_reader_rejects_a_non_unit_direction(name, v):
    nrm = float(np.linalg.norm(v))
    _raises_exactly(ValueError, f"direction must be a unit vector, |v| = {nrm}",
                    UNIT_READERS[name], np.array(v))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(FINITE_READERS))
def test_every_finite_reader_rejects_a_non_finite_entry(name, value):
    call, kind, message = FINITE_READERS[name]
    _raises_exactly(kind, message, call, value)


_ROT = PAIR.eigvecs  # a 2x2 orthonormal basis


@pytest.mark.parametrize("U, kind, message", [
    (_with(_ROT, math.nan), DataError, "eigenbasis contains non-finite entries"),
    (_with(_ROT, math.inf, 3), DataError, "eigenbasis contains non-finite entries"),
    (_with(_ROT, -math.inf), DataError, "eigenbasis contains non-finite entries"),
    (np.full((2, 2), math.nan), DataError, "eigenbasis contains non-finite entries"),
    (1.5 * _ROT, DataError, "eigenbasis is not orthonormal within 1e-10"),
    (0.5 * _ROT, DataError, "eigenbasis is not orthonormal within 1e-10"),
    (np.ones((2, 2)), DataError, "eigenbasis is not orthonormal within 1e-10"),
], ids=["nan", "inf", "-inf", "all_nan", "long", "short", "ones"])
@pytest.mark.parametrize("name", sorted(BASIS_READERS))
def test_every_basis_reader_rejects_a_bad_basis(name, U, kind, message):
    _raises_exactly(kind, message, BASIS_READERS[name], U)


@pytest.mark.parametrize("name", ["stats.GaussianStats", "analytic.CommonPCPair"])
def test_every_basis_reader_rejects_a_non_square_basis(name):
    _raises_exactly(ShapeError, "eigenbasis must be square, got (2, 1)",
                    BASIS_READERS[name], _ROT[:, :1])


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(EIGVAL_READERS))
def test_every_eigenvalue_reader_rejects_a_bad_eigenvalue(name, lam):
    _raises_exactly(DataError, "eigenvalues must be finite and nonnegative",
                    EIGVAL_READERS[name], lam)


@pytest.mark.parametrize("interval", [None, (0.5, 10.0), (2.0, 2.0)])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 4.0])
def test_weight_is_the_gated_gamma(gamma, interval):
    """g(sigma) is gamma where the guidance is on and 0.0 elsewhere, at both
    ends of the interval and just past them, and 0.0 everywhere at gamma = 0;
    ``guidance_active`` is g > 0."""
    cfg = sampler.GuidanceConfig(gamma=gamma, active_interval=interval)
    sigmas = [1e-3, 0.5, np.nextafter(0.5, 0), 2.0, np.nextafter(2.0, 3), 10.0,
              np.nextafter(10.0, 11), 80.0]
    for s in sigmas:
        on = gamma > 0.0 and (interval is None or interval[0] <= s <= interval[1])
        assert cfg.weight(s) == (gamma if on else 0.0)
        assert cfg.weight(s) == (cfg.gamma if cfg.guidance_active(s) else 0.0)
        assert cfg.guidance_active(s) == on


def test_the_quadrature_rule_is_formed_on_first_use():
    """Importing the CLI leaves numpy.polynomial unloaded; the first b
    coefficient, the first reader of the Gauss-Legendre rule, loads it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "import lincfg.cli\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "from lincfg import analytic\n"
            "analytic.b_coefficient(1.0, 2.0, 0.1, 1.0, 2.0)\n"
            "assert 'numpy.polynomial' in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
