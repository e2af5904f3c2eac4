"""The input rules that several modules share, at every public entry point
that reads them: a noise level sigma, a guidance strength gamma and the
dimension of a state. Each rule is written once, in ``lincfg.errors``; these
tables hold every reader of it to the same exception type and message. The
guidance gain g(sigma), written once as ``GuidanceConfig.weight``, and the
import cost of the quadrature rule are tested here too."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lincfg import analytic, cpca, denoiser, gmm, metrics, sampler
from lincfg.errors import ShapeError
from lincfg.synthetic import random_mixture, random_stats_pair, toy_common_pair

D = 4
COND, UNCOND = random_stats_pair(D, np.random.default_rng(3))
MODEL = random_mixture(D, 3, np.random.default_rng(4))
PAIR = toy_common_pair()  # d = 2
X = np.random.default_rng(5).standard_normal((2, D))
SCHED = sampler.make_schedule(n_steps=3)
CFG = sampler.GuidanceConfig(gamma=1.0)

# name -> call(sigma)
SIGMA_READERS = {
    "denoiser.shrinkage": lambda s: denoiser.shrinkage(COND, s),
    "denoiser.score": lambda s: denoiser.score(COND, X, s),
    "cpca.posterior_cpcs": lambda s: cpca.posterior_cpcs(COND, UNCOND, s),
    "gmm.posterior_weights": lambda s: gmm.posterior_weights(MODEL, X, s),
    "gmm.mixture_score": lambda s: gmm.mixture_score(MODEL, X, s),
    "gmm.mixture_denoise": lambda s: gmm.mixture_denoise(MODEL, X, s),
    "gmm.gmm_cfg_guidance": lambda s: gmm.gmm_cfg_guidance(MODEL, 0, X, s, 1.0),
    "sampler.guidance_terms": lambda s: sampler.guidance_terms(COND, UNCOND, X, s, CFG),
}

# name -> call(gamma)
GAMMA_READERS = {
    "sampler.GuidanceConfig": lambda g: sampler.GuidanceConfig(gamma=g),
    "analytic.b_coefficient": lambda g: analytic.b_coefficient(1.0, 2.0, 0.1, 1.0, g),
    "analytic.closed_form_cfg": lambda g: analytic.closed_form_cfg(PAIR, X[:, :2], 0.1, 1.0, g),
    "metrics.mean_shifted_init": lambda g: metrics.mean_shifted_init(COND, UNCOND, g),
    "gmm.gmm_cfg_guidance": lambda g: gmm.gmm_cfg_guidance(MODEL, 0, X, 1.0, g),
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


def _raises_exactly(kind, message, call, *args):
    with pytest.raises(kind) as info:
        call(*args)
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(SIGMA_READERS))
def test_every_sigma_reader_rejects_a_bad_sigma(name, sigma):
    _raises_exactly(ValueError, f"sigma must be finite and positive, got {sigma}",
                    SIGMA_READERS[name], sigma)


@pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(GAMMA_READERS))
def test_every_gamma_reader_rejects_a_bad_gamma(name, gamma):
    _raises_exactly(ValueError, f"gamma must be finite and >= 0, got {gamma}",
                    GAMMA_READERS[name], gamma)


@pytest.mark.parametrize("name", sorted(STATE_READERS))
def test_every_state_reader_rejects_the_wrong_dimension(name):
    call, state, message = STATE_READERS[name]
    _raises_exactly(ShapeError, message, call, state)


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
