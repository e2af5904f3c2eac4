"""lincfg: a numerical laboratory for linear-Gaussian diffusion models and
classifier-free guidance analysis.

Covariances live in spectral form throughout; sampling follows the reverse
probability-flow ODE with the guidance drift decomposed into a conditional
score, signed contrastive-PC terms, and a mean-shift term, each independently
toggleable. Closed forms (unguided and common-PC guided) provide the oracles.
"""

__version__ = "0.4.21"  # samples are bit-identical only within one version

from . import _threads  # noqa: F401  (thread cap must precede numpy backends)

from .analytic import (CommonPCPair, CommonPCRejection, b_coefficient,
                       b_coefficients, check_common_pc, closed_form_cfg,
                       h_factor)
from .cpca import (SignedSpectrum, contrastive_components, posterior_cpcs,
                   variance_along)
from .denoiser import (denoise, mean_shift, score, shrink, shrinkage,
                       shrunk_covariance)
from .errors import (DataError, DivergenceError, FormatError, QuadratureError,
                     ShapeError)
from .gmm import (GmmGuidanceTerms, MixtureModel, PosteriorWeights,
                  gmm_cfg_guidance, load_mixture, mixture_denoise,
                  mixture_score, posterior_weights)
from .metrics import (ProjectionHistogram, class_similarity_matrix,
                      gaussian_frechet, mean_shifted_init, project_histogram)
from .sampler import (GuidanceConfig, GuidanceTerms, InitSpec, NoiseSchedule,
                      closed_form_unguided, guidance_terms, integrate,
                      make_schedule, sample_batch)
from .stats import (DataMatrix, GaussianStats, estimate_gaussian_stats,
                    load_data_csv, load_data_matrix, load_stats, pool_stats,
                    save_data_matrix, save_stats, spectral_from_covariance)
