"""Exception types shared across the package.

The CLI maps these onto its exit-code table, so library code should raise
the most specific type that applies. The input rules that several modules
share live here too, each written once: ``check_sigma``, ``check_sigma_pair``,
``check_gamma``, ``check_dimension`` and ``check_unit``.
"""

from math import inf, sqrt


class DataError(ValueError):
    """Raised for invalid numeric payloads (empty datasets, NaN/Inf entries)."""


class FormatError(ValueError):
    """Raised for malformed stats / data-matrix / manifest files."""


class ShapeError(ValueError):
    """Raised for dimension mismatches between vectors, matrices and stats."""


def check_sigma(sigma: float) -> None:
    """A noise level must be finite and positive (NaN fails)."""
    if not 0.0 < sigma < inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")


def check_sigma_pair(sigma_t: float, sigma_T: float) -> None:
    """A reverse run goes from a finite sigma_T down to sigma_t > 0 (NaN fails)."""
    if not inf > sigma_T >= sigma_t > 0.0:
        raise ValueError(f"need finite sigma_T >= sigma_t > 0, "
                         f"got sigma_t={sigma_t}, sigma_T={sigma_T}")


def check_gamma(gamma: float) -> None:
    """A guidance strength must be finite and >= 0 (NaN fails)."""
    if not 0.0 <= gamma < inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")


def check_dimension(n: int, d: int, what: str = "state", against: str = "stats") -> None:
    """A ``what`` of dimension n must match the ``against`` dimension d."""
    if n != d:
        raise ShapeError(f"{what} dimension {n} != {against} dimension {d}")


def check_unit(v) -> None:
    """A direction, a 1-D float array v, must be a unit vector: |v| within
    1e-8 of 1 (NaN fails). |v| = sqrt(v @ v) is what ``np.linalg.norm``
    returns for such a v."""
    nrm = sqrt(v @ v)
    if not abs(nrm - 1.0) <= 1e-8:
        raise ValueError(f"direction must be a unit vector, |v| = {nrm}")


class DivergenceError(RuntimeError):
    """Raised when an ODE trajectory leaves the finite-magnitude guard.

    Carries the offending step index and, for runs of more than one sample,
    the sample index.
    """

    def __init__(self, message: str, step: int, sample: int | None = None):
        super().__init__(message)
        self.step = step
        self.sample = sample


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance.

    ``estimate`` holds the best value achieved before giving up.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate
