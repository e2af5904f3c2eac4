"""Exception types shared across the package.

The CLI maps these onto its exit-code table, so library code should raise
the most specific type that applies. The input rules that several modules
share live here too, each written once: ``check_sigma``, ``check_sigma_pair``,
``check_gamma``, ``check_dimension``, ``check_unit``, ``check_finite``,
``check_basis``, ``check_eigvals``, and for a weighted list of Gaussian
components (a mixture, a pool, a set of classes) ``check_components`` and
``check_weights``.
"""

from math import inf, sqrt


class DataError(ValueError):
    """Raised for invalid numeric payloads (empty datasets, NaN/Inf entries)."""


class FormatError(ValueError):
    """Raised for malformed stats / data-matrix / manifest files."""


class ShapeError(ValueError):
    """Raised for dimension mismatches between vectors, matrices and stats."""


def check_sigma(sigma: float, what: str = "sigma") -> None:
    """A noise level ``what`` must be finite and positive (NaN fails)."""
    if not 0.0 < sigma < inf:
        raise ValueError(f"{what} must be finite and positive, got {sigma}")


def check_sigma_pair(sigma_t: float, sigma_T: float) -> None:
    """A reverse run goes from a finite sigma_T down to sigma_t > 0 (NaN fails)."""
    if not inf > sigma_T >= sigma_t > 0.0:
        raise ValueError(f"need finite sigma_T >= sigma_t > 0, "
                         f"got sigma_t={sigma_t}, sigma_T={sigma_T}")


def check_gamma(gamma: float, what: str = "gamma") -> None:
    """A guidance strength ``what``, or a scale such as a noise std, must be
    finite and >= 0 (NaN fails)."""
    if not 0.0 <= gamma < inf:
        raise ValueError(f"{what} must be finite and >= 0, got {gamma}")


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


def check_finite(v, what: str, error: type = DataError) -> float:
    """Every entry of the float array v (size >= 1) must be finite (NaN
    fails), or ``error`` is raised naming ``what``. One min and one max find
    any NaN or inf without a temporary; returns max|v|, from the same pair."""
    lo, hi = float(v.min()), float(v.max())  # NaN propagates to both
    if not -inf < lo <= hi < inf:
        raise error(f"{what} contains non-finite entries")
    return max(hi, -lo)


def check_basis(U, what: str) -> None:
    """A basis, a float array U, must be square and finite (``check_finite``
    goes first, so an inf entry fails here, not inside the product), and then
    orthonormal: max|U^T U - I| <= 1e-10 (NaN fails). The product is one
    syrk into a (d, d) block, taken to U^T U - I in place; its min and max
    bound |U^T U - I| without a temporary."""
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ShapeError(f"{what} must be square, got {U.shape}")
    check_finite(U, what)
    gram = U.T @ U
    gram.flat[::len(gram) + 1] -= 1.0
    if not -1e-10 <= gram.min() <= gram.max() <= 1e-10:
        raise DataError(f"{what} is not orthonormal within 1e-10")


def check_eigvals(*lams) -> None:
    """Every eigenvalue in each float array of lams must be finite and >= 0
    (NaN fails)."""
    if not all(0.0 <= lam.min() <= lam.max() < inf for lam in lams):
        raise DataError("eigenvalues must be finite and nonnegative")


def check_components(stats, least: int, what: str) -> int:
    """A list of Gaussian stats ``what`` must hold at least ``least`` >= 1 of
    them (``DataError``), all of one dimension (``ShapeError``), which is
    returned."""
    if len(stats) < least:
        raise DataError(f"{what} must number at least {least}, got {len(stats)}")
    dims = [s.d for s in stats]
    if len(set(dims)) != 1:
        raise ShapeError(f"{what} must share one dimension, got {dims}")
    return dims[0]


def check_weights(w, k: int, what: str) -> None:
    """Weights ``what``, a float array w, must have shape (k,) (``ShapeError``)
    and every weight must be finite and > 0 (``DataError``; NaN fails)."""
    if w.shape != (k,):
        raise ShapeError(f"{what} must have shape ({k},), got {w.shape}")
    if not 0.0 < w.min() <= w.max() < inf:
        raise DataError(f"{what} must be finite and positive, got {w.tolist()}")


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
