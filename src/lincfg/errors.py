"""Exception types shared across the package.

The CLI maps these onto its exit-code table, so library code should raise
the most specific type that applies.
"""


class DataError(ValueError):
    """Raised for invalid numeric payloads (empty datasets, NaN/Inf entries)."""


class FormatError(ValueError):
    """Raised for malformed stats / data-matrix / manifest files."""


class ShapeError(ValueError):
    """Raised for dimension mismatches between vectors, matrices and stats."""


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
