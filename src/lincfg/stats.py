"""Empirical Gaussian statistics in spectral form, plus their file formats.

Covariances are kept as an eigendecomposition ``Sigma = U diag(lam) U^T``
throughout the package; nothing downstream ever inverts a dense matrix.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, FormatError, ShapeError, check_basis, check_dimension,
                     check_eigvals, check_finite)
from .fileio import atomic_write_bytes

STATS_MAGIC = b"LCFG1"
DATA_MAGIC = b"LCFD1"
STATS_VERSION = 1


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """a itself when it is a read-only, C-contiguous float64 array (one that
    np.frombuffer made from file bytes, say), else a read-only C-ordered
    float64 copy: a Fortran-ordered or strided basis is stored in the layout
    of every other, so the GEMMs that read it round the same way."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable
            and a.flags.c_contiguous):
        return a
    out = np.array(a, dtype=np.float64, copy=True, order="C")
    out.setflags(write=False)
    return out


def _checked(values) -> np.ndarray:
    """values as a float64 array, not copied, once it is 2-D with n, d >= 1
    and finite (``check_finite``)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ShapeError(f"data matrix must be 2-D, got shape {v.shape}")
    if v.shape[0] < 1 or v.shape[1] < 1:
        raise DataError(f"data matrix needs n >= 1 and d >= 1, got {v.shape}")
    check_finite(v, "data matrix")
    return v


@dataclass(frozen=True)
class DataMatrix:
    """n x d matrix of samples, one row per sample."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(_checked(self.values)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GaussianStats:
    """Mean and spectral covariance of one class (or the unconditional pool).

    ``eigvecs`` holds orthonormal eigenvectors as columns, ``eigvals`` the
    matching nonnegative eigenvalues sorted descending.
    """

    mean: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        U = np.asarray(self.eigvecs, dtype=np.float64)
        lam = np.asarray(self.eigvals, dtype=np.float64).reshape(-1)
        check_basis(U, "eigenbasis")
        check_dimension(len(mean), len(U), "mean", "eigenbasis")
        check_dimension(len(lam), len(U), "eigvals", "eigenbasis")
        check_finite(mean, "mean")
        check_eigvals(lam)
        if np.any(np.diff(lam) > 0):
            raise DataError("eigenvalues must be sorted descending")
        object.__setattr__(self, "mean", _as_readonly(mean))
        object.__setattr__(self, "eigvecs", _as_readonly(U))
        object.__setattr__(self, "eigvals", _as_readonly(lam))

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    def covariance(self) -> np.ndarray:
        """Materialize Sigma = U diag(lam) U^T (test/diagnostic use)."""
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T


def check_pair(a: GaussianStats, b: GaussianStats) -> None:
    check_dimension(b.d, a.d, "stats", "stats")


def fix_eigvec_signs(U: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (in place safe)."""
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def spectral_from_covariance(mean: np.ndarray, cov: np.ndarray,
                             label: str | None = None) -> GaussianStats:
    """Eigendecompose a symmetric PSD covariance into GaussianStats.

    Negative round-off eigenvalues are clamped to zero and columns get the
    deterministic sign convention.
    """
    cov = np.asarray(cov, dtype=np.float64)
    sym = 0.5 * (cov + cov.T)
    lam, U = np.linalg.eigh(sym)
    lam = lam[::-1].copy()
    U = U[:, ::-1]
    np.clip(lam, 0.0, None, out=lam)
    return GaussianStats(mean=mean, eigvecs=fix_eigvec_signs(U), eigvals=lam, label=label)


def estimate_gaussian_stats(data: DataMatrix, label: str | None = None) -> GaussianStats:
    """Fit mean and population covariance (1/n) of a data matrix.

    The covariance is returned in spectral form; eigenvalues that come out
    slightly negative from round-off are clamped at zero.
    """
    x = data.values if isinstance(data, DataMatrix) else _checked(data)
    mu = x.mean(axis=0)
    centered = x - mu
    cov = (centered.T @ centered) / len(x)
    return spectral_from_covariance(mu, cov, label=label)


def pool_stats(stats_list: list[GaussianStats],
               weights: np.ndarray | None = None,
               label: str | None = None) -> GaussianStats:
    """Moment-match a weighted pool of Gaussians into a single GaussianStats.

    mu = sum_i w_i mu_i and Sigma = sum_i w_i (Sigma_i + mu_i mu_i^T) - mu mu^T,
    i.e. the mean/covariance of the mixture distribution.
    """
    if not stats_list:
        raise DataError("cannot pool an empty stats list")
    d = stats_list[0].d
    if any(s.d != d for s in stats_list):
        raise ShapeError("all pooled stats must share the same dimension")
    k = len(stats_list)
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (k,) or np.any(w <= 0):
        raise DataError("pool weights must be positive, one per class")
    w = w / w.sum()
    mu = sum(wi * s.mean for wi, s in zip(w, stats_list))
    second = np.zeros((d, d))
    for wi, s in zip(w, stats_list):
        second += wi * (s.covariance() + np.outer(s.mean, s.mean))
    return spectral_from_covariance(mu, second - np.outer(mu, mu), label=label)


# ---------------------------------------------------------------------------
# File formats (little-endian binary)
#
# Stats file:  magic "LCFG1", u8 version=1, u32 d,
#              d f64 mean, d f64 eigvals (descending), d*d f64 eigvecs
#              (row-major, columns are eigenvectors).
# Data file:   magic "LCFD1", u32 n, u32 d, n*d f64 row-major.
# ---------------------------------------------------------------------------


def _read_exact(fh: io.BufferedReader, count: int, offset: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError(
            f"truncated file: expected {count} bytes for {what} at offset {offset}, "
            f"got {len(buf)}")
    return buf


def _read_payload(fh: io.BufferedReader, offset: int, count: int, shape: str) -> np.ndarray:
    """The ``count`` float64 values that follow the header at ``offset``.

    The file size is checked against them first, so a header that declares
    more (or less) than the file holds fails before any payload is read.
    """
    declared, actual = 8 * count, os.fstat(fh.fileno()).st_size - offset
    if actual != declared:
        raise FormatError(f"header declares {shape}: expected {declared} payload bytes "
                          f"at offset {offset}, file has {actual}")
    return np.frombuffer(_read_exact(fh, declared, offset, "payload"), dtype="<f8")


def stats_to_bytes(stats: GaussianStats) -> bytes:
    payload = bytearray()
    payload += struct.pack("<5sBI", STATS_MAGIC, STATS_VERSION, stats.d)
    payload += stats.mean.astype("<f8").tobytes()
    payload += stats.eigvals.astype("<f8").tobytes()
    payload += np.ascontiguousarray(stats.eigvecs, dtype="<f8").tobytes()
    return bytes(payload)


def save_stats(stats: GaussianStats, path) -> None:
    atomic_write_bytes(path, stats_to_bytes(stats))


def load_stats(path) -> GaussianStats:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 5, 0, "magic")
        if magic != STATS_MAGIC:
            raise FormatError(f"bad magic at offset 0: {magic!r} != {STATS_MAGIC!r}")
        version, d = struct.unpack("<BI", _read_exact(fh, 5, 5, "header"))
        if version != STATS_VERSION:
            raise FormatError(f"unsupported stats version {version} at offset 5")
        if d < 1:
            raise FormatError(f"invalid dimension {d} at offset 6")
        payload = _read_payload(fh, 10, 2 * d + d * d, f"d={d}")
    return GaussianStats(mean=payload[:d], eigvals=payload[d:2 * d],
                         eigvecs=payload[2 * d:].reshape(d, d))


def data_matrix_to_bytes(values: np.ndarray) -> bytearray:
    """The LCFD1 file image of the (n, d) values, built in one buffer: they
    are copied once, straight into little-endian float64 after the 13-byte
    header. ``save_data_matrix`` writes the same bytes without building it."""
    v = _checked(values)
    out = bytearray(13 + 8 * v.size)
    struct.pack_into("<5sII", out, 0, DATA_MAGIC, *v.shape)
    np.frombuffer(out, "<f8", offset=13).reshape(v.shape)[...] = v
    return out


def save_data_matrix(values: np.ndarray, path) -> None:
    """Write the (n, d) values as an LCFD1 file: the 13-byte header, then
    their own little-endian C-order buffer (copied only if they are not
    already in that layout), so no file image of the whole matrix is built."""
    v = np.ascontiguousarray(_checked(values), dtype="<f8")
    atomic_write_bytes(path, struct.pack("<5sII", DATA_MAGIC, *v.shape), memoryview(v).cast("B"))


def load_data_matrix(path) -> DataMatrix:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 5, 0, "magic")
        if magic != DATA_MAGIC:
            raise FormatError(f"bad magic at offset 0: {magic!r} != {DATA_MAGIC!r}")
        n, d = struct.unpack("<II", _read_exact(fh, 8, 5, "header"))
        if n < 1 or d < 1:
            raise FormatError(f"invalid shape ({n},{d}) at offset 5")
        values = _read_payload(fh, 13, n * d, f"n={n} d={d}").reshape(n, d)
    return DataMatrix(values)


def load_data_csv(path) -> DataMatrix:
    """CSV reader for small cases: one sample per line, comma separated."""
    try:
        values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2,
                            comments="#")
    except ValueError as exc:
        raise FormatError(f"cannot parse CSV data file {path}: {exc}") from exc
    values.setflags(write=False)  # no other reference: DataMatrix keeps it, uncopied
    return DataMatrix(values)


def load_data_any(path) -> DataMatrix:
    """Sniff the magic and fall back to CSV for non-binary files."""
    with open(path, "rb") as fh:
        head = fh.read(5)
    if head == DATA_MAGIC:
        return load_data_matrix(path)
    return load_data_csv(path)
