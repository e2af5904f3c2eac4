"""Figure and image emitters: binary PPM/PGM, hand-rolled SVG bar charts and
heatmaps, CSV tables. Images are written atomically through ``fileio``."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .fileio import atomic_write_bytes
from .metrics import ProjectionHistogram

__all__ = [
    "parse_shape", "check_image_shape", "vector_to_image", "encode_pnm", "write_image",
    "histogram_csv", "matrix_csv", "histogram_svg", "heatmap_svg",
]


# ---------------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------------


def parse_shape(spec: str) -> tuple[int, int, int]:
    """Parse 'HxWxC' (or 'HxW' for grayscale) into a (H, W, C) tuple; a malformed
    spec is a FormatError."""
    parts = spec.lower().split("x")
    if len(parts) == 2:
        parts.append("1")
    try:
        h, w, c = (int(p) for p in parts)
    except ValueError:
        raise FormatError(f"image shape must be integers HxWxC, got {spec!r}") from None
    if h < 1 or w < 1 or c not in (1, 3):
        raise FormatError(f"invalid image shape {spec!r} (C must be 1 or 3)")
    return h, w, c


def check_image_shape(shape: tuple[int, int, int], d: int) -> None:
    """Raise ShapeError unless an HxWxC image holds exactly d values."""
    h, w, c = shape
    if h * w * c != d:
        raise ShapeError(f"cannot reshape d={d} into {h}x{w}x{c}")


def vector_to_image(vec: np.ndarray, shape: tuple[int, int, int],
                    fixed_range: tuple[float, float] | None = None) -> np.ndarray:
    """Reshape a flat vector to (H, W, C) uint8.

    Values map affinely min -> 0, max -> 255; a constant vector renders as
    mid gray. ``fixed_range`` clamps into the given interval instead, for
    pixel data known to live there (e.g. [-1, 1]).
    """
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    check_image_shape(shape, vec.size)
    if fixed_range is not None:
        lo, hi = fixed_range
        if not hi > lo:
            raise ValueError(f"fixed range must have hi > lo, got {fixed_range}")
        scaled = (np.clip(vec, lo, hi) - lo) / (hi - lo)
    else:
        lo, hi = float(vec.min()), float(vec.max())
        scaled = np.full_like(vec, 0.5) if hi == lo else (vec - lo) / (hi - lo)
    img = np.round(scaled * 255.0).astype(np.uint8)
    return img.reshape(shape)


def encode_pnm(img: np.ndarray) -> bytes:
    """Binary P6 (RGB) or P5 (grayscale) encoding of an (H, W, C) uint8 image."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    if c == 3:
        header = f"P6\n{w} {h}\n255\n"
    elif c == 1:
        header = f"P5\n{w} {h}\n255\n"
    else:
        raise ShapeError(f"image must have 1 or 3 channels, got {c}")
    return header.encode("ascii") + np.ascontiguousarray(img, dtype=np.uint8).tobytes()


def write_image(path, vec: np.ndarray, shape: tuple[int, int, int],
                fixed_range: tuple[float, float] | None = None) -> Path:
    """Write vec as an image at path with the suffix its channel count calls
    for, .ppm for C=3 and .pgm for C=1; return the path written."""
    path = Path(path).with_suffix(".ppm" if shape[2] == 3 else ".pgm")
    atomic_write_bytes(path, encode_pnm(vector_to_image(vec, shape, fixed_range)))
    return path


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def histogram_csv(hist: ProjectionHistogram) -> str:
    lines = ["bin_left,bin_right,count"]
    for left, right, count in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
        lines.append(f"{float(left)!r},{float(right)!r},{int(count)}")
    return "\n".join(lines) + "\n"


def matrix_csv(matrix: np.ndarray, labels: list[str] | None = None) -> str:
    """The matrix with a header row and a label column; a label holding a
    comma or a quote is quoted by the csv module."""
    matrix = np.asarray(matrix)
    labels = labels or [f"c{i}" for i in range(matrix.shape[0])]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *labels])
    writer.writerows([name, *(repr(float(v)) for v in row)] for name, row in zip(labels, matrix))
    return out.getvalue()


# ---------------------------------------------------------------------------
# SVG (dependency-free, fixed-size canvases)
# ---------------------------------------------------------------------------

# & < > and " escaped in SVG character data (labels are file stems)
_XML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})
_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n')
_HIST_WIDTH, _HIST_HEIGHT = 640, 360  # the histogram canvas
_HEAT_CELL = 48  # the side of one heatmap cell


def histogram_svg(hist: ProjectionHistogram, *, title: str = "") -> str:
    width, height = _HIST_WIDTH, _HIST_HEIGHT
    counts = hist.counts.astype(np.float64)
    peak = counts.max() if counts.size and counts.max() > 0 else 1.0
    pad, base = 40, height - 30
    plot_w, plot_h = width - 2 * pad, height - 70
    parts = [_SVG_HEAD.format(w=width, h=height)]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title.translate(_XML)}</text>\n')
    n = len(counts)
    bar_w = plot_w / max(n, 1)
    for i, c in enumerate(counts):
        bh = plot_h * c / peak
        x = pad + i * bar_w
        parts.append(f'<rect x="{x:.2f}" y="{base - bh:.2f}" width="{bar_w * 0.92:.2f}" '
                     f'height="{bh:.2f}" fill="#4878cf"/>\n')
    lo, hi = hist.bin_edges[0], hist.bin_edges[-1]
    parts.append(f'<line x1="{pad}" y1="{base}" x2="{width - pad}" y2="{base}" '
                 'stroke="black"/>\n')
    parts.append(f'<text x="{pad}" y="{base + 18}" font-family="sans-serif" '
                 f'font-size="11">{lo:.4g}</text>\n')
    parts.append(f'<text x="{width - pad}" y="{base + 18}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{hi:.4g}</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def heatmap_svg(matrix: np.ndarray, labels: list[str] | None = None, *, title: str = "") -> str:
    cell = _HEAT_CELL
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    labels = [name.translate(_XML) for name in labels or [f"c{i}" for i in range(n)]]
    lo, hi = float(matrix.min()), float(matrix.max())
    span = hi - lo if hi > lo else 1.0
    pad_left, pad_top = 70, 50 if title else 30
    width = pad_left + n * cell + 20
    height = pad_top + n * cell + 20
    parts = [_SVG_HEAD.format(w=width, h=height)]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title.translate(_XML)}</text>\n')
    for i in range(n):
        for j in range(n):
            t = (matrix[i, j] - lo) / span
            r = int(255 * t)
            b = int(255 * (1.0 - t))
            x, y = pad_left + j * cell, pad_top + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="rgb({r},64,{b})"/>\n')
            parts.append(f'<text x="{x + cell / 2:.1f}" y="{y + cell / 2 + 4:.1f}" '
                         'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="10" fill="white">{matrix[i, j]:.3g}</text>\n')
    for i, name in enumerate(labels):
        parts.append(f'<text x="{pad_left - 6}" y="{pad_top + i * cell + cell / 2 + 4:.1f}" '
                     'text-anchor="end" font-family="sans-serif" font-size="11">'
                     f'{name}</text>\n')
        parts.append(f'<text x="{pad_left + i * cell + cell / 2:.1f}" y="{pad_top - 6}" '
                     'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{name}</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)
