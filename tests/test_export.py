import numpy as np
import pytest

from lincfg import export, fileio, metrics
from lincfg.errors import FormatError, ShapeError


def test_parse_shape():
    assert export.parse_shape("64x64x3") == (64, 64, 3)
    assert export.parse_shape("8x8") == (8, 8, 1)
    for spec in ("8x8x2", "axb", "1x2x3x4", "0x4"):
        with pytest.raises(FormatError):
            export.parse_shape(spec)


def test_vector_to_image_affine_mapping():
    img = export.vector_to_image(np.array([0.0, 0.5, 1.0, 0.25]), (2, 2, 1))
    assert img.dtype == np.uint8
    assert img[0, 0, 0] == 0 and img[1, 0, 0] == 255
    assert img[0, 1, 0] == 128  # 0.5 of range


def test_vector_to_image_constant_is_mid_gray():
    img = export.vector_to_image(np.full(6, 3.3), (2, 3, 1))
    assert np.all(img == 128)


def test_vector_to_image_fixed_range_clamps():
    img = export.vector_to_image(np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 0.5]),
                                 (2, 3, 1), fixed_range=(-1.0, 1.0))
    flat = img.reshape(-1)
    assert flat[0] == 0 and flat[1] == 0       # clamped below
    assert flat[3] == 255 and flat[4] == 255   # clamped above
    assert flat[2] == 128


def test_vector_to_image_shape_mismatch():
    with pytest.raises(ShapeError):
        export.vector_to_image(np.zeros(2), (8, 8, 3))


def test_p6_byte_layout():
    rng = np.random.default_rng(70)
    vec = rng.standard_normal(64 * 64 * 3)
    raw = export.encode_pnm(export.vector_to_image(vec, (64, 64, 3)))
    header = b"P6\n64 64\n255\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 64 * 64 * 3


def test_p5_byte_layout():
    raw = export.encode_pnm(export.vector_to_image(np.arange(6.0), (2, 3, 1)))
    header = b"P5\n3 2\n255\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 6


def _hist():
    rng = np.random.default_rng(71)
    return metrics.project_histogram(rng.standard_normal((100, 2)),
                                     np.array([1.0, 0.0]), np.zeros(2), n_bins=8)


def test_histogram_csv():
    text = export.histogram_csv(_hist())
    lines = text.strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 9
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 100


def test_matrix_csv_round_trips_values():
    m = np.array([[0.0, 1.5], [1.5, 0.0]])
    text = export.matrix_csv(m, labels=["a", "b"])
    lines = text.strip().splitlines()
    assert lines[0] == ",a,b"
    assert float(lines[1].split(",")[2]) == 1.5


def test_svg_emitters_produce_svg():
    svg = export.histogram_svg(_hist(), title="demo")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<rect" in svg and "demo" in svg
    heat = export.heatmap_svg(np.array([[0.0, 2.0], [2.0, 0.0]]), ["x", "y"])
    assert heat.startswith("<svg") and "rect" in heat and "x" in heat


def test_atomic_write(tmp_path):
    target = tmp_path / "file.bin"
    fileio.atomic_write_bytes(target, b"hello")
    assert target.read_bytes() == b"hello"
    fileio.atomic_write_bytes(target, b"replaced")
    assert target.read_bytes() == b"replaced"
    assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]


def test_write_image_picks_suffix_from_channels(tmp_path):
    vec = np.arange(6.0)
    assert export.write_image(tmp_path / "a", vec, (1, 2, 3)) == tmp_path / "a.ppm"
    assert export.write_image(tmp_path / "b.ppm", vec, (2, 3, 1)) == tmp_path / "b.pgm"
    assert (tmp_path / "a.ppm").read_bytes().startswith(b"P6\n2 1\n255\n")
    assert (tmp_path / "b.pgm").read_bytes().startswith(b"P5\n3 2\n255\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm", "b.pgm"]
