import contextlib
import io
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from despeckle import (
    FormatError,
    InvalidArgumentError,
    OutOfBoundsError,
    Raster,
    cli,
    extract,
    nm_masks,
    pad_mirror,
    read_raster,
    write_raster,
)
from despeckle.nmfilter import RegionMask


def test_raster_basic_properties():
    r = Raster([[1.0, 2.0], [3.0, 4.0]])
    assert r.shape == (2, 2)
    assert r.height == 2 and r.width == 2
    assert list(r.data) == [1.0, 2.0, 3.0, 4.0]
    assert r == Raster([[1, 2], [3, 4]])
    assert hash(r) == hash(Raster([[1, 2], [3, 4]]))


def test_raster_is_immutable():
    r = Raster(np.ones((3, 3)))
    with pytest.raises(ValueError):
        r.array[0, 0] = 5.0


def test_raster_keeps_its_pixels_to_itself():
    # the raster once froze the caller's array and shared its memory, so the
    # caller could not write it and a view taken earlier changed the raster
    a = np.ones((3, 3))
    v = a[:]
    r = Raster(a)
    before = hash(r)
    a[0, 0] = 5.0
    v[1, 1] = 7.0
    assert a[0, 0] == 5.0 and a[1, 1] == 7.0
    assert np.array_equal(r.array, np.ones((3, 3)))
    assert hash(r) == before


def test_raster_rejects_bad_values():
    with pytest.raises(InvalidArgumentError):
        Raster([[1.0, -2.0]])
    with pytest.raises(InvalidArgumentError):
        Raster([[np.nan, 1.0]])
    with pytest.raises(InvalidArgumentError):
        Raster([[np.inf, 1.0]])
    with pytest.raises(InvalidArgumentError):
        Raster([1.0, 2.0])  # not 2-D
    with pytest.raises(InvalidArgumentError):
        Raster(np.empty((0, 4)))


def test_pad_mirror_single_pixel():
    out = pad_mirror(Raster([[5.0]]), 0)
    assert np.array_equal(out.array, [[5.0]])


def test_pad_mirror_row_reflection():
    # [1,2,3] with margin 1 -> [2,1,2,3,2] (edge not duplicated)
    img = Raster([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    out = pad_mirror(img, 1)
    assert out.shape == (5, 5)
    assert list(out.array[1]) == [2.0, 1.0, 2.0, 3.0, 2.0]
    # interior untouched
    assert np.array_equal(out.array[1:4, 1:4], img.array)


def test_pad_mirror_margin_zero_is_identity():
    img = Raster(np.arange(12, dtype=float).reshape(3, 4) + 1)
    assert pad_mirror(img, 0) == img


def test_pad_mirror_margin_too_large():
    img = Raster(np.ones((4, 6)))
    with pytest.raises(InvalidArgumentError):
        pad_mirror(img, 4)
    with pytest.raises(InvalidArgumentError):
        pad_mirror(img, -1)
    with pytest.raises(InvalidArgumentError, match="integer"):
        pad_mirror(img, 1.0)
    assert pad_mirror(img, np.int64(1)).shape == (6, 8)


def test_extract_constant_image():
    img = Raster(np.full((7, 7), 7.0))
    center_mask = nm_masks(5)[0]
    values = extract(img, (3, 3), center_mask)
    assert values.shape == (9,)
    assert np.all(values == 7.0)


def test_extract_identity_offset():
    ramp = Raster(np.arange(25, dtype=float).reshape(5, 5))
    mask = RegionMask(1, ((0, 0),))
    assert extract(ramp, (2, 2), mask)[0] == 12.0


def test_extract_central_block_of_numbered_grid():
    grid = Raster(np.arange(25, dtype=float).reshape(5, 5))
    values = extract(grid, (2, 2), nm_masks(5)[0])
    assert sorted(values) == [6.0, 7.0, 8.0, 11.0, 12.0, 13.0, 16.0, 17.0, 18.0]


def test_extract_out_of_bounds():
    img = Raster(np.ones((5, 5)))
    with pytest.raises(OutOfBoundsError):
        extract(img, (0, 0), nm_masks(5)[0])


@pytest.mark.parametrize("fmt", ["ascii", "raw"])
def test_lossless_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(11)
    img = Raster(rng.uniform(0.0, 300.0, (13, 9)))
    path = tmp_path / f"img.{fmt}"
    write_raster(img, path, fmt)
    back = read_raster(path, fmt)
    assert np.array_equal(back.array, img.array)


def test_round_trip_small_known_values(tmp_path):
    img = Raster([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "two.raw"
    write_raster(img, path, "raw")
    assert read_raster(path, "raw") == img


def test_ascii_header_and_layout(tmp_path):
    img = Raster([[1.5, 2.0, 2.5]])
    path = tmp_path / "img.txt"
    write_raster(img, path, "ascii")
    lines = path.read_text().splitlines()
    assert lines[0] == "1 3"
    assert lines[1].split() == ["1.5", "2.0", "2.5"]


def test_raw_header_layout(tmp_path):
    img = Raster(np.zeros((2, 3)))
    path = tmp_path / "img.raw"
    write_raster(img, path, "raw")
    blob = path.read_bytes()
    assert blob[:4] == b"SPKL"
    assert int.from_bytes(blob[4:8], "little") == 3  # width
    assert int.from_bytes(blob[8:12], "little") == 2  # height
    assert int.from_bytes(blob[12:16], "little") == 1  # format version
    assert len(blob) == 16 + 6 * 8


def test_pgm_constant_image_quantizes_to_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    write_raster(Raster(np.full((4, 4), 42.0)), path, "pgm")
    back = read_raster(path, "pgm")
    assert np.all(back.array == 0.0)


def test_pgm_linear_quantization(tmp_path):
    path = tmp_path / "ramp.pgm"
    write_raster(Raster([[0.0, 50.0, 100.0]]), path, "pgm")
    back = read_raster(path, "pgm")
    assert list(back.array[0]) == [0.0, 32768.0, 65535.0]


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "ramp.pgm"
    write_raster(Raster([[0.0, 50.0, 100.0], [25.0, 75.0, 10.0]]), path, "pgm")
    header = b"P5\n3 2\n65535\n"
    blob = path.read_bytes()
    assert blob.startswith(header)
    commented = tmp_path / "commented.pgm"
    commented.write_bytes(b"P5\n# a comment\n3 2\n#another\n65535\n" + blob[len(header):])
    assert np.array_equal(read_raster(commented, "pgm").array, read_raster(path, "pgm").array)


def test_read_errors(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("not a raster\n")
    with pytest.raises(FormatError):
        read_raster(bad, "ascii")
    bad.write_bytes(b"JUNKJUNKJUNKJUNK" + b"\0" * 32)
    with pytest.raises(FormatError):
        read_raster(bad, "raw")
    with pytest.raises(FormatError):
        read_raster(bad, "pgm")
    # truncated raw payload
    img = Raster(np.ones((4, 4)))
    path = tmp_path / "trunc.raw"
    write_raster(img, path, "raw")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_raster(path, "raw")
    # a raw header of another version: magic, width, height, version
    path = tmp_path / "v2.raw"
    write_raster(img, path, "raw")
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 12, 2)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="unsupported version 2"):
        read_raster(path, "raw")
    # an ascii file with fewer rows than its header declares
    path = tmp_path / "short.txt"
    path.write_text("3 2\n1.0 2.0\n")
    with pytest.raises(FormatError, match="expected 3 rows, got 1"):
        read_raster(path, "ascii")


def test_ascii_rejects_negative_values(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("1 2\n1.0 -3.0\n")
    with pytest.raises(FormatError):
        read_raster(path, "ascii")


def test_unknown_format_rejected(tmp_path):
    img = Raster(np.ones((2, 2)))
    with pytest.raises(InvalidArgumentError):
        write_raster(img, tmp_path / "x", "tiff")
    with pytest.raises(InvalidArgumentError):
        read_raster(tmp_path / "x", "tiff")


# ---------------------------------------------------------------------------
# malformed files: every reader returns a Raster or raises FormatError


def _valid_file(fmt: str) -> bytes:
    """A valid 6x7 raster file, written by write_raster."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/img"
        write_raster(Raster(np.arange(42.0).reshape(6, 7) + 0.5), path, fmt)
        with open(path, "rb") as fh:
            return fh.read()


VALID_FILES = {fmt: _valid_file(fmt) for fmt in ("ascii", "raw", "pgm")}


def _mutate(fmt, dims, edits) -> bytes:
    """The valid file, its header claiming dims = (height, width) if given,
    then each edit: set one byte, or truncate."""
    blob = VALID_FILES[fmt]
    if dims is not None:
        height, width = dims
        if fmt == "raw":
            blob = blob[:4] + struct.pack("<II", width % 2**32, height % 2**32) + blob[12:]
        elif fmt == "ascii":
            blob = f"{height} {width}".encode() + blob[blob.index(b"\n"):]
        else:
            blob = f"P5\n{width} {height}\n65535".encode() + blob[blob.index(b"65535") + 5:]
    for op, where, value in edits:
        where %= len(blob) + 1
        blob = blob[:where] + (bytes([value]) + blob[where + 1:] if op == "byte" else b"")
    return blob


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from(sorted(VALID_FILES)),
    dims=st.none() | st.tuples(st.integers(-2**33, 2**33), st.integers(-2**33, 2**33)),
    edits=st.lists(st.tuples(st.sampled_from(["byte", "truncate"]), st.integers(0, 400),
                             st.integers(0, 255)), max_size=3),
)
@example(fmt="ascii", dims=None, edits=[("byte", 6, 0xFF)])  # not UTF-8
@example(fmt="raw", dims=(2**31, 2**31), edits=[])  # claims 2^65 bytes
@example(fmt="pgm", dims=(-8, -8), edits=[])  # 2*w*h > 0 with negative sides
def test_malformed_files_are_format_errors(tmp_path_factory, fmt, dims, edits):
    path = tmp_path_factory.mktemp("fuzz") / f"img.{fmt}"
    path.write_bytes(_mutate(fmt, dims, edits))
    try:
        read_raster(path, fmt)
        malformed = False
    except FormatError:
        malformed = True
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["filter", "--in", str(path), "--format", fmt, "--out", f"{path}.out"])
    assert "internal error" not in err.getvalue()
    if malformed:
        assert code == 1
