"""Raster container, mirror padding, sample extraction, and file I/O.

Three on-disk formats are supported:

* ``ascii``   -- first line ``"height width"``, then one line per row of
  space-separated decimal values.  Values are printed with ``repr`` so a
  write/read round trip is bit-identical.
* ``raw``     -- binary, little-endian.  16-byte header: bytes 0-3 magic
  ``b"SPKL"``, bytes 4-7 width (u32), bytes 8-11 height (u32), bytes 12-15
  format version (u32, currently 1); then height*width float64 values in
  row-major order.
* ``pgm``     -- binary PGM (P5) with maxval 65535, big-endian 16-bit words.
  Intensities are linearly mapped from [min, max] to 0..65535, so this
  format is lossy and intended for visual inspection only.  A constant
  image maps everything to 0.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError, InvalidArgumentError, OutOfBoundsError, check_integer

RAW_MAGIC = b"SPKL"
RAW_VERSION = 1
FORMATS = ("ascii", "raw", "pgm")


class Raster:
    """Immutable 2-D array of finite, non-negative intensities, in a private copy."""

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidArgumentError("raster must be a non-empty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("raster values must be finite")
        if np.any(arr < 0):
            raise InvalidArgumentError("raster values must be >= 0")
        arr.setflags(write=False)
        self._arr = arr

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D view, shape (height, width)."""
        return self._arr

    @property
    def data(self) -> np.ndarray:
        """Row-major 1-D view of the pixel values."""
        return self._arr.reshape(-1)

    @property
    def height(self) -> int:
        return self._arr.shape[0]

    @property
    def width(self) -> int:
        return self._arr.shape[1]

    @property
    def shape(self):
        return self._arr.shape

    def __eq__(self, other):
        return isinstance(other, Raster) and np.array_equal(self._arr, other._arr)

    def __hash__(self):
        return hash((self.shape, self._arr.tobytes()))

    def __repr__(self):
        return f"Raster({self.height}x{self.width})"


def pad_mirror(img: Raster, margin: int) -> Raster:
    """Mirror-pad by `margin` pixels on every side.

    The reflection is about the image edge: the edge row/column itself is
    not duplicated ([1,2,3] with margin 1 becomes [2,1,2,3,2]).
    """
    check_integer(margin, "margin")
    if margin < 0:
        raise InvalidArgumentError("margin must be >= 0")
    if margin >= min(img.width, img.height):
        raise InvalidArgumentError(
            f"margin {margin} too large for {img.height}x{img.width} raster"
        )
    return Raster(np.pad(img.array, margin, mode="reflect"))


def pad_for_window(img: Raster, window: int) -> np.ndarray:
    """img's array mirror-padded by window // 2: the padded image a window x
    window filter reads.  The image must hold one window."""
    if img.width < window or img.height < window:
        raise InvalidArgumentError(
            f"image {img.height}x{img.width} smaller than the {window}x{window} window")
    return np.pad(img.array, window // 2, mode="reflect")


def extract(img: Raster, center: tuple[int, int], mask) -> np.ndarray:
    """Pixel values at ``center + offset`` for every offset in the mask.

    Returns a 1-D float array in mask-definition order.  Callers are
    expected to pad first; any offset falling outside the raster raises
    OutOfBoundsError.
    """
    row, col = center
    rows = np.array([row + dr for dr, _ in mask.offsets])
    cols = np.array([col + dc for _, dc in mask.offsets])
    if (
        rows.min() < 0
        or cols.min() < 0
        or rows.max() >= img.height
        or cols.max() >= img.width
    ):
        raise OutOfBoundsError(
            f"mask region {mask.region_id} leaves the raster at center {center}"
        )
    return img.array[rows, cols]


# ---------------------------------------------------------------------------
# file formats


def write_raster(img: Raster, path, fmt: str) -> None:
    if fmt not in FORMATS:
        raise InvalidArgumentError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "ascii":
        _write_ascii(img, path)
    elif fmt == "raw":
        _write_raw(img, path)
    else:
        _write_pgm(img, path)


def read_raster(path, fmt: str) -> Raster:
    if fmt not in FORMATS:
        raise InvalidArgumentError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    arr = {"ascii": _read_ascii, "raw": _read_raw, "pgm": _read_pgm}[fmt](path)
    try:
        return Raster(arr)
    except InvalidArgumentError as exc:  # values a raster may not hold: a bad file
        raise FormatError(str(exc)) from exc


def _write_ascii(img: Raster, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{img.height} {img.width}\n")
        for row in img.array:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def _read_ascii(path) -> np.ndarray:
    # a byte that is not UTF-8 decodes to U+FFFD, which no number contains
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("ascii raster: first line must be 'height width'")
        try:
            height, width = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError("ascii raster: non-integer dimensions") from exc
        if height <= 0 or width <= 0:
            raise FormatError("ascii raster: dimensions must be positive")
        rows = []
        for i in range(height):
            line = fh.readline()
            if not line:
                raise FormatError(f"ascii raster: expected {height} rows, got {i}")
            parts = line.split()
            if len(parts) != width:
                raise FormatError(
                    f"ascii raster: row {i} has {len(parts)} values, expected {width}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise FormatError(f"ascii raster: bad value in row {i}") from exc
    return np.array(rows)


def _write_raw(img: Raster, path) -> None:
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<III", img.width, img.height, RAW_VERSION))
        fh.write(img.array.astype("<f8").tobytes())


def _read_raw(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != RAW_MAGIC:
            raise FormatError("raw raster: bad magic or truncated header")
        width, height, version = struct.unpack("<III", header[4:])
        if version != RAW_VERSION:
            raise FormatError(f"raw raster: unsupported version {version}")
        if width == 0 or height == 0:
            raise FormatError("raw raster: zero dimension")
        # check the size first: the header may claim more than memory holds
        if os.fstat(fh.fileno()).st_size < 16 + 8 * width * height:
            raise FormatError("raw raster: truncated pixel data")
        payload = fh.read(8 * width * height)
        return np.frombuffer(payload, dtype="<f8").reshape(height, width)


def _write_pgm(img: Raster, path) -> None:
    arr = img.array
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        quant = np.round((arr - lo) / (hi - lo) * 65535.0).astype(">u2")
    else:
        # constant image: the range is degenerate, map everything to 0
        quant = np.zeros(arr.shape, dtype=">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n65535\n".encode("ascii"))
        fh.write(quant.tobytes())


def _read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(blob):
        # skip whitespace and '#' comment lines in the header
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        tokens.append(blob[start:pos])
    if len(tokens) != 4 or tokens[0] != b"P5":
        raise FormatError("pgm raster: expected binary P5 header")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FormatError("pgm raster: non-integer header fields") from exc
    if width <= 0 or height <= 0:
        raise FormatError("pgm raster: dimensions must be positive")
    if maxval != 65535:
        raise FormatError("pgm raster: only maxval 65535 is supported")
    pos += 1  # single whitespace after maxval
    payload = blob[pos : pos + 2 * width * height]
    if len(payload) != 2 * width * height:
        raise FormatError("pgm raster: truncated pixel data")
    return np.frombuffer(payload, dtype=">u2").astype(np.float64).reshape(height, width)
