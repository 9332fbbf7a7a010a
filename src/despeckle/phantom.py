"""Ground-truth phantom geometry: bright strips, points, and a block on a
dark background.

The layout is data, not code: a PhantomGeometry carries explicit
coordinates, the committed defaults below are what the simulation harness
uses, and any layout can be loaded from a plain-text geometry file.

Geometry file format, one ``key = value`` per line, ``#`` comments allowed::

    size = 128
    block = 8 88 40 120        # row0 col0 row1 col1, ends exclusive
    hline = 52 8 120           # row col0 col1
    vline = 60 60 120          # col row0 row1
    diag = 64 64 40            # row0 col0 length (down-right)
    points = 72,8 72,20 ...    # row,col pairs
    background = 8 8 48 48     # row0 col0 row1 col1, ends exclusive

The block's left column is the designated edge; the two 3-pixel bands
flanking it (excluding the edge column itself) are the edge strips used by
the edge metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError, InvalidArgumentError, check_integer
from .raster import Raster

EDGE_BAND_WIDTH = 3


@dataclass(frozen=True)
class PhantomGeometry:
    size: int
    block: tuple  # (row0, col0, row1, col1), ends exclusive
    hline: tuple  # (row, col0, col1)
    vline: tuple  # (col, row0, row1)
    diag: tuple   # (row0, col0, length)
    points: tuple  # ((row, col), ...)
    background: tuple  # (row0, col0, row1, col1), ends exclusive

    def __post_init__(self):
        self.validate()

    # -- pixel index helpers -------------------------------------------------

    def hline_pixels(self):
        row, c0, c1 = self.hline
        return np.full(c1 - c0, row), np.arange(c0, c1)

    def vline_pixels(self):
        col, r0, r1 = self.vline
        return np.arange(r0, r1), np.full(r1 - r0, col)

    def diag_pixels(self):
        r0, c0, length = self.diag
        steps = np.arange(length)
        return r0 + steps, c0 + steps

    def block_slices(self):
        r0, c0, r1, c1 = self.block
        return slice(r0, r1), slice(c0, c1)

    def background_slices(self):
        r0, c0, r1, c1 = self.background
        return slice(r0, r1), slice(c0, c1)

    def edge_column(self) -> int:
        return self.block[1]

    def edge_strips(self):
        """(outside, inside) slices of the bands flanking the block edge."""
        r0, c0, r1, _ = self.block
        rows = slice(r0, r1)
        outside = (rows, slice(c0 - EDGE_BAND_WIDTH, c0))
        inside = (rows, slice(c0 + 1, c0 + 1 + EDGE_BAND_WIDTH))
        return outside, inside

    def feature_mask(self) -> np.ndarray:
        """Boolean grid marking every bright pixel."""
        mask = np.zeros((self.size, self.size), dtype=bool)
        mask[self.block_slices()] = True
        mask[self.hline_pixels()] = True
        mask[self.vline_pixels()] = True
        mask[self.diag_pixels()] = True
        for r, c in self.points:
            mask[r, c] = True
        return mask

    def validate(self):
        n = self.size
        if n < 16:
            raise InvalidArgumentError("phantom size must be >= 16")

        def _inside(*coords):
            return all(0 <= v <= n for v in coords)

        r0, c0, r1, c1 = self.block
        if not (_inside(r0, c0, r1, c1) and r0 < r1 <= n and c0 < c1 <= n):
            raise InvalidArgumentError(f"block {self.block} out of bounds")
        if c0 - EDGE_BAND_WIDTH < 0 or c0 + 1 + EDGE_BAND_WIDTH > n:
            raise InvalidArgumentError("no room for the edge bands around the block")
        row, hc0, hc1 = self.hline
        if not (0 <= row < n and 0 <= hc0 < hc1 <= n):
            raise InvalidArgumentError(f"hline {self.hline} out of bounds")
        col, vr0, vr1 = self.vline
        if not (0 <= col < n and 0 <= vr0 < vr1 <= n):
            raise InvalidArgumentError(f"vline {self.vline} out of bounds")
        dr, dc, length = self.diag
        if not (length >= 2 and _inside(dr, dc) and dr + length <= n and dc + length <= n):
            raise InvalidArgumentError(f"diag {self.diag} out of bounds")
        if self.hline[0] in (0, n - 1):
            raise InvalidArgumentError("hline needs both flanking rows inside the image")
        for r, c in self.points:
            if not (0 <= r < n and 0 <= c < n):
                raise InvalidArgumentError(f"point ({r},{c}) out of bounds")
        b0, bc0, b1, bc1 = self.background
        if not (0 <= b0 < b1 <= n and 0 <= bc0 < bc1 <= n):
            raise InvalidArgumentError(f"background {self.background} out of bounds")
        if (b1 - b0) * (bc1 - bc0) < 4:
            raise InvalidArgumentError("background region too small for statistics")
        features = self.feature_mask()
        if features[self.background_slices()].any():
            raise InvalidArgumentError("background region overlaps a feature")


_LAYOUTS = {  # the committed layouts: 128x128 (full runs) and 64x64 (fast profile)
    128: PhantomGeometry(
        size=128,
        block=(8, 88, 40, 120),
        hline=(52, 8, 120),
        vline=(60, 60, 120),
        diag=(64, 64, 40),
        points=tuple((r, c) for r in (72, 84, 96, 108) for c in (8, 20, 32, 44)),
        background=(8, 8, 48, 48),
    ),
    64: PhantomGeometry(
        size=64,
        block=(4, 44, 20, 60),
        hline=(26, 4, 60),
        vline=(30, 30, 60),
        diag=(32, 32, 20),
        points=tuple((r, c) for r in (36, 42, 48, 54) for c in (4, 10, 16, 22)),
        background=(4, 4, 24, 24),
    ),
}
SIZES = tuple(sorted(_LAYOUTS))  # the sizes with a committed layout


def default_geometry(size: int = 128) -> PhantomGeometry:
    """The committed layout of a size in SIZES."""
    check_integer(size, "size")
    if size not in SIZES:
        raise InvalidArgumentError(
            f"no committed geometry for size {size}; supply a geometry file instead")
    return _LAYOUTS[size]


def render_phantom(geom: PhantomGeometry, strip_value: float, background_value: float) -> Raster:
    """Noiseless phantom: features at strip_value, everything else background."""
    if strip_value <= 0 or background_value <= 0:
        raise InvalidArgumentError("phantom intensities must be positive")
    img = np.full((geom.size, geom.size), float(background_value))
    img[geom.feature_mask()] = float(strip_value)
    return Raster(img)


# ---------------------------------------------------------------------------
# geometry files


def write_geometry(geom: PhantomGeometry, path) -> None:
    with open(path, "w") as fh:
        fh.write("# phantom geometry\n")
        fh.write(f"size = {geom.size}\n")
        fh.write("block = {} {} {} {}\n".format(*geom.block))
        fh.write("hline = {} {} {}\n".format(*geom.hline))
        fh.write("vline = {} {} {}\n".format(*geom.vline))
        fh.write("diag = {} {} {}\n".format(*geom.diag))
        fh.write("points = " + " ".join(f"{r},{c}" for r, c in geom.points) + "\n")
        fh.write("background = {} {} {} {}\n".format(*geom.background))


_KEYS = tuple(f.name for f in fields(PhantomGeometry))  # a geometry file's keys


def read_geometry(path) -> PhantomGeometry:
    values = {}
    # a byte that is not UTF-8 decodes to U+FFFD, which no number contains
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"geometry line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS or key in values:
                problem = "repeats" if key in values else "has an unknown"
                raise FormatError(f"geometry line {lineno} {problem} key {key!r}")
            values[key] = value.strip()
    missing = set(_KEYS) - values.keys()
    if missing:
        raise FormatError(f"geometry file missing keys: {sorted(missing)}")
    try:
        return PhantomGeometry(
            size=int(values.pop("size")),
            points=tuple(tuple(int(p) for p in pair.split(","))
                         for pair in values.pop("points").split()),
            **{key: tuple(int(v) for v in value.split()) for key, value in values.items()},
        )
    except (ValueError, TypeError) as exc:  # InvalidArgumentError is a ValueError
        raise FormatError(f"geometry file: {exc}") from exc
