"""Nagao-Matsuyama window geometry and the test-guided averaging filter.

Each pixel is filtered from its 5x5 (or 7x7) neighbourhood, which carries nine
sub-regions: a central block (region 1, holding the pixel itself) and eight
oriented regions pointing at the compass directions.  Every oriented region
is tested against the central block for distributional agreement; the output
pixel is the mean over the window cells covered by region 1 together with
the regions that were not rejected, each cell counted once.  When all eight
are rejected the central block alone survives, which is what preserves
edges.  Point targets are not preserved: every oriented region contains the
centre pixel, so a one-pixel point fills 1 of its 7 cells against 1 of the
central block's 9, the tests almost never reject, and the output is the
window mean.

Zero or no-data pixels: the tests see each window through ``mle``'s zero
shift, ``gamma.shift_zeros``; the output still averages the raw cells, and a
window with no positive value gives 0.

The oriented regions follow the classical Nagao-Matsuyama layout: 7 offsets
each in the 5x5 window (12 in the 7x7), including the centre pixel, so they
overlap the central block and their neighbours.  The full table is generated
by rotating one hand-authored north region and one north-east region by 90
degrees, which maps N->E->S->W and NE->SE->SW->NW; together the nine regions
cover every cell of the window.  Run ``despeckle masks --window 5`` for a
diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The engine calls neither solve_looks nor the *_stat_array statistics, but
# perfbench traces them under these names in this module, so they stay bound.
from .divergence import (
    TestConfig,
    hellinger_stat_array,
    kl_stat_array,
    looks_threshold,
    renyi_stat_array,
)
from .errors import InvalidArgumentError, OutOfBoundsError, check_integer
from .gamma import looks_below, range_shift, shift_zeros, solve_looks
from .raster import Raster, pad_for_window
from .windows import sum_rows

REGION_NAMES = (
    "center",
    "north",
    "northeast",
    "east",
    "southeast",
    "south",
    "southwest",
    "west",
    "northwest",
)


@dataclass(frozen=True)
class RegionMask:
    region_id: int
    offsets: tuple


def _rot90cw(offsets):
    """Rotate an offset set a quarter turn clockwise: (r, c) -> (c, -r)."""
    return tuple((c, -r) for r, c in offsets)


# Hand-authored seed regions; everything else is rotation-generated.
_N_SEED = {
    5: ((-2, -1), (-2, 0), (-2, 1), (-1, -1), (-1, 0), (-1, 1), (0, 0)),
    7: (
        (-3, -2), (-3, -1), (-3, 0), (-3, 1), (-3, 2),
        (-2, -2), (-2, -1), (-2, 0), (-2, 1), (-2, 2),
        (-1, 0), (0, 0),
    ),
}
_NE_SEED = {
    5: ((0, 0), (-1, 0), (0, 1), (-1, 1), (-2, 1), (-1, 2), (-2, 2)),
    7: (
        (0, 0), (-1, 0), (0, 1), (-1, 1), (-2, 1), (-1, 2), (-2, 2),
        (-3, 1), (-3, 2), (-3, 3), (-2, 3), (-1, 3),
    ),
}


def _geometry(window: int) -> tuple:
    """A window's nine region masks (the central block, then the seeds and
    their rotations N, NE, E, SE, S, SW, W, NW) and the engine's read-only form
    of them, cells numbered row-major: the central gather, the (8, n) oriented
    gathers and the cells x 9 indicator."""
    half = window // 2
    inner = range(1 - half, half)
    regions = [tuple((r, c) for r in inner for c in inner), _N_SEED[window], _NE_SEED[window]]
    for _ in range(3):
        regions += [_rot90cw(regions[-2]), _rot90cw(regions[-1])]
    masks = tuple(RegionMask(i + 1, offs) for i, offs in enumerate(regions))
    index = [np.array([(r + half) * window + c + half for r, c in offs]) for offs in regions]
    central, gathers = index[0], np.array(index[1:])
    indicators = np.zeros((window * window, 9))
    for i, cells in enumerate(index):
        indicators[cells, i] = 1.0
    for a in (central, gathers, indicators):
        a.setflags(write=False)
    return masks, (central, gathers, indicators)


WINDOWS = (5, 7)  # the window sizes with committed masks
_GEOMETRY = {window: _geometry(window) for window in WINDOWS}  # built once, at import


def nm_masks(window: int) -> tuple:
    """The nine committed region masks of a window; the one window check."""
    check_integer(window, "window")
    if window not in WINDOWS:
        raise InvalidArgumentError(f"window must be one of {WINDOWS}, got {window}")
    return _GEOMETRY[window][0]


def mask_table_text(window: int) -> str:
    """Human-readable dump of the committed mask table.

    One grid cell lists every region id that contains it (the oriented
    regions overlap the central block and one another).
    """
    masks = nm_masks(window)
    half = window // 2
    grid = {}
    for mask in masks:
        for off in mask.offsets:
            grid.setdefault(off, []).append(mask.region_id)
    cells = {off: ",".join(str(i) for i in ids) for off, ids in grid.items()}
    width = max(len(s) for s in cells.values())
    lines = [f"window {window}x{window}: region ids per cell (row, col from top-left)"]
    for r in range(-half, half + 1):
        lines.append(" ".join(cells[(r, c)].rjust(width) for c in range(-half, half + 1)))
    lines.append("")
    for mask in masks:
        name = REGION_NAMES[mask.region_id - 1]
        lines.append(f"region {mask.region_id} ({name}, {len(mask.offsets)} px): "
                     + " ".join(f"({r},{c})" for r, c in mask.offsets))
    return "\n".join(lines)


@dataclass(frozen=True)
class FilterSpec:
    window: int = 5
    test: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self):
        nm_masks(self.window)

    @property
    def masks(self) -> tuple:
        return nm_masks(self.window)


# ---------------------------------------------------------------------------
# engine
#
# filter_image alone calls the block function, on blocks of whole rows (np.sum
# over one centre's (cells, 1) column would add pairwise).  The shifts are per
# window and each sum adds a window's cells in one order, so a pixel depends on
# its window alone: filter_pixel and a row band filtered on its own give
# filter_image's bits.  Windows holding zeros take the same path; only the
# values the tests see change.
#
# The engine works cells-major: a block's windows are copied as a (cells,
# centres) array, one row per window cell, into arrays that one filter_image
# call reuses across its blocks, and the regions are gathered as rows with
# np.take.  Each region sum adds its rows left to right and the pooled output
# sums all cells with windows.sum_rows (np.sum's order over a row): the orders
# in which the output's frozen digests were made.
#
# A region passes exactly when its fitted shared looks stay below the looks
# threshold T at which its statistic reaches the chi-square critical value
# (divergence.looks_threshold, from the spec's cached threshold_reach).
# gamma.looks_below settles that from the dispersion rhs: most pairs from rhs
# T alone, by bounds on the dispersion gap, and only the ~5 % between its
# cut-offs with a digamma, so no test solves for the looks or computes its
# statistic or p-value.  Every step of the tests and the pooling writes into
# the call's buffers, so a block allocates no (8, centres) array.

# Centres per engine call.  On the 64x256 strip in one thread (2-vCPU Xeon,
# numpy 2.4.6, shared host, 3 rounds of 15-call medians) 1024, 2048, 4096
# and 8192 took 13.5-18.0, 11.2-14.6, 12.9-14.4 and 12.9-14.9 ms at 5x5, and
# 21.7-23.8, 20.3-21.3, 21.7-23.7 and 22.2-24.0 ms at 7x7; the output had the
# same bytes at every size.
BLOCK_PIXELS = 2048


class _Buffers:
    """One filter call's arrays, reused across its blocks.  A block of c centres
    views the first rows * c values of a part as (rows, c): "win" holds the
    windows, "log" the masked minimum of shift_zeros, then the logs the tests
    see and then the covered cells, "gather" each gather of rows in turn,
    "tests" four (8, c) arrays of the region tests, "accepted" the (9, c)
    acceptance, "row" the (c,) sums and means of the tests and of the output,
    "shifted" the windows shift_zeros gives, "mask" the bool masks and "zero"
    shift_zeros' mask.  The float parts share one allocation, the bool parts
    another; the zero-shift parts come last in each, so a zero-free image never
    touches their pages.  Once freed, the float allocation raises glibc's
    dynamic mmap threshold above its size, so later calls take it from the
    heap instead of faulting in fresh pages."""

    def __init__(self, window: int, centres: int):
        _, gathers, indicators = _GEOMETRY[window][1]
        cells = len(indicators)
        self._parts = {}
        for dtype, rows in ((float, {"win": cells, "log": cells, "gather": gathers.size,
                                     "tests": 4 * 8, "accepted": 9, "row": 8, "shifted": cells}),
                            (bool, {"mask": 2 * 8, "zero": cells})):
            flat = np.empty(sum(rows.values()) * centres, dtype=dtype)
            ends = np.cumsum(list(rows.values()))[:-1] * centres
            self._parts.update(zip(rows, np.split(flat, ends)))

    def get(self, name: str, *shape) -> np.ndarray:
        return self._parts[name][:math.prod(shape)].reshape(shape)


def _gather(a: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a's rows at index, written to out; the indices are valid by construction,
    and a mode other than 'raise' copies without an intermediate buffer."""
    return np.take(a, index, axis=0, out=out, mode="clip")


def _region_tests(z, logz, cfg: TestConfig, central, gathers, buffers: _Buffers):
    """All eight region tests of every centre in one stacked pass.

    z holds the (cells, centres) window values the tests see, zeros already
    shifted, and logz their logs.  Returns the central block's dispersion rhs,
    (centres,), and the (9, centres) float acceptance, 1 or 0, of region 1
    (always) and the oriented regions, both views of buffers.  Every region sum
    runs over its cells left to right.
    """
    m1, ni = central.size, gathers.shape[1]
    count = z.shape[1]
    at_central = buffers.get("gather", m1, count)
    at_regions = buffers.get("gather", 8, ni, count)
    sum1, logsum1, mean1, rhs1, scaled = buffers.get("row", 8, count)[:5]
    # (8, centres): one row per oriented region
    sum_i, work, rhs, threshold = buffers.get("tests", 4, 8, count)
    mask, scratch = buffers.get("mask", 2, 8, count)
    np.sum(_gather(z, central, at_central), axis=0, out=sum1)
    np.sum(_gather(logz, central, at_central), axis=0, out=logsum1)
    np.divide(sum1, m1, out=mean1)
    # ln(mean1) - logsum1 / m1
    np.subtract(np.log(mean1, out=rhs1), np.divide(logsum1, m1, out=scaled), out=rhs1)
    np.sum(_gather(z, gathers, at_regions), axis=1, out=sum_i)
    if cfg.shared_looks == "pooled":
        # ln((sum1 + sum_i) / (m1 + ni)) - (logsum1 + logsum_i) / (m1 + ni)
        logsum_i = np.sum(_gather(logz, gathers, at_regions), axis=1, out=work)
        np.log(np.divide(np.add(sum1, sum_i, out=rhs), m1 + ni, out=rhs), out=rhs)
        np.divide(np.add(logsum1, logsum_i, out=logsum_i), m1 + ni, out=logsum_i)
        np.subtract(rhs, logsum_i, out=rhs)
    else:
        rhs = rhs1
    mean_i = np.divide(sum_i, ni, out=sum_i)
    looks_threshold(cfg, mean1, mean_i, m1, ni, out=threshold, work=work, mask=mask)
    accepted = buffers.get("accepted", 9, count)
    accepted[0] = 1.0
    np.copyto(accepted[1:], looks_below(rhs, threshold, out=mask, work=work, mask=scratch))
    return rhs1, accepted


def _filter_block(padded: np.ndarray, first: int, last: int, spec: FilterSpec,
                  buffers: _Buffers) -> np.ndarray:
    """Filter the image rows first .. last - 1 of a padded image: test the
    regions of every centre and average the cells they cover, row-major.  The
    result is a view of buffers, valid until their next block."""
    central, gathers, indicators = _GEOMETRY[spec.window][1]
    size = spec.window
    cells, width = indicators.shape[0], padded.shape[1] - size + 1
    count = (last - first) * width
    win = buffers.get("win", size, size, last - first, width)
    windows = sliding_window_view(padded[first:last + size - 1], (size, size))
    np.copyto(win, windows.transpose(2, 3, 0, 1))
    win = win.reshape(cells, count)
    lowest = win.min()
    shift = range_shift(lowest, win.max(), lambda: win.max(axis=0))
    if np.any(shift):
        np.ldexp(win, shift, out=win)
        lowest = win.min()  # a value far below its window's maximum may reach 0
    # intensities are >= 0, so only a block whose lowest value is 0 has zeros
    logz = buffers.get("log", cells, count)
    z = win
    if lowest == 0.0:
        shifted, zero = buffers.get("shifted", cells, count), buffers.get("zero", cells, count)
        z = shift_zeros(win.T, out=shifted.T, work=logz.T, mask=zero.T).T
    np.log(z, out=logz)
    rhs1, accepted = _region_tests(z, logz, spec.test, central, gathers, buffers)

    # the output averages the raw cells, zeros included: covered is 1 on a
    # cell of an accepted region and 0 elsewhere, and its products overwrite it
    pooled, central_mean, used = buffers.get("row", 8, count)[5:]
    covered = np.minimum(np.matmul(indicators, accepted, out=logz), 1.0, out=logz)
    np.sum(covered, axis=0, out=used)
    product = np.multiply(win, covered, out=logz)
    np.divide(sum_rows(product, buffers.get("gather", 8, count)), used, out=pooled)
    # a constant central block short-circuits to its own mean, tests skipped
    at_central = _gather(win, central, buffers.get("gather", central.size, count))
    np.divide(np.sum(at_central, axis=0, out=central_mean), central.size, out=central_mean)
    constant = np.less_equal(rhs1, 0.0, out=buffers.get("mask", count))
    np.copyto(pooled, central_mean, where=constant)
    return np.ldexp(pooled, -shift, out=pooled) if np.any(shift) else pooled


def filter_pixel(padded: Raster, center: tuple, spec: FilterSpec) -> float:
    """Filter a single pixel of an already-padded raster: filter_image of the
    pixel's own window, read at its centre."""
    half = spec.window // 2
    row, col = center
    check_integer(row, "center row")
    check_integer(col, "center column")
    if not (
        half <= row < padded.height - half and half <= col < padded.width - half
    ):
        raise OutOfBoundsError(f"center {center} closer than {half} px to the border")
    window = padded.array[row - half:row + half + 1, col - half:col + half + 1]
    return float(filter_image(Raster(window), spec).array[half, half])


def filter_image(img: Raster, spec: FilterSpec) -> Raster:
    """Filter every pixel once; mirror padding keeps the output size equal.

    The engine runs in the caller's thread on blocks of whole rows, about
    BLOCK_PIXELS centres each, into one set of arrays reused block after block.
    """
    padded = pad_for_window(img, spec.window)
    rows = max(1, BLOCK_PIXELS // img.width)
    buffers = _Buffers(spec.window, rows * img.width)
    out = np.empty((img.height, img.width))
    for first in range(0, img.height, rows):
        last = min(first + rows, img.height)
        out[first:last] = _filter_block(padded, first, last, spec, buffers).reshape(
            last - first, img.width
        )
    return Raster(out)
