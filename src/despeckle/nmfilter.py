"""Nagao-Matsuyama window geometry and the test-guided averaging filter.

Each pixel is filtered from its 5x5 or 7x7 neighbourhood, which carries nine
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

from concurrent.futures import ThreadPoolExecutor
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
from .errors import InvalidArgumentError, OutOfBoundsError
from .gamma import into_range, looks_below, shift_zeros, solve_looks
from .raster import Raster, pad_mirror

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


def nm_masks(window: int) -> tuple:
    """The nine committed region masks for a 5x5 or 7x7 window."""
    if window not in (5, 7):
        raise InvalidArgumentError(f"window must be 5 or 7, got {window}")
    half = window // 2
    center_half = half - 1
    center = tuple(
        (r, c)
        for r in range(-center_half, center_half + 1)
        for c in range(-center_half, center_half + 1)
    )
    north = _N_SEED[window]
    northeast = _NE_SEED[window]
    east = _rot90cw(north)
    south = _rot90cw(east)
    west = _rot90cw(south)
    southeast = _rot90cw(northeast)
    southwest = _rot90cw(southeast)
    northwest = _rot90cw(southwest)
    ordered = (center, north, northeast, east, southeast, south, southwest, west, northwest)
    masks = tuple(RegionMask(i + 1, offs) for i, offs in enumerate(ordered))
    _check_table(masks, window)
    return masks


def _check_table(masks, window):
    half = window // 2
    peripheral = 7 if window == 5 else 12
    central = (window - 2) ** 2
    assert len(masks[0].offsets) == central
    covered = set(masks[0].offsets)
    for mask in masks[1:]:
        assert len(mask.offsets) == peripheral
        assert len(set(mask.offsets)) == peripheral
        covered.update(mask.offsets)
    for mask in masks:
        for r, c in mask.offsets:
            assert abs(r) <= half and abs(c) <= half
    # the nine regions jointly cover the whole window
    assert len(covered) == window * window


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
        if self.window not in (5, 7):
            raise InvalidArgumentError(f"window must be 5 or 7, got {self.window}")

    @property
    def masks(self) -> tuple:
        return nm_masks(self.window)


# ---------------------------------------------------------------------------
# engine
#
# One vectorised path serves both the scalar filter_pixel and filter_image,
# which feeds it blocks of whole rows, so the two agree bit for bit.  Windows
# holding zeros take the same path; only the values the tests see change.
#
# A region passes exactly when its fitted shared looks stay below the looks
# threshold at which its statistic reaches the chi-square critical value
# (divergence.looks_threshold).  gamma.looks_below settles that from the
# dispersion rhs with one digamma per (centre, region), so no test solves for
# the looks or computes its statistic or p-value.

# Centres per engine call.  On a 64x256 strip (2-vCPU Xeon, 61 interleaved
# passes) one thread took 38 ms median at 512, 32 ms at 1024 and 2048 and
# 46 ms at 4096; two threads took 40, 26, 23 and 29 ms.
BLOCK_PIXELS = 2048


def _plan(spec: FilterSpec):
    """The central gather, the (8, n) oriented gathers, the 9 x cells indicator."""
    half = spec.window // 2
    cells = [(r, c) for r in range(-half, half + 1) for c in range(-half, half + 1)]
    index = {off: i for i, off in enumerate(cells)}
    gathers = np.array([[index[off] for off in m.offsets] for m in spec.masks[1:]])
    central = np.array([index[off] for off in spec.masks[0].offsets])
    indicators = np.zeros((9, len(cells)))
    for i, g in enumerate([central, *gathers]):
        indicators[i, g] = 1.0
    return central, gathers, indicators


def _region_tests(w: np.ndarray, cfg: TestConfig, central, gathers):
    """All eight region tests of every centre in one stacked pass.

    w holds the (centres, cells) window values the tests see, zeros already
    shifted.  Returns the central block's dispersion rhs, (centres,), and the
    (centres, 9) acceptance of region 1 (always) and the oriented regions.
    """
    logw = np.log(w)
    m1, ni = central.size, gathers.shape[1]
    sum1 = w[:, central].sum(axis=1)
    logsum1 = logw[:, central].sum(axis=1)
    mean1 = sum1 / m1
    rhs1 = np.log(mean1) - logsum1 / m1
    # (centres, 8): one column per oriented region
    sum_i = w[:, gathers].sum(axis=2)
    if cfg.shared_looks == "pooled":
        logsum_i = logw[:, gathers].sum(axis=2)
        pooled_mean = (sum1[:, None] + sum_i) / (m1 + ni)
        rhs = np.log(pooled_mean) - (logsum1[:, None] + logsum_i) / (m1 + ni)
    else:
        rhs = rhs1[:, None]
    threshold = looks_threshold(cfg, mean1[:, None], sum_i / ni, m1, ni)
    accepted = np.ones((w.shape[0], 9), dtype=bool)
    accepted[:, 1:] = looks_below(rhs, threshold)
    return rhs1, accepted


def _filter_centers(padded: np.ndarray, rows, cols, spec: FilterSpec, plan) -> np.ndarray:
    """Test the regions of every centre and average the cells they cover."""
    central, gathers, indicators = plan
    win = sliding_window_view(padded, (spec.window, spec.window))[rows, cols]
    win, shift = into_range(win.reshape(rows.size, -1))
    rhs1, accepted = _region_tests(shift_zeros(win), spec.test, central, gathers)

    # the output averages the raw cells, zeros included
    covered = accepted @ indicators > 0
    pooled = (win * covered).sum(axis=1) / covered.sum(axis=1)
    # a constant central block short-circuits to its own mean, tests skipped
    out = np.where(rhs1 <= 0.0, win[:, central].mean(axis=1), pooled)
    return np.ldexp(out, -shift)


def filter_pixel(padded: Raster, center: tuple, spec: FilterSpec) -> float:
    """Filter a single pixel of an already-padded raster."""
    half = spec.window // 2
    row, col = center
    if not (
        half <= row < padded.height - half and half <= col < padded.width - half
    ):
        raise OutOfBoundsError(f"center {center} closer than {half} px to the border")
    plan = _plan(spec)
    # the engine indexes relative to the original image origin
    value = _filter_centers(
        padded.array, np.array([row - half]), np.array([col - half]), spec, plan
    )
    return float(value[0])


def filter_image(img: Raster, spec: FilterSpec, threads: int = 1) -> Raster:
    """Filter every pixel once; mirror padding keeps the output size equal.

    The engine runs on blocks of whole rows, about BLOCK_PIXELS centres
    each.  Blocks are independent, so `threads` workers simply share them
    out; the result is identical for any thread count.
    """
    if img.width < spec.window or img.height < spec.window:
        raise InvalidArgumentError(
            f"image {img.height}x{img.width} smaller than the {spec.window}x{spec.window} window"
        )
    padded = pad_mirror(img, spec.window // 2).array
    plan = _plan(spec)
    width = img.width
    out = np.empty(img.height * width, dtype=np.float64)
    step = max(1, BLOCK_PIXELS // width) * width

    def do_block(start):
        centers = np.arange(start, min(start + step, out.size))
        rows, cols = np.divmod(centers, width)
        out[centers] = _filter_centers(padded, rows, cols, spec, plan)

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        list(pool.map(do_block, range(0, out.size, step)))
    return Raster(out.reshape(img.height, width))
