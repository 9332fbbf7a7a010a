"""Sliding-window kernels on flat padded-stride slices, in numpy's own
summation order, so no window is copied (a window's worth of memory per pixel).

In a C-contiguous 2-D array a of width wp, flattened to f, cell (r, c) of every
size x size window on the (h, w) window grid is the contiguous slice
f[r * wp + c:][:(h - 1) * wp + w] (flat_cells); the last cell's slice ends at
a's last element.  numpy works such a slice about twice as fast as the same
cells as a shifted 2-D view.  A kernel's result has this flat layout: window
(i, j) sits at i * wp + j, and the positions j >= w, windows that wrap from one
row into the next, are computed along and dropped by on_grid.

sum_rows adds the rows of a stack in the order np.sum takes over a contiguous
row, and window_moments adds its per-cell slices in that order as it makes them
(_sum_terms), which keeps every window mean, variance and covariance bit for
bit that of the copy-based code.  window_min and window_max tell Q which windows
are constant and give the range rule its window maxima.
"""

from __future__ import annotations

import numpy as np

ROW_SUM_MAX = 128  # numpy splits longer rows recursively; no window here has more cells


def _body(n: int) -> int:
    """How many leading terms of n numpy's pairwise sum spreads over 8 accumulators."""
    if not 1 <= n <= ROW_SUM_MAX:
        raise ValueError(f"row sums take 1..{ROW_SUM_MAX} terms, got {n}")
    return n - n % 8 if n >= 8 else 0


def sum_rows(rows, acc) -> np.ndarray:
    """np.sum(np.moveaxis(rows, 0, -1), axis=-1) of an (n, ...) array, bit for
    bit, in acc[0]; acc holds 8 rows of the sum's shape.

    numpy (pairwise_sum) adds a row of fewer than 8 values left to right from
    0.0; from 8 on it adds term k into accumulator r[k % 8] for the first
    n - n % 8 terms, one stacked reduction over those terms as (-1, 8, ...).
    It combines the accumulators as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), adds the n % 8 tail terms in order, and the reduction adds
    that sum to its initial 0.0, so a row of -0.0 sums to 0.0 (_fold)."""
    body = _body(len(rows))
    if body:
        np.add.reduce(rows[:body].reshape(-1, 8, *rows.shape[1:]), axis=0, out=acc[:8])
    return _fold(acc, body, rows[body:])


def _sum_terms(terms, n: int, acc) -> np.ndarray:
    """sum_rows of n terms that an iterator makes one at a time, each used
    before the next is made."""
    body = _body(n)
    for k in range(body):
        term = next(terms)
        if k < 8:
            np.copyto(acc[k], term)
        else:
            acc[k % 8] += term
    return _fold(acc, body, terms)


def _fold(acc, body: int, tail) -> np.ndarray:
    """The end of sum_rows' order, in acc[0]: the 8 accumulators of the first
    body terms combined pairwise (0.0 if none), the tail terms, then 0.0."""
    total = acc[0]
    if body:
        # row by row: a strided view of acc added to another copies it first
        for step in (1, 2, 4):
            for k in range(0, 8, 2 * step):
                acc[k] += acc[k + step]
    else:
        total.fill(0.0)
    for term in tail:
        total += term
    total += 0.0
    return total


def flat_cells(a: np.ndarray, size: int) -> list:
    """The size * size cells of every size x size window of a 2-D array, one
    flat slice per cell in row-major order: slice k holds cell k of every
    window in the flat layout (see the module docstring)."""
    f = np.ravel(a)
    wp = a.shape[1]
    extent = (a.shape[0] - size) * wp + wp - size + 1
    return [f[r * wp + c:r * wp + c + extent] for r in range(size) for c in range(size)]


def on_grid(flat: np.ndarray, width: int, size: int) -> np.ndarray:
    """The (h, w) window grid of a contiguous flat-layout result of an array of
    the given width, as a view; numpy checks that it stays inside flat."""
    h = (flat.size - 1) // width + 1
    return np.ndarray((h, width - size + 1), flat.dtype, flat, 0,
                      (width * flat.itemsize, flat.itemsize))


def window_max(a: np.ndarray, size: int) -> np.ndarray:
    """The maximum of every size x size window of a 2-D array (nan if the
    window holds one), in the flat layout."""
    return _window_extreme(a, size, np.maximum)


def window_min(a: np.ndarray, size: int) -> np.ndarray:
    """The minimum of every size x size window of a 2-D array (nan if the
    window holds one), in the flat layout."""
    return _window_extreme(a, size, np.minimum)


def _window_extreme(a, size, pick):
    """pick (np.maximum or np.minimum, which both keep nan) over every size x
    size window, separably on flat slices: over size neighbours along the
    flattened array, then over size of those one row apart."""
    f = np.ravel(a)
    wp = a.shape[1]
    runs = f.size - size + 1
    rows = f[:runs].copy()
    for c in range(1, size):
        pick(rows, f[c:c + runs], out=rows)
    extent = runs - (size - 1) * wp
    out = rows[:extent].copy()
    for r in range(1, size):
        pick(out, rows[r * wp:r * wp + extent], out=out)
    return out


def window_moments(a: np.ndarray, size: int, shift):
    """The mean and unbiased variance of every size x size window of a 2-D
    array, in the flat layout, each window scaled by 2^shift, where shift is 0
    or holds one power per position of the flat layout.  Each is bit for bit
    what np.mean and np.var(ddof=1) give on the window copied into a row, for
    they take the same steps in sum_rows' order, one cell's slice at a time."""
    cells = flat_cells(a, size)
    n = len(cells)
    acc = np.empty((min(n, 8), cells[0].size))
    buf = np.empty(cells[0].size)
    scaled = np.any(shift)

    def cell_terms():
        for cell in cells:
            yield np.ldexp(cell, shift, out=buf) if scaled else cell

    mean = _sum_terms(cell_terms(), n, acc) / n
    deviations = (np.subtract(cell, mean, out=buf) for cell in cell_terms())
    return mean, _sum_terms((np.multiply(d, d, out=d) for d in deviations), n, acc) / (n - 1)
