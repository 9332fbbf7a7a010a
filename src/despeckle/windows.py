"""Sliding-window sums without window copies, in numpy's own summation order.

Lee's filter, the quality index Q and the filter engine's pooled output sum
each window's cells.  Copying every window into a row and calling np.sum
costs a window's worth of memory per pixel; here each sum adds one array per
window cell instead, a shifted view of the image or a row of a (cells,
centres) or (cells, windows) gather, so no window is copied.  RowSum adds
those arrays in the order np.sum takes over a contiguous row, which keeps
every result bit for bit that of the copy-based code.  window_min and
window_max tell Q which windows are constant.
"""

from __future__ import annotations

import numpy as np

ROW_SUM_MAX = 128  # numpy splits longer rows recursively; no window here has more cells


class RowSum:
    """Adds n equal-shape arrays, the terms, so that each element of the total is
    bit for bit np.sum(axis=-1) of its n terms laid out as a contiguous row.

    This class owns that order.  numpy (pairwise_sum) adds a row of fewer than 8
    values left to right from 0.0; from 8 on it adds term k into accumulator
    r[k % 8] for the first n - n % 8 terms, combines the accumulators as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and adds the n % 8 tail
    terms in order.  The reduction then adds that sum to its initial 0.0, so a
    row of -0.0 sums to 0.0.

    acc is the storage for the accumulators: min(n, 8) or more rows of the
    terms' shape.  Feed the terms in order k = 0 .. n - 1, one at a time with
    add or as a stack of the next ones with add_rows, which adds up to 8 of
    them in one operation; then read total once.  It is acc[0].
    """

    def __init__(self, n: int, acc: np.ndarray):
        if not 1 <= n <= ROW_SUM_MAX:
            raise ValueError(f"RowSum takes 1..{ROW_SUM_MAX} terms, got {n}")
        self._n = n
        self._k = 0
        self._body = n - n % 8 if n >= 8 else 0  # the terms the 8 accumulators take
        self._acc = acc

    def add(self, term) -> None:
        self.add_rows(term[None])

    def add_rows(self, rows) -> None:
        acc, i = self._acc, 0
        while i < len(rows):
            k = self._k
            if k < self._body:
                j = k % 8
                m = min(len(rows) - i, 8 - j, self._body - k)
                if k < 8:
                    acc[j:j + m] = rows[i:i + m]
                else:
                    acc[j:j + m] += rows[i:i + m]
            else:
                if k == self._body:
                    self._start_tail()
                acc[0] += rows[i]
                m = 1
            i += m
            self._k = k + m

    def total(self) -> np.ndarray:
        if self._k != self._n:
            raise ValueError(f"RowSum got {self._k} of its {self._n} terms")
        if self._k == self._body:
            self._start_tail()
        self._acc[0] += 0.0
        return self._acc[0]

    def _start_tail(self):
        """Fold the 8 accumulators into acc[0], pairwise; below 8 terms, set acc[0] to 0.0."""
        r = self._acc
        if not self._body:
            r[0] = 0.0
            return
        # row by row: a strided view of r added to another copies it first
        for step in (1, 2, 4):
            for k in range(0, 8, 2 * step):
                r[k] += r[k + step]


def sum_rows(rows, acc) -> np.ndarray:
    """The sum of the rows of rows, an (n, ...) array, element by element in
    RowSum's order: np.sum(np.moveaxis(rows, 0, -1), axis=-1), bit for bit.
    acc is RowSum's storage, and the sum lands in acc[0]."""
    s = RowSum(len(rows), acc)
    s.add_rows(rows)
    return s.total()


def cell_views(a: np.ndarray, size: int) -> list:
    """The size * size shifted views of a 2-D array, one per window cell in
    row-major order: view k holds cell k of every size x size window, and has
    the (H - size + 1, W - size + 1) shape of the window grid."""
    h, w = a.shape[0] - size + 1, a.shape[1] - size + 1
    return [a[r:r + h, c:c + w] for r in range(size) for c in range(size)]


def window_max(a: np.ndarray, size: int) -> np.ndarray:
    """The maximum of every size x size window of a 2-D array (nan if the
    window holds one), on the window grid."""
    return _window_extreme(a, size, np.maximum)


def window_min(a: np.ndarray, size: int) -> np.ndarray:
    """The minimum of every size x size window of a 2-D array (nan if the
    window holds one), on the window grid."""
    return _window_extreme(a, size, np.minimum)


def _window_extreme(a, size, pick):
    """pick (np.maximum or np.minimum, which both keep nan) over every size x
    size window, separably: over size columns of each row, then over size rows
    of those."""
    h, w = a.shape[0] - size + 1, a.shape[1] - size + 1
    rows = a[:, :w].copy()
    for c in range(1, size):
        pick(rows, a[:, c:c + w], out=rows)
    out = rows[:h].copy()
    for r in range(1, size):
        pick(out, rows[r:r + h], out=out)
    return out


def scaled_cells(a: np.ndarray, size: int, shift):
    """cell_views(a, size), each multiplied by 2^shift, where shift is 0 or holds
    one power per window on the window grid.  A scaled view is written to one
    buffer, so each must be used before the next is taken."""
    views = cell_views(a, size)
    if not np.any(shift):
        yield from views
        return
    buf = np.empty(views[0].shape)
    for view in views:
        yield np.ldexp(view, shift, out=buf)


def window_moments(a: np.ndarray, size: int, shift):
    """The mean and unbiased variance of every size x size window of a 2-D
    array, each window scaled by 2^shift (see scaled_cells).  Each is bit for
    bit what np.mean and np.var(ddof=1) give on the window copied into a row,
    for they take the same steps in RowSum's order."""
    n = size * size
    grid = (a.shape[0] - size + 1, a.shape[1] - size + 1)
    acc = np.empty((min(n, 8), *grid))
    total = RowSum(n, acc)
    for cell in scaled_cells(a, size, shift):
        total.add(cell)
    mean = total.total() / n
    total = RowSum(n, acc)
    dev = np.empty(grid)
    for cell in scaled_cells(a, size, shift):
        np.subtract(cell, mean, out=dev)
        total.add(np.multiply(dev, dev, out=dev))
    return mean, total.total() / (n - 1)
