"""Image-quality measures, with and without a ground-truth reference.

Ground-truth measures (need the phantom and its geometry): background ENL,
line-contrast deviation, edge gradient/variance deviation, the universal
quality index Q over sliding 8x8 windows, and the correlation between
Laplacians.  Reference-free error measures (need only two images of equal
size): MAE, MSE, NMSE, and DCON on jointly min-max normalized data.

Deviation-style measures compare a value computed on the test image with
the same value computed on the noiseless reference, so for every metric
here except Q and the Laplacian correlation the best value is the
smallest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import DegenerateRegionError, DespeckleError, DomainError, InvalidArgumentError
from .gamma import into_range, range_shift
from .phantom import PhantomGeometry
from .raster import Raster
from .windows import sum_rows, window_max, window_min

Q_WINDOW = 8
Q_CHUNK = 1024  # windows per Q gather: bounds its buffers at ~1.6 MB
DCON_OFFSET = 23.0 / 255.0


def enl(values) -> float:
    """Equivalent number of looks (mean/std)^2 with the unbiased variance,
    computed on the sample brought into range by gamma.into_range, so
    intensities of any magnitude give the same value."""
    z = np.asarray(values, dtype=np.float64).reshape(-1)
    if z.size < 2:
        raise InvalidArgumentError("ENL needs at least 2 pixels")
    z, _ = into_range(z)
    sd = z.std(ddof=1)
    if sd == 0:
        raise DegenerateRegionError("ENL of a constant region")
    return float((z.mean() / sd) ** 2)


def _in_range(*arrays):
    """(arrays scaled, s): the arrays times the one power of two 2^s that
    gamma.range_shift gives their maximum, so no sum or square of theirs
    overflows or underflows.  Arrays in range come back as they are, s = 0."""
    highest = max(a.max() for a in arrays)
    s = int(range_shift(min(a.min() for a in arrays), highest, lambda: highest))
    return [np.ldexp(a, s) if s else a for a in arrays], s


def _scaled_back(value, shift):
    """value times 2^-shift as a float, exact; None where a nonzero value would
    leave the normal float range, by overflow or by losing low bits."""
    if shift and value and not -1021 <= np.frexp(value)[1] - shift <= 1024:
        return None
    return float(np.ldexp(value, -shift))


def _line_contrast_value(band: np.ndarray) -> float:
    """Twice the mean of a 3-row band's middle row minus the means of the
    rows above and below it."""
    above, line, below = band
    return 2.0 * line.mean() - above.mean() - below.mean()


def line_contrast(img: Raster, geom: PhantomGeometry, reference: Raster):
    """|contrast(img) - contrast(reference)| for the horizontal line.

    Contrast is twice the line mean minus the means of the two adjacent
    rows.  Zero is perfect: the filtered line sticks out exactly as much
    as the noiseless one.  Both images' rows are taken at one common power
    of two (_in_range) and the deviation is scaled back; one that would
    leave the normal float range is None, which compute_report writes as NA.
    """
    _check_same_shape(img, reference)
    _check_geometry(img, geom)
    row, c0, c1 = geom.hline
    (band, ref_band), s = _in_range(*(arr[row - 1:row + 2, c0:c1]
                                      for arr in (img.array, reference.array)))
    return _scaled_back(abs(_line_contrast_value(band) - _line_contrast_value(ref_band)), s)


def edge_measures(img: Raster, geom: PhantomGeometry, reference: Raster) -> tuple:
    """(gradient, variance) deviations across the block edge.

    gradient(x) = |mean(outside band) - mean(inside band)|, variance is the
    same with unbiased variances; both are reported as absolute deviations
    from the reference values, so smallest is best.

    The four strips (both bands of both images) are taken at one common power
    of two 2^s (_in_range); the gradient is scaled back by 2^-s and the
    variance by 2^-2s, which is exact, and in-range images are not scaled.  A
    variance deviation that 2^-2s would carry out of the normal float range
    is None, which compute_report writes as NA.
    """
    _check_same_shape(img, reference)
    _check_geometry(img, geom)
    outside, inside = geom.edge_strips()
    strips = [arr[band].ravel() for arr in (img.array, reference.array)
              for band in (outside, inside)]
    if strips[0].size < 2 or strips[1].size < 2:
        raise DegenerateRegionError("edge strips need at least 2 pixels each")
    (a, b, ref_a, ref_b), s = _in_range(*strips)
    g_img, v_img = abs(a.mean() - b.mean()), abs(a.var(ddof=1) - b.var(ddof=1))
    g_ref, v_ref = abs(ref_a.mean() - ref_b.mean()), abs(ref_a.var(ddof=1) - ref_b.var(ddof=1))
    gradient = float(np.ldexp(abs(g_img - g_ref), -s))
    return gradient, _scaled_back(abs(v_img - v_ref), 2 * s)


def _q_window_values(x: np.ndarray, y: np.ndarray):
    """Q of every used window, in row-major order on the window grid, and the
    count of skipped windows.  Only the windows where the reference x varies
    are gathered, Q_CHUNK at a time, cells-major into one reused buffer: row k
    of image i holds cell k of each window.  Each mean, variance and the
    covariance then takes the steps of np.mean, np.var(ddof=1) and
    ((x - mx) * (y - my)).sum() / (n - 1) on the copied window, in RowSum's
    order, so it has their bits."""
    n = Q_WINDOW * Q_WINDOW
    top = window_max(x, Q_WINDOW)
    # a window holding nan varies (nan != nan); its nan variance leaves it unused
    varying = np.flatnonzero(window_min(x, Q_WINDOW) != top)
    shift = range_shift(
        min(x.min(), y.min()),
        max(x.max(), y.max()),
        lambda: np.maximum(top, window_max(y, Q_WINDOW)),
    )
    shift = np.ravel(shift) if np.any(shift) else None
    flat = (np.ravel(x), np.ravel(y))
    offsets = [r * x.shape[1] + c for r in range(Q_WINDOW) for c in range(Q_WINDOW)]
    chunk = min(Q_CHUNK, varying.size)
    buf = np.empty(3 * n * chunk)
    acc = np.empty(8 * chunk)
    parts = []
    for start in range(0, varying.size, Q_CHUNK):
        windows = varying[start:start + Q_CHUNK]
        m = windows.size
        corner = windows + windows // top.shape[1] * (Q_WINDOW - 1)  # flat index of cell 0
        cells = buf[:3 * n * m].reshape(3, n, m)
        for image, rows in zip(flat, cells):
            for offset, row in zip(offsets, rows):
                image[offset:].take(corner, out=row, mode="clip")
        if shift is not None:
            np.ldexp(cells[:2], shift[windows], out=cells[:2])
        sums = acc[:8 * m].reshape(8, m)
        mx = sum_rows(cells[0], sums) / n
        my = sum_rows(cells[1], sums) / n
        np.subtract(cells[0], mx, out=cells[0])
        np.subtract(cells[1], my, out=cells[1])
        vx, vy, cov = (
            sum_rows(np.multiply(cells[i], cells[j], out=cells[2]), sums) / (n - 1)
            for i, j in ((0, 0), (1, 1), (0, 1))
        )
        usable = (vx > 0) & (vy > 0) & (mx**2 + my**2 > 0)
        sx = np.sqrt(vx[usable])
        sy = np.sqrt(vy[usable])
        parts.append(
            (cov[usable] / (sx * sy))
            * (2.0 * mx[usable] * my[usable] / (mx[usable] ** 2 + my[usable] ** 2))
            * (2.0 * sx * sy / (vx[usable] + vy[usable]))
        )
    q = np.concatenate(parts) if parts else np.empty(0)
    return q, top.size - q.size


def q_index(x: Raster, y: Raster, with_counts: bool = False):
    """Mean and standard deviation of Q over all sliding 8x8 windows.

    Q multiplies a correlation, a luminance, and a contrast factor and lies
    in [-1, 1] with 1 for a perfect match.  A window is skipped, and counted,
    where the reference x is constant (its minimum equals its maximum,
    decided exactly, so a scale that rounds a constant's sum cannot turn it
    into a used window) or where a factor's denominator vanishes (the
    variance of x or y, or mx^2 + my^2, is not positive); with_counts=True
    appends (used, skipped).  Means, variances and the covariance are taken
    only over the windows where x varies.

    Q is scale-free, so each window pair is worked at the one power of two
    that gamma.range_shift takes from the pair's maximum: intensities of any
    magnitude give a value, and in-range pairs are not scaled.  Each moment
    is summed in np.sum's order (windows.sum_rows), with the bytes of the
    copied windows.
    """
    _check_same_shape(x, y)
    if x.height < Q_WINDOW or x.width < Q_WINDOW:
        raise InvalidArgumentError(f"images must allow one full {Q_WINDOW}x{Q_WINDOW} window")
    q, skipped = _q_window_values(x.array, y.array)
    if q.size == 0:
        raise DegenerateRegionError("every Q window was degenerate")
    result = (float(q.mean()), float(q.std(ddof=0)))
    if with_counts:
        return result + (int(q.size), skipped)
    return result


def _laplacian(arr: np.ndarray) -> np.ndarray:
    padded = np.pad(arr, 1, mode="reflect")
    return (
        padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
        - 4.0 * arr
    )


def _unit_scaled(a: np.ndarray) -> np.ndarray:
    """a times the power of two that puts its largest magnitude in [1, 2); zeros stay zeros."""
    return np.ldexp(a, 1 - np.frexp(np.abs(a).max())[1])


def laplacian_correlation(x: Raster, y: Raster) -> float:
    """Pearson correlation between the 4-neighbour Laplacians of x and y.

    An edge-fidelity measure: 1 means the test image's edge structure
    matches the reference exactly (affine intensity changes included).

    Each image is first brought into range (_in_range), and each centred
    Laplacian is scaled by the power of two that puts its largest magnitude
    in [1, 2) before the sums, so intensities of any magnitude neither
    overflow nor underflow; the scaling is exact, so it changes no bit of the
    correlation of in-range images.
    """
    _check_same_shape(x, y)
    if x.height < 3 or x.width < 3:
        raise InvalidArgumentError("images must be at least 3x3")
    # each image at its own power of two, which the correlation does not see
    (xa,), _ = _in_range(x.array)
    (ya,), _ = _in_range(y.array)
    lx = _laplacian(xa).ravel()
    ly = _laplacian(ya).ravel()
    dx = _unit_scaled(lx - lx.mean())
    dy = _unit_scaled(ly - ly.mean())
    denom = np.sqrt((dx**2).sum() * (dy**2).sum())
    if denom == 0:
        raise DegenerateRegionError("constant Laplacian, correlation undefined")
    return float((dx * dy).sum() / denom)


def error_metrics(x: Raster, y: Raster) -> tuple:
    """(MAE, MSE, NMSE, DCON) on jointly min-max normalized images.

    Both images are mapped together onto [0, 1] (shared min and max) so the
    gray-level constant in DCON's denominator is meaningful.
    """
    _check_same_shape(x, y)
    ax, ay = x.array, y.array
    lo = min(ax.min(), ay.min())
    hi = max(ax.max(), ay.max())
    if hi == lo:
        raise DegenerateRegionError("joint intensity range is a single value")
    xn = (ax - lo) / (hi - lo)
    yn = (ay - lo) / (hi - lo)
    diff = xn - yn
    mae = float(np.abs(diff).mean())
    mse = float((diff**2).mean())
    ref_energy = float((xn**2).sum())
    if ref_energy == 0:
        raise DomainError("reference image is zero after normalization")
    nmse = float((diff**2).sum() / ref_energy)
    dcon = float((np.abs(diff) / (DCON_OFFSET + xn + yn)).mean())
    return mae, mse, nmse, dcon


def _check_same_shape(x: Raster, y: Raster):
    if x.shape != y.shape:
        raise InvalidArgumentError(f"shape mismatch: {x.shape} vs {y.shape}")


def _check_geometry(img: Raster, geom: PhantomGeometry):
    if img.shape != (geom.size, geom.size):
        raise InvalidArgumentError(f"geometry size {geom.size} does not match image {img.shape}")


# ---------------------------------------------------------------------------
# bundled report


@dataclass(frozen=True)
class MetricReport:
    """Every metric for one (reference, test) pair; None marks 'not computed'."""

    enl: float | None = None
    line_contrast_error: float | None = None
    edge_gradient: float | None = None
    edge_variance: float | None = None
    q_mean: float | None = None
    q_std: float | None = None
    beta_rho: float | None = None
    mae: float | None = None
    mse: float | None = None
    nmse: float | None = None
    dcon: float | None = None

    def as_csv_row(self) -> str:
        return ",".join(
            "NA" if v is None else repr(float(v))
            for v in (getattr(self, f.name) for f in dataclass_fields(self))
        )


METRIC_HEADER = ",".join(f.name for f in dataclass_fields(MetricReport))


def compute_report(
    reference: Raster, test: Raster, geom: PhantomGeometry | None = None
) -> MetricReport:
    """All metrics of `test` against `reference`; a metric that raises a
    DespeckleError or FloatingPointError becomes None, any other error
    propagates.

    With a geometry, ENL is taken over the designated background region of
    the test image and the line/edge deviations are computed; without one,
    ENL falls back to the whole image and those three fields stay None.  A
    geometry of another size than the images raises InvalidArgumentError.
    """
    _check_same_shape(reference, test)

    def attempt(fn, width=None):
        try:
            return fn()
        except (DespeckleError, FloatingPointError):
            return None if width is None else (None,) * width

    line = gradient = variance = None
    if geom is None:
        enl_value = attempt(lambda: enl(test.array))
    else:
        _check_geometry(test, geom)
        enl_value = attempt(lambda: enl(test.array[geom.background_slices()]))
        line = attempt(lambda: line_contrast(test, geom, reference))
        gradient, variance = attempt(lambda: edge_measures(test, geom, reference), 2)
    q_mean, q_std = attempt(lambda: q_index(reference, test), 2)
    beta_rho = attempt(lambda: laplacian_correlation(reference, test))
    mae, mse, nmse, dcon = attempt(lambda: error_metrics(reference, test), 4)
    return MetricReport(
        enl=enl_value, line_contrast_error=line, edge_gradient=gradient, edge_variance=variance,
        q_mean=q_mean, q_std=q_std, beta_rho=beta_rho, mae=mae, mse=mse, nmse=nmse, dcon=dcon,
    )
