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
from .windows import flat_cells, on_grid, sum_rows, window_max, window_min

Q_WINDOW = 8
Q_CHUNK = 1024  # windows per Q gather: bounds its buffers at ~2.1 MB
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
    (a, b, ref_a, ref_b), s = _in_range(*strips)
    g_img, v_img = abs(a.mean() - b.mean()), abs(a.var(ddof=1) - b.var(ddof=1))
    g_ref, v_ref = abs(ref_a.mean() - ref_b.mean()), abs(ref_a.var(ddof=1) - ref_b.var(ddof=1))
    gradient = float(np.ldexp(abs(g_img - g_ref), -s))
    return gradient, _scaled_back(abs(v_img - v_ref), 2 * s)


def _q_of(mx, my, vx, vy, cov):
    """Q of windows from their means, variances and covariance: correlation
    times luminance times contrast."""
    sx = np.sqrt(vx)
    sy = np.sqrt(vy)
    return (cov / (sx * sy)) * (2.0 * mx * my / (mx**2 + my**2)) * (2.0 * sx * sy / (vx + vy))


def _q_scores(x: np.ndarray, varying: np.ndarray, tests, shift=None, moments=None):
    """Q of each test image against the reference x over the windows varying
    (where x varies, by their positions i * width + j in windows' flat layout,
    which are also the flat indices of their first cells), and the mean and
    variance of x over each chunk of them: ([q per test], [(mx, vx) per chunk]).

    The windows go Q_CHUNK at a time, cells-major into one reused buffer: row k
    of an image's (cells, windows) block holds cell k of each window.  Each
    chunk of x is gathered and centred once, then every test is gathered and
    scored against it.  shift, None or one power per varying window, scales
    both images' cells (the range rule); moments, one (mx, vx) per chunk from
    an earlier call at the same shift, spares their sums.  Each mean, variance
    and the covariance takes the steps of np.mean, np.var(ddof=1) and
    ((x - mx) * (y - my)).sum() / (n - 1) on the copied window, in sum_rows'
    order, so it has their bits."""
    n = Q_WINDOW * Q_WINDOW
    offsets = np.array([[r * x.shape[1] + c] for r in range(Q_WINDOW) for c in range(Q_WINDOW)])
    images = [np.ravel(x)] + [np.ravel(y) for y in tests]
    chunk = min(Q_CHUNK, varying.size)
    buf = np.empty(3 * n * chunk)
    acc = np.empty(8 * chunk)
    flat = np.empty(n * chunk, dtype=np.intp)
    parts = [[] for _ in tests]
    chunk_moments = []
    for k, start in enumerate(range(0, varying.size, Q_CHUNK)):
        windows = varying[start:start + Q_CHUNK]
        m = windows.size
        ref, cells, product = buf[:3 * n * m].reshape(3, n, m)
        sums = acc[:8 * m].reshape(8, m)
        # the flat index of each cell of each window, shared by every image
        at = np.add(offsets, windows, out=flat[:n * m].reshape(n, m))

        def gather(image, out):
            image.take(at, out=out, mode="clip")
            if shift is not None:
                np.ldexp(out, shift[start:start + m], out=out)

        gather(images[0], ref)
        if moments is None:
            mx = sum_rows(ref, sums) / n
            np.subtract(ref, mx, out=ref)
            vx = sum_rows(np.multiply(ref, ref, out=product), sums) / (n - 1)
        else:
            mx, vx = moments[k]
            np.subtract(ref, mx, out=ref)
        chunk_moments.append((mx, vx))
        for image, out in zip(images[1:], parts):
            gather(image, cells)
            my = sum_rows(cells, sums) / n
            np.subtract(cells, my, out=cells)
            vy = sum_rows(np.multiply(cells, cells, out=product), sums) / (n - 1)
            cov = sum_rows(np.multiply(ref, cells, out=product), sums) / (n - 1)
            usable = (vx > 0) & (vy > 0) & (mx**2 + my**2 > 0)
            moments_xy = (mx, my, vx, vy, cov)
            if not usable.all():
                moments_xy = [a[usable] for a in moments_xy]
            out.append(_q_of(*moments_xy))
    return [np.concatenate(p) if p else np.empty(0) for p in parts], chunk_moments


class _QReference:
    """The reference's side of Q: the windows where it varies and, once a
    batch at shift 0 has computed them, its mean and variance over those
    windows at shift 0.  The range rule takes its window maximum only for a
    pair out of range."""

    def __init__(self, x: np.ndarray):
        if x.shape[0] < Q_WINDOW or x.shape[1] < Q_WINDOW:
            raise InvalidArgumentError(f"images must allow one full {Q_WINDOW}x{Q_WINDOW} window")
        self._x = x
        # a window holding nan varies (nan != nan); its nan variance leaves it unused
        varying = np.flatnonzero(window_min(x, Q_WINDOW) != window_max(x, Q_WINDOW))
        self._varying = varying[varying % x.shape[1] <= x.shape[1] - Q_WINDOW]
        self._low, self._high = x.min(), x.max()
        self._moments = None
        self.windows = (x.shape[0] - Q_WINDOW + 1) * (x.shape[1] - Q_WINDOW + 1)

    def values(self, tests) -> list:
        """Q of the used windows of each test array against the reference, in
        row-major order on the window grid.  The tests whose pair the range rule
        leaves as is are scored in one pass; each other test alone, at its shift."""
        out = [None] * len(tests)
        plain = []
        for i, y in enumerate(tests):
            shift = range_shift(
                min(self._low, y.min()),
                max(self._high, y.max()),
                lambda: np.maximum(window_max(self._x, Q_WINDOW), window_max(y, Q_WINDOW)),
            )
            if np.any(shift):
                out[i] = _q_scores(self._x, self._varying, [y], np.ravel(shift)[self._varying])[0][0]
            else:
                plain.append(i)
        if plain:
            scores, self._moments = _q_scores(self._x, self._varying, [tests[i] for i in plain],
                                              moments=self._moments)
            for i, q in zip(plain, scores):
                out[i] = q
        return out


def _q_summary(q: np.ndarray, windows: int, with_counts: bool = False):
    if q.size == 0:
        raise DegenerateRegionError("every Q window was degenerate")
    result = (float(q.mean()), float(q.std(ddof=0)))
    if with_counts:
        return result + (int(q.size), windows - q.size)
    return result


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
    side = _QReference(x.array)
    return _q_summary(side.values([y.array])[0], side.windows, with_counts)


def _laplacian(arr: np.ndarray) -> np.ndarray:
    """north + south + west + east - 4 * centre of the mirror-padded arr, on
    flat slices of it (windows.flat_cells), as a view of arr's shape."""
    padded = np.pad(arr, 1, mode="reflect")
    _, north, _, west, centre, east, _, south, _ = flat_cells(padded, 3)
    lap = np.add(north, south)
    lap += west
    lap += east
    lap -= 4.0 * centre
    return on_grid(lap, padded.shape[1], 3)


def _unit_scaled(a: np.ndarray) -> np.ndarray:
    """a times the power of two that puts its largest magnitude in [1, 2); zeros stay zeros."""
    return np.ldexp(a, 1 - np.frexp(np.abs(a).max())[1])


def _centred_laplacian(a: np.ndarray) -> tuple:
    """(d, sum of d^2): the Laplacian of a, taken after _in_range brings a into
    range, centred and scaled by the power of two that puts its largest
    magnitude in [1, 2).  The scalings are exact and the correlation does not
    see them, so intensities of any magnitude neither overflow nor underflow."""
    if a.shape[0] < 3 or a.shape[1] < 3:
        raise InvalidArgumentError("images must be at least 3x3")
    (a,), _ = _in_range(a)
    lap = _laplacian(a).ravel()
    d = _unit_scaled(lap - lap.mean())
    return d, (d**2).sum()


def _laplacian_correlation(reference: tuple, y: np.ndarray) -> float:
    """The correlation of a _centred_laplacian of the reference with y's."""
    dx, sxx = reference
    dy, syy = _centred_laplacian(y)
    denom = np.sqrt(sxx * syy)
    if denom == 0:
        raise DegenerateRegionError("constant Laplacian, correlation undefined")
    return float((dx * dy).sum() / denom)


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
    return _laplacian_correlation(_centred_laplacian(x.array), y.array)


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
    absolute, squared = np.abs(diff), diff**2
    mae = float(absolute.mean())
    mse = float(squared.mean())
    ref_energy = float((xn**2).sum())
    if ref_energy == 0:
        raise DomainError("reference image is zero after normalization")
    nmse = float(squared.sum() / ref_energy)
    dcon = float((absolute / (DCON_OFFSET + xn + yn)).mean())
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
        return ",".join(csv_cell(getattr(self, f.name)) for f in dataclass_fields(self))


def csv_cell(value) -> str:
    """A metric's CSV cell: NA for None, else the float's repr."""
    return "NA" if value is None else repr(float(value))


METRIC_HEADER = ",".join(f.name for f in dataclass_fields(MetricReport))


def _attempt(fn, width=None):
    """fn(), or None (width Nones) should it raise a metric error: a
    DespeckleError, or a FloatingPointError under a raising numpy error state."""
    try:
        return fn()
    except (DespeckleError, FloatingPointError):
        return None if width is None else (None,) * width


class Reference:
    """A reference image and the parts of its metrics that depend on it alone,
    to score any number of test images against it.

    Built once, it holds Q's varying windows and the reference's centred
    Laplacian with its sum of squares; its Q means and variances at shift 0
    are kept from the first batch that computes them.  Only the Laplacian is
    as large as the image: the reference's cells are gathered again, a chunk
    at a time, by every batch, and its window maximum only by a batch that
    the range rule scales.  A side the reference cannot have (Q needs an 8x8
    window, the Laplacian 3x3) is None, and its columns are NA in every
    report.  A geometry of another size than the image raises
    InvalidArgumentError.
    """

    def __init__(self, image: Raster, geom: PhantomGeometry | None = None):
        if geom is not None:
            _check_geometry(image, geom)
        self.image = image
        self.geom = geom
        self._q = _attempt(lambda: _QReference(image.array))
        self._centred = _attempt(lambda: _centred_laplacian(image.array))

    def reports(self, tests) -> list:
        """One MetricReport of each test image against the reference, as
        compute_report defines it.  Q is computed for the whole batch in one
        pass over the reference's windows; should the pass raise a metric
        error (only a raising numpy error state can), Q is NA for the batch."""
        for test in tests:
            _check_same_shape(self.image, test)
        q_values = [None] * len(tests)
        if self._q is not None:
            q_values = _attempt(lambda: self._q.values([test.array for test in tests])) or q_values
        return [self._report(test, q) for test, q in zip(tests, q_values)]

    def _report(self, test: Raster, q) -> MetricReport:
        ref, geom = self.image, self.geom
        line = gradient = variance = None
        if geom is None:
            enl_value = _attempt(lambda: enl(test.array))
        else:
            enl_value = _attempt(lambda: enl(test.array[geom.background_slices()]))
            line = _attempt(lambda: line_contrast(test, geom, ref))
            gradient, variance = _attempt(lambda: edge_measures(test, geom, ref), 2)
        q_mean = q_std = beta_rho = None
        if q is not None:
            q_mean, q_std = _attempt(lambda: _q_summary(q, self._q.windows), 2)
        if self._centred is not None:
            beta_rho = _attempt(lambda: _laplacian_correlation(self._centred, test.array))
        mae, mse, nmse, dcon = _attempt(lambda: error_metrics(ref, test), 4)
        return MetricReport(
            enl=enl_value, line_contrast_error=line, edge_gradient=gradient, edge_variance=variance,
            q_mean=q_mean, q_std=q_std, beta_rho=beta_rho, mae=mae, mse=mse, nmse=nmse, dcon=dcon,
        )


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
    To score many images against one reference, build a Reference once and
    call its reports.
    """
    return Reference(reference, geom).reports([test])[0]
