"""Window sums in numpy's order: the order guard, and Lee and Q against the
copy-based window statistics they replaced, bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from despeckle import (
    DegenerateRegionError, LeeSpec, Raster, Reference, compute_report, default_geometry,
    lee_filter, metrics, pad_mirror, q_index,
)
from despeckle.gamma import into_range
from despeckle.harness import SITUATIONS, corrupt, make_phantom, replicate_stream
from despeckle.metrics import Q_CHUNK, Q_WINDOW
from despeckle.windows import ROW_SUM_MAX, RowSum, cell_views, sum_rows, window_max, window_min


def stream(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def spread_values(rng, shape):
    """Signed values over ~80 binades, so any change of summation order shows."""
    return rng.standard_normal(shape) * np.exp2(rng.uniform(-40.0, 40.0, shape))


# ------------------------------------------------------------ order guard


@pytest.mark.parametrize("count", [1, 7, 2048])
def test_row_sum_is_numpys_row_order(count):
    # a numpy whose pairwise summation changes fails here before any digest
    rng = stream(601, count)
    for n in range(1, ROW_SUM_MAX + 1):
        rows = spread_values(rng, (count, n))
        if count > 1:
            rows[0, :] = -0.0  # numpy sums an all -0.0 row to 0.0
        want = bits(np.sum(rows, axis=-1))
        stacked = sum_rows(np.ascontiguousarray(rows.T), np.empty((8, count)))
        assert np.array_equal(bits(stacked), want), n
        one_by_one = RowSum(n, np.empty((8, count)))
        for term in rows.T:
            one_by_one.add(term)
        assert np.array_equal(bits(one_by_one.total()), want), n


def test_row_sum_order_differs_from_left_to_right():
    # the guard above can fail: from 9 terms on the two orders round apart
    rng = stream(602)
    rows = spread_values(rng, (2048, 25))
    left_to_right = np.zeros(2048)
    for k in range(25):
        left_to_right += rows[:, k]
    assert not np.array_equal(bits(np.sum(rows, axis=-1)), bits(left_to_right))


def test_row_sum_checks_its_term_count():
    with pytest.raises(ValueError):
        RowSum(ROW_SUM_MAX + 1, np.empty((8, 3)))
    s = RowSum(9, np.empty((8, 3)))
    s.add(np.ones(3))
    with pytest.raises(ValueError):
        s.total()


@pytest.mark.parametrize("n", [7, 9, 12, 25])
def test_cells_major_gather_sums_left_to_right(n):
    # the engine sums each region's (n, centres) gather over its cells; numpy
    # adds those rows one after another, as the engine's digests assume
    rng = stream(603, n)
    cells = spread_values(rng, (n + 5, 2048))
    index = rng.permutation(n + 5)[:n].reshape(1, n)
    out = np.empty((1, n, 2048))
    got = np.take(cells, index, axis=0, out=out, mode="clip").sum(axis=1)[0]
    want = np.zeros(2048)
    for k in index[0]:
        want += cells[k]
    assert np.array_equal(bits(got), bits(want))


def test_cell_views_and_window_max_follow_the_window_copy():
    # window_max and window_min are separable; nan in a window wins either way
    rng = stream(604)
    a = rng.random((13, 17))
    a[4, 6] = np.nan
    a[12, 0] = np.nan
    a[5:, 9:] = 0.25  # constant windows
    for size in (5, 8):
        wins = sliding_window_view(a, (size, size))
        views = cell_views(a, size)
        for k, view in enumerate(views):
            assert np.array_equal(view, wins[..., k // size, k % size], equal_nan=True)
        top, bottom = window_max(a, size), window_min(a, size)
        assert np.isnan(top).any() and (bottom == top).any()
        assert np.array_equal(top, wins.max(axis=(2, 3)), equal_nan=True)
        assert np.array_equal(bottom, wins.min(axis=(2, 3)), equal_nan=True)


# ------------------------------------------- copy-based reference statistics


def reference_lee(img: Raster, spec: LeeSpec) -> np.ndarray:
    """lee_filter as it was written on copied windows."""
    padded = pad_mirror(img, spec.window // 2).array
    wins = sliding_window_view(padded, (spec.window, spec.window))
    wins, shift = into_range(wins.reshape(img.height, img.width, -1))
    mean = wins.mean(axis=2)
    var = wins.var(axis=2, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cz2 = var / mean**2
        gain = np.clip(1.0 - (1.0 / spec.nominal_looks) / cz2, 0.0, 1.0)
    out = mean + gain * (wins[..., spec.window**2 // 2] - mean)
    out = np.where(mean > 0, out, 0.0)
    return np.ldexp(out, -shift)


def reference_q(x: np.ndarray, y: np.ndarray):
    """Q of every usable window and the count of skipped ones, as q_index
    defines them on copied windows: a window is skipped where x is constant
    (min == max) or a factor's denominator is not positive, and each window
    pair is scaled by the range rule of its stacked cells."""
    n = Q_WINDOW * Q_WINDOW
    wx = sliding_window_view(x, (Q_WINDOW, Q_WINDOW)).reshape(-1, n)
    wy = sliding_window_view(y, (Q_WINDOW, Q_WINDOW)).reshape(-1, n)
    varying = wx.min(axis=1) != wx.max(axis=1)
    pairs, _ = into_range(np.concatenate([wx, wy], axis=1))
    wx, wy = pairs[:, :n], pairs[:, n:]
    mx = wx.mean(axis=1)
    my = wy.mean(axis=1)
    vx = wx.var(axis=1, ddof=1)
    vy = wy.var(axis=1, ddof=1)
    cov = ((wx - mx[:, None]) * (wy - my[:, None])).sum(axis=1) / (n - 1)
    usable = varying & (vx > 0) & (vy > 0) & (mx**2 + my**2 > 0)
    sx = np.sqrt(vx[usable])
    sy = np.sqrt(vy[usable])
    q = (
        (cov[usable] / (sx * sy))
        * (2.0 * mx[usable] * my[usable] / (mx[usable] ** 2 + my[usable] ** 2))
        * (2.0 * sx * sy / (vx[usable] + vy[usable]))
    )
    return q, int(usable.size - q.size)


def assert_q_is_the_reference(x, y):
    q, skipped = reference_q(x, y)
    if q.size == 0:
        with pytest.raises(DegenerateRegionError):
            q_index(Raster(x), Raster(y))
        return
    want = (float(q.mean()), float(q.std(ddof=0)), q.size, skipped)
    assert np.array_equal(bits(q_index(Raster(x), Raster(y), with_counts=True)), bits(want))


@st.composite
def patched_images(draw, min_side=8):
    """(x, y): a speckled reference and a noisy copy, min_side-40 px a side, with
    zero and constant patches, scaled by a power of two over the float range."""
    h = draw(st.integers(min_side, 40))
    w = draw(st.integers(min_side, 40))
    rng = stream(605, draw(st.integers(0, 2**32 - 1)))
    x = 100.0 * rng.gamma(draw(st.sampled_from([1.0, 3.0])), 1.0, (h, w))
    for _ in range(draw(st.integers(0, 3))):
        r, c = rng.integers(0, h), rng.integers(0, w)
        x[r:r + rng.integers(1, 12), c:c + rng.integers(1, 12)] = draw(
            st.sampled_from([0.0, 0.0, 1.0, 37.5])
        )
    y = x * rng.gamma(3.0, 1.0 / 3.0, (h, w))
    if draw(st.booleans()):
        y[rng.random((h, w)) < 0.2] = 0.0
    k = draw(st.sampled_from([0, 0, -1060, -600, -300, 300, 600, 1000]))
    return np.ldexp(x, k), np.ldexp(y, k)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), window=st.sampled_from([3, 5, 7, 11]),
       looks=st.sampled_from([1.0, 2.5]))
def test_lee_equals_the_copied_window_statistics(data, window, looks):
    # 11x11 is the largest window LeeSpec accepts
    img = Raster(data.draw(patched_images(min_side=max(8, window)))[0])
    spec = LeeSpec(window=window, nominal_looks=looks)
    assert np.array_equal(bits(lee_filter(img, spec).array), bits(reference_lee(img, spec)))


@settings(max_examples=60, deadline=None)
@given(pair=patched_images())
def test_q_equals_the_copied_window_statistics(pair):
    assert_q_is_the_reference(*pair)


# The hypothesis references are speckled, so nearly every window varies; these
# cases gather few windows (phantoms), every window, and none.


@pytest.mark.parametrize("situation", sorted(SITUATIONS))
def test_q_on_phantoms_equals_the_copied_window_statistics(situation):
    # a phantom is constant over much of its area: the gather takes a subset
    geom = default_geometry(64)
    sit = SITUATIONS[situation]
    clean = make_phantom(geom, sit)
    noisy = corrupt(clean, sit, replicate_stream(0, situation, 0))
    lee = lee_filter(noisy, LeeSpec(window=5, nominal_looks=sit.looks))
    for test_image in (noisy, lee):
        assert_q_is_the_reference(clean.array, test_image.array)
    _, _, used, skipped = q_index(clean, noisy, with_counts=True)
    assert used > 0 and skipped > 0


def test_q_on_a_textured_reference_equals_the_copied_window_statistics():
    # every window is gathered, over more than one chunk
    rng = stream(606)
    x = 100.0 * rng.gamma(1.0, 1.0, (60, 50))
    y = x * rng.gamma(3.0, 1.0 / 3.0, x.shape)
    assert (60 - Q_WINDOW + 1) * (50 - Q_WINDOW + 1) > Q_CHUNK
    assert_q_is_the_reference(x, y)
    assert q_index(Raster(x), Raster(y), with_counts=True)[3] == 0


def test_q_on_a_constant_reference_is_degenerate():
    rng = stream(607)
    y = rng.gamma(3.0, 1.0, (20, 20))
    for level in (0.0, 1.001, 2.0**-700):
        x = np.full((20, 20), level)
        assert reference_q(x, y)[0].size == 0
        with pytest.raises(DegenerateRegionError):
            q_index(Raster(x), Raster(y))


def report_bits(report):
    return [None if v is None else float(v).hex() for v in dataclasses.astuple(report)]


def test_a_batch_of_reports_is_each_pair_alone(monkeypatch):
    # one reports call scores every image against the phantom prepared once:
    # shift-0 images in one pass, the 2^600 one at its own shift, and each
    # report has the bits of compute_report on its pair alone
    geom = default_geometry(64)
    sit = SITUATIONS[3]
    clean = make_phantom(geom, sit)
    noisy = corrupt(clean, sit, replicate_stream(0, 3, 0))
    tests = [
        noisy,
        lee_filter(noisy, LeeSpec(window=5, nominal_looks=sit.looks)),
        Raster(np.full(clean.shape, sit.background_mean)),
        Raster(np.ldexp(noisy.array, 600)),
    ]
    passes = []
    real = metrics._q_scores

    def spy(x, varying, images, *args, **kwargs):
        passes.append(len(images))
        return real(x, varying, images, *args, **kwargs)

    monkeypatch.setattr(metrics, "_q_scores", spy)
    reference = Reference(clean, geom)
    first = reference.reports(tests)  # its pass computes the shift-0 moments
    again = reference.reports(tests)  # this one reuses them
    assert sorted(passes) == [1, 1, 3, 3]
    monkeypatch.undo()
    for reports in (first, again):
        assert len(reports) == len(tests)
        for test, report in zip(tests, reports):
            alone = compute_report(clean, test, geom)
            assert report_bits(report) == report_bits(alone)
            q, _ = reference_q(clean.array, test.array)
            if q.size == 0:
                assert report.q_mean is None and report.q_std is None
            else:
                assert np.array_equal(bits([report.q_mean, report.q_std]),
                                      bits([q.mean(), q.std(ddof=0)]))
        assert reports[2].q_mean is None  # a constant image has no usable window
        assert reports[3].q_mean is not None  # scored at its shift
