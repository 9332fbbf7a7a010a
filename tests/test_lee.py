import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import stream
from despeckle import (
    SITUATIONS,
    InvalidArgumentError,
    LeeSpec,
    Raster,
    corrupt,
    default_geometry,
    enl,
    lee_filter,
    make_phantom,
    pad_mirror,
    replicate_stream,
    unit_speckle,
)


def test_spec_validation():
    LeeSpec(window=7, nominal_looks=4.0)
    LeeSpec(window=np.int64(5))
    with pytest.raises(InvalidArgumentError, match="integer"):
        LeeSpec(window=5.0)
    with pytest.raises(InvalidArgumentError):
        LeeSpec(window=4)
    with pytest.raises(InvalidArgumentError):
        LeeSpec(window=1)
    with pytest.raises(InvalidArgumentError, match="at most 128 cells"):
        LeeSpec(window=13)  # its window sums exceed windows.ROW_SUM_MAX terms
    with pytest.raises(InvalidArgumentError):
        LeeSpec(nominal_looks=0.5)


def test_undersized_image():
    with pytest.raises(InvalidArgumentError):
        lee_filter(Raster(np.ones((3, 40))), LeeSpec(window=5))


def test_constant_image_passes_through():
    img = Raster(np.full((10, 10), 17.0))
    out = lee_filter(img, LeeSpec(window=5, nominal_looks=1.0))
    assert np.array_equal(out.array, img.array)


def test_all_zero_image_maps_to_zero():
    img = Raster(np.zeros((8, 8)))
    out = lee_filter(img, LeeSpec(window=3))
    assert np.array_equal(out.array, np.zeros((8, 8)))


def test_gain_clamps_to_boxcar_on_smooth_data():
    # sample CV far below the speckle CV for 1 look drives the gain to its
    # lower clamp, leaving the plain window mean
    rng = stream(201)
    img = Raster(rng.normal(100.0, 1.0, size=(12, 15)))
    out = lee_filter(img, LeeSpec(window=3, nominal_looks=1.0))
    padded = pad_mirror(img, 1).array
    means = sliding_window_view(padded, (3, 3)).mean(axis=(2, 3))
    assert np.allclose(out.array, means, rtol=0, atol=1e-12)


def test_huge_looks_is_near_identity():
    # speckle CV ~ 1/sqrt(looks) -> gain pinned at 1, output is the input
    rng = stream(202)
    img = Raster(50.0 * unit_speckle(4.0, (10, 10), rng))
    out = lee_filter(img, LeeSpec(window=5, nominal_looks=1e12))
    assert np.allclose(out.array, img.array, rtol=1e-9)


def test_output_stays_within_window_range():
    rng = stream(203)
    img = Raster(120.0 * unit_speckle(1.0, (18, 18), rng))
    out = lee_filter(img, LeeSpec(window=5, nominal_looks=1.0))
    padded = pad_mirror(img, 2).array
    wins = sliding_window_view(padded, (5, 5)).reshape(18, 18, -1)
    assert np.all(out.array >= wins.min(axis=2) - 1e-12)
    assert np.all(out.array <= wins.max(axis=2) + 1e-12)


def test_windows_of_mixed_magnitude_stay_in_range():
    # A dim half at 1e-300 beside a bright half at 1e300: each window is
    # filtered at a power of two of its own, so no half flushes to 0 and
    # every output lies within its window's range.
    arr = 120.0 * unit_speckle(1.0, (18, 18), stream(205))
    arr[:, :9] *= 1e-300
    arr[:, 9:] *= 1e300
    out = lee_filter(Raster(arr), LeeSpec(window=5, nominal_looks=1.0)).array
    padded = pad_mirror(Raster(arr), 2).array
    wins = sliding_window_view(padded, (5, 5)).reshape(18, 18, -1)
    assert np.all(out >= wins.min(axis=2) * (1.0 - 1e-12))
    assert np.all(out <= wins.max(axis=2) * (1.0 + 1e-12))


def test_smooths_homogeneous_speckle():
    for s in range(10):
        rng = stream(7, s)
        img = Raster(200.0 * unit_speckle(1.0, (64, 64), rng))
        out = lee_filter(img, LeeSpec(window=5, nominal_looks=1.0))
        assert enl(img.array) == pytest.approx(1.0, rel=0.2)
        assert enl(out.array) >= 8.0 * enl(img.array)


def test_preserves_mean_roughly():
    rng = stream(204)
    img = Raster(90.0 * unit_speckle(3.0, (48, 48), rng))
    out = lee_filter(img, LeeSpec(window=7, nominal_looks=3.0))
    assert out.array.mean() == pytest.approx(img.array.mean(), rel=0.02)


@pytest.mark.parametrize("window", [5, 7])
def test_rotation_and_scale_equivariance(window):
    # Rotation changes only the summation order and 2^k scales every window
    # statistic exactly.  Bound: at most 0.1 % of the pixels differ by more
    # than 1e-9 relative.  At k = +-600 every window lies beyond
    # [2^-500, 2^500] and is filtered at a power of two of its own.
    geom = default_geometry(64)
    for sit in SITUATIONS.values():
        img = corrupt(make_phantom(geom, sit), sit, replicate_stream(7, sit.id, 0))
        spec = LeeSpec(window=window, nominal_looks=sit.looks)
        out = lee_filter(img, spec).array
        pairs = [(lee_filter(Raster(np.rot90(img.array)), spec).array, np.rot90(out))]
        for k in (-600, -3, 5, 600):
            pairs.append((lee_filter(Raster(2.0**k * img.array), spec).array, 2.0**k * out))
        for got, want in pairs:
            assert np.mean(np.abs(got - want) > 1e-9 * np.abs(want)) <= 1e-3
