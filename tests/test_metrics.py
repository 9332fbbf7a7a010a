import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from despeckle import (
    METRIC_HEADER,
    DegenerateRegionError,
    FilterSpec,
    InvalidArgumentError,
    LeeSpec,
    MetricReport,
    Raster,
    TestConfig,
    compute_report,
    default_geometry,
    edge_measures,
    enl,
    error_metrics,
    filter_image,
    laplacian_correlation,
    lee_filter,
    line_contrast,
    q_index,
    sample,
    GammaParams,
)
from despeckle import metrics as metrics_module
from despeckle.harness import SITUATIONS, corrupt, make_phantom, render_phantom, replicate_stream
from despeckle.metrics import DCON_OFFSET


def stream(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


# ---------------------------------------------------------------------- enl


def test_enl_small_case():
    # mean 1.5, unbiased variance 1 -> (1.5)^2 / 1
    assert enl([1.0, 1.0, 1.0, 3.0]) == pytest.approx(2.25, abs=1e-15)


def test_enl_scale_invariant():
    # factors whose squares leave the float range, 2^+-660 and 1e+-200, too
    rng = stream(301)
    z = rng.gamma(4.0, size=500)
    for factor in (1000.0, 2.0**-660, 2.0**660, 1e-200, 1e200):
        assert enl(z * factor) == pytest.approx(enl(z), rel=1e-12)


def test_enl_estimates_looks():
    rng = stream(302)
    z = sample(GammaParams(5.0, 150.0), 10_000, rng)
    assert enl(z) == pytest.approx(5.0, rel=0.1)


def test_enl_degenerate_and_tiny():
    with pytest.raises(DegenerateRegionError):
        enl([3.0, 3.0, 3.0])
    with pytest.raises(InvalidArgumentError):
        enl([3.0])


# ------------------------------------------------------------- line contrast


def test_line_contrast_zero_for_clean_phantom():
    geom = default_geometry(128)
    phantom = render_phantom(geom, 200.0, 70.0)
    assert line_contrast(phantom, geom, phantom) == 0.0


def test_line_contrast_flat_image():
    # clean contrast is 2*200 - 70 - 70 = 260; a flat image has none
    geom = default_geometry(128)
    phantom = render_phantom(geom, 200.0, 70.0)
    flat = Raster(np.full((128, 128), 70.0))
    assert line_contrast(flat, geom, phantom) == pytest.approx(260.0, abs=1e-9)


def test_line_contrast_geometry_size_check():
    geom = default_geometry(64)
    phantom = render_phantom(default_geometry(128), 200.0, 70.0)
    with pytest.raises(InvalidArgumentError):
        line_contrast(phantom, geom, phantom)


# ------------------------------------------------------------ edge measures


def test_edge_measures_zero_for_clean_phantom():
    geom = default_geometry(128)
    phantom = render_phantom(geom, 200.0, 70.0)
    assert edge_measures(phantom, geom, phantom) == (0.0, 0.0)


def test_edge_measures_shift_invariant():
    geom = default_geometry(128)
    phantom = render_phantom(geom, 200.0, 70.0)
    rng = stream(303)
    img = Raster(phantom.array * rng.uniform(0.5, 1.5, phantom.shape))
    shifted = Raster(img.array + 12.5)
    g0, v0 = edge_measures(img, geom, phantom)
    g1, v1 = edge_measures(shifted, geom, phantom)
    assert g1 == pytest.approx(g0, abs=1e-9)
    assert v1 == pytest.approx(v0, rel=1e-9)


def situation_2_pair():
    """The 64x64 situation-2 phantom and its seed-0 noisy image."""
    geom = default_geometry(64)
    sit = SITUATIONS[2]
    clean = make_phantom(geom, sit)
    return geom, clean, corrupt(clean, sit, replicate_stream(0, 2, 0))


def test_edge_measures_take_any_magnitude():
    # the gradient scales with the image; the variance deviation (~7e3) scaled
    # by the square of these factors leaves the float range, so it is None,
    # where it was nan with overflow warnings (x1e200) or a silent 0.0 (x1e-200)
    geom, clean, noisy = situation_2_pair()
    gradient, variance = edge_measures(noisy, geom, clean)
    with np.errstate(all="raise"):
        for k in (-300, 300):
            scaled = edge_measures(Raster(np.ldexp(noisy.array, k)), geom,
                                   Raster(np.ldexp(clean.array, k)))
            assert scaled == (np.ldexp(gradient, k), np.ldexp(variance, 2 * k)), k
        for k in (-600, 600):
            scaled = edge_measures(Raster(np.ldexp(noisy.array, k)), geom,
                                   Raster(np.ldexp(clean.array, k)))
            assert scaled == (np.ldexp(gradient, k), None), k
        for factor in (1e-200, 1e200):
            g, v = edge_measures(Raster(noisy.array * factor), geom, Raster(clean.array * factor))
            assert g == pytest.approx(gradient * factor, rel=1e-12)
            assert v is None, factor


# ----------------------------------------------------------------- q index


def test_q_identity():
    rng = stream(304)
    img = Raster(rng.uniform(10.0, 20.0, (16, 16)))
    q_mean, q_std = q_index(img, img)
    assert q_mean == pytest.approx(1.0, abs=1e-12)
    assert q_std == pytest.approx(0.0, abs=1e-12)


def test_q_perfect_anticorrelation():
    rng = stream(305)
    x = rng.uniform(10.0, 20.0, (8, 8))
    y = 2.0 * x.mean() - x  # same mean and variance, correlation -1
    q_mean, q_std = q_index(Raster(x), Raster(y))
    assert q_mean == pytest.approx(-1.0, abs=1e-12)
    assert q_std == pytest.approx(0.0, abs=1e-12)


def test_q_luminance_penalty_for_offset():
    rng = stream(306)
    x = rng.uniform(10.0, 20.0, (8, 8))
    c = 30.0
    q_mean, _ = q_index(Raster(x), Raster(x + c))
    mx, my = x.mean(), x.mean() + c
    assert q_mean == pytest.approx(2.0 * mx * my / (mx**2 + my**2), abs=1e-12)
    assert q_mean < 1.0


def test_q_skips_degenerate_windows():
    rng = stream(307)
    x = np.full((9, 8), 5.0)
    x[8, :] = rng.uniform(1.0, 2.0, 8)  # only the lower window varies
    y = rng.uniform(4.0, 6.0, (9, 8))
    q_mean, q_std, used, skipped = q_index(Raster(x), Raster(y), with_counts=True)
    assert (used, skipped) == (1, 1)
    assert -1.0 <= q_mean <= 1.0


def test_q_takes_any_magnitude():
    # Q is scale-free: a power of two scales each window pair exactly, so the
    # bytes stay; 1e+-200 rounds, and without the range rule gave nan or raised
    rng = stream(308)
    x = 100.0 * rng.gamma(1.0, 1.0, (32, 32))
    y = x * rng.gamma(3.0, 1.0 / 3.0, (32, 32))
    want = q_index(Raster(x), Raster(y), with_counts=True)
    for k in (-600, 600):
        got = q_index(Raster(np.ldexp(x, k)), Raster(np.ldexp(y, k)), with_counts=True)
        assert got == want, k
    for factor in (1e-200, 1e200):
        got = q_index(Raster(x * factor), Raster(y * factor), with_counts=True)
        assert got[:2] == pytest.approx(want[:2], rel=1e-12)
        assert got[2:] == want[2:]


def test_q_skip_rule_is_free_of_the_intensity_scale():
    # x1.001 rounds the sums of constant windows, which gave them a variance
    # of ~1e-28 and counted them as used; constancy is decided as min == max
    _, clean, noisy = situation_2_pair()
    q_mean, _, used, skipped = q_index(clean, noisy, with_counts=True)
    assert (used, skipped) == (1874, 1375)
    assert q_mean == pytest.approx(0.5292275814149883, rel=1e-12)
    scaled = q_index(Raster(clean.array * 1.001), Raster(noisy.array * 1.001), with_counts=True)
    assert scaled[2:] == (1874, 1375)
    assert scaled[0] == pytest.approx(0.5292275814149883, rel=1e-12)


def test_q_all_windows_degenerate():
    x = Raster(np.full((10, 10), 3.0))
    with pytest.raises(DegenerateRegionError):
        q_index(x, x)


def test_q_input_validation():
    with pytest.raises(InvalidArgumentError):
        q_index(Raster(np.ones((8, 8))), Raster(np.ones((8, 9))))
    with pytest.raises(InvalidArgumentError):
        q_index(Raster(np.ones((7, 8))), Raster(np.ones((7, 8))))


# ----------------------------------------------------- laplacian correlation


def test_laplacian_correlation_identity_and_affine():
    rng = stream(308)
    img = Raster(rng.uniform(50.0, 150.0, (20, 20)))
    assert laplacian_correlation(img, img) == pytest.approx(1.0, abs=1e-12)
    affine = Raster(3.0 * img.array + 40.0)
    assert laplacian_correlation(img, affine) == pytest.approx(1.0, abs=1e-12)


def test_laplacian_correlation_negated():
    rng = stream(309)
    img = Raster(rng.uniform(50.0, 150.0, (12, 12)))
    flipped = Raster(500.0 - img.array)
    assert laplacian_correlation(img, flipped) == pytest.approx(-1.0, abs=1e-12)


def test_laplacian_correlation_degenerate():
    flat = Raster(np.full((6, 6), 2.0))
    rng = stream(310)
    other = Raster(rng.uniform(1.0, 3.0, (6, 6)))
    with pytest.raises(DegenerateRegionError):
        laplacian_correlation(flat, other)


def test_laplacian_correlation_is_free_of_the_intensity_scale():
    geom = default_geometry(64)
    sit = SITUATIONS[2]
    clean = make_phantom(geom, sit)
    noisy = corrupt(clean, sit, replicate_stream(0, 2, 0)).array
    base = laplacian_correlation(clean, Raster(noisy))
    with np.errstate(all="raise"):
        # a power of two scales exactly, so the bits stay
        for k in (-600, 600):
            scaled = laplacian_correlation(Raster(np.ldexp(clean.array, k)),
                                           Raster(np.ldexp(noisy, k)))
            assert scaled == base, k
        # a decimal factor rounds the pixels, and only that moves the value
        for factor in (1e150, 1e-150, 1e200, 1e-200):
            scaled = laplacian_correlation(Raster(clean.array * factor), Raster(noisy * factor))
            assert scaled == pytest.approx(base, rel=1e-12), factor
        with pytest.raises(DegenerateRegionError):
            laplacian_correlation(Raster(np.full((6, 6), 1e-200)), Raster(noisy[:6, :6]))


# ------------------------------------------------------------ error metrics


def test_error_metrics_identity():
    rng = stream(311)
    img = Raster(rng.uniform(10.0, 90.0, (9, 9)))
    assert error_metrics(img, img) == (0.0, 0.0, 0.0, 0.0)


def test_error_metrics_two_pixel_case():
    x = Raster(np.array([[1.0, 0.0]]))
    y = Raster(np.array([[0.0, 1.0]]))
    mae, mse, nmse, dcon = error_metrics(x, y)
    assert mae == pytest.approx(1.0, abs=1e-12)
    assert mse == pytest.approx(1.0, abs=1e-12)
    assert nmse == pytest.approx(2.0, abs=1e-12)
    assert dcon == pytest.approx(1.0 / (1.0 + DCON_OFFSET), abs=1e-12)


def test_error_metrics_nmse_against_zero_image():
    rng = stream(312)
    x = Raster(rng.uniform(1.0, 5.0, (7, 7)))
    zero = Raster(np.zeros((7, 7)))
    assert error_metrics(x, zero)[2] == pytest.approx(1.0, abs=1e-12)


def test_error_metrics_degenerate_range():
    flat = Raster(np.full((4, 4), 9.0))
    with pytest.raises(DegenerateRegionError):
        error_metrics(flat, flat)


def test_error_metrics_mse_dominates_squared_mae():
    for s in range(5):
        rng = stream(313, s)
        x = Raster(rng.uniform(0.0, 100.0, (15, 15)))
        y = Raster(rng.uniform(0.0, 100.0, (15, 15)))
        mae, mse, _, _ = error_metrics(x, y)
        assert mse >= mae**2 - 1e-15


# ------------------------------------------------------------------- report


def test_metric_header_lists_all_fields():
    assert METRIC_HEADER == (
        "enl,line_contrast_error,edge_gradient,edge_variance,"
        "q_mean,q_std,beta_rho,mae,mse,nmse,dcon"
    )


def test_report_csv_row_uses_na_for_missing():
    row = MetricReport(enl=2.0, q_mean=0.5).as_csv_row()
    cells = row.split(",")
    assert len(cells) == len(METRIC_HEADER.split(","))
    assert cells[0] == "2.0"
    assert cells[1] == "NA"
    assert cells[4] == "0.5"


def test_compute_report_without_geometry():
    rng = stream(314)
    ref = Raster(rng.uniform(50.0, 150.0, (32, 32)))
    test = Raster(ref.array * rng.uniform(0.9, 1.1, (32, 32)))
    report = compute_report(ref, test)
    assert report.line_contrast_error is None
    assert report.edge_gradient is None
    assert report.edge_variance is None
    assert report.enl == pytest.approx(enl(test.array))
    assert report.q_mean is not None and report.mae is not None
    assert report.beta_rho == pytest.approx(laplacian_correlation(ref, test))


def test_compute_report_with_geometry():
    geom = default_geometry(64)
    sit = SITUATIONS[2]
    phantom = make_phantom(geom, sit)
    noisy = corrupt(phantom, sit, replicate_stream(315, 2, 0))
    report = compute_report(phantom, noisy, geom)
    assert report.enl == pytest.approx(enl(noisy.array[geom.background_slices()]))
    assert report.line_contrast_error == pytest.approx(line_contrast(noisy, geom, phantom))
    g, v = edge_measures(noisy, geom, phantom)
    assert (report.edge_gradient, report.edge_variance) == (pytest.approx(g), pytest.approx(v))
    for cell in report.as_csv_row().split(","):
        assert cell != "NA"


def test_geometry_of_another_size_is_rejected():
    # a 64 geometry on 128^2 images picks the wrong regions; it must not give numbers
    for image_size, geom_size in ((128, 64), (64, 128)):
        sit = SITUATIONS[2]
        phantom = make_phantom(default_geometry(image_size), sit)
        noisy = corrupt(phantom, sit, replicate_stream(0, 2, 0))
        geom = default_geometry(geom_size)
        with pytest.raises(InvalidArgumentError, match="geometry size"):
            edge_measures(noisy, geom, phantom)
        with pytest.raises(InvalidArgumentError, match="geometry size"):
            compute_report(phantom, noisy, geom)


def test_compute_report_turns_failures_into_na():
    flat = Raster(np.full((16, 16), 4.0))
    report = compute_report(flat, flat)
    assert report.as_csv_row() == ",".join(["NA"] * 11)


def test_compute_report_lets_programming_errors_through(monkeypatch):
    # only metric failures (package and floating-point errors) become NA
    def broken(x, y):
        raise TypeError("a bug, not a metric failure")

    monkeypatch.setattr(metrics_module, "error_metrics", broken)
    rng = stream(316)
    ref = Raster(rng.uniform(50.0, 150.0, (16, 16)))
    with pytest.raises(TypeError):
        compute_report(ref, ref)


def test_compute_report_shape_check():
    with pytest.raises(InvalidArgumentError):
        compute_report(Raster(np.ones((8, 8))), Raster(np.ones((9, 8))))


SCALE_FREE = ("enl", "q_mean", "q_std", "beta_rho", "mae", "mse", "nmse", "dcon")


def same_bits(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and float(a).hex() == float(b).hex()
    )


@settings(max_examples=12, deadline=None)
@given(situation=st.sampled_from(sorted(SITUATIONS)), replicate=st.integers(0, 2**16),
       lee=st.booleans(), k=st.sampled_from([-600, -300, 300, 600]))
def test_compute_report_is_exact_under_a_power_of_two(situation, replicate, lee, k):
    # scale-free columns keep their bits, line contrast and edge gradient scale
    # by 2^k and edge variance by 2^2k, exactly or as NA; nothing warns
    geom = default_geometry(64)
    sit = SITUATIONS[situation]
    clean = make_phantom(geom, sit)
    test = corrupt(clean, sit, replicate_stream(replicate, situation, 0))
    if lee:
        test = lee_filter(test, LeeSpec(window=5, nominal_looks=sit.looks))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        base = compute_report(clean, test, geom)
        scaled = compute_report(Raster(np.ldexp(clean.array, k)),
                                Raster(np.ldexp(test.array, k)), geom)
    assert "NA" not in base.as_csv_row().split(",")
    for name in SCALE_FREE:
        assert same_bits(getattr(scaled, name), getattr(base, name)), name
    assert scaled.line_contrast_error == np.ldexp(base.line_contrast_error, k)
    assert scaled.edge_gradient == np.ldexp(base.edge_gradient, k)
    if abs(k) == 300:
        assert scaled.edge_variance == np.ldexp(base.edge_variance, 2 * k)
    else:  # a deviation of ~1e2 to 1e5 times 2^+-1200 leaves the float range
        assert scaled.edge_variance is None


def test_compute_report_near_the_float_maximum():
    # the seed-0 situation-2 pair scaled so its brightest pixel is 1e308, and
    # by the power of two that puts it in [2^1022, 2^1023): no sum of the line
    # rows or the Laplacian overflows, nothing warns, and at the power of two
    # the scale-free columns keep their bits and the covariant ones scale
    geom = default_geometry(64)
    sit = SITUATIONS[2]
    clean = make_phantom(geom, sit)
    test = corrupt(clean, sit, replicate_stream(0, 2, 0))
    top = max(clean.array.max(), test.array.max())
    k = 1023 - np.frexp(top)[1]
    base = compute_report(clean, test, geom)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        near = compute_report(Raster(clean.array * (1e308 / top)),
                              Raster(test.array * (1e308 / top)), geom)
        scaled = compute_report(Raster(np.ldexp(clean.array, k)),
                                Raster(np.ldexp(test.array, k)), geom)
    for report in (near, scaled):
        row = report.as_csv_row().split(",")
        assert "nan" not in row and "inf" not in row
        assert row.count("NA") == 1 and report.edge_variance is None  # ~7e3 times 2^2k
        assert report.beta_rho == pytest.approx(base.beta_rho, rel=1e-12)
    assert near.line_contrast_error == pytest.approx(base.line_contrast_error * (1e308 / top),
                                                     rel=1e-9)
    for name in SCALE_FREE:
        assert same_bits(getattr(scaled, name), getattr(base, name)), name
    assert scaled.line_contrast_error == np.ldexp(base.line_contrast_error, k)
    assert scaled.edge_gradient == np.ldexp(base.edge_gradient, k)


# ------------------------------------------------- filtering improves Q


def test_filtering_improves_q_against_clean_phantom():
    geom = default_geometry(128)
    sit = SITUATIONS[1]
    phantom = make_phantom(geom, sit)
    spec = FilterSpec(window=5, test=TestConfig(alpha=0.2))
    q_noisy, q_filtered = [], []
    for s in range(20):
        rng = replicate_stream(99, 1, s)
        noisy = corrupt(phantom, sit, rng)
        filtered = filter_image(noisy, spec, threads=4)
        q_noisy.append(q_index(phantom, noisy)[0])
        q_filtered.append(q_index(phantom, filtered)[0])
    wins = sum(f > n for f, n in zip(q_filtered, q_noisy))
    assert wins >= 18
    assert float(np.median(q_filtered)) > float(np.median(q_noisy))
