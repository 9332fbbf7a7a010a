import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from conftest import bisect_200, stream
from despeckle import (
    GAMMA_ALGORITHM_VERSION,
    L_MAX,
    DomainError,
    GammaParams,
    InvalidArgumentError,
    density,
    log_likelihood,
    mle,
    sample,
    unit_speckle,
)
from despeckle.gamma import (
    ZERO_SHIFT,
    _dispersion_gap,
    looks_below,
    shift_zeros,
    solve_looks,
)


def test_params_validation():
    GammaParams(1.0, 0.5)
    GammaParams(L_MAX, 1e9)
    for looks, mean in [(0.5, 1.0), (L_MAX * 2, 1.0), (np.nan, 1.0), (1.0, 0.0), (1.0, -3.0)]:
        with pytest.raises(InvalidArgumentError):
            GammaParams(looks, mean)


def test_density_exponential_special_case():
    # L=1 reduces to Exponential(1/lambda): f(2) = e^{-1}/2
    assert density(GammaParams(1.0, 2.0), 2.0) == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)


def test_density_rejects_nonpositive():
    p = GammaParams(3.0, 195.0)
    with pytest.raises(DomainError):
        density(p, 0.0)
    with pytest.raises(DomainError):
        density(p, np.array([1.0, -1.0]))


@pytest.mark.parametrize("looks", [1.0, 3.0, 5.0, 7.0])
@pytest.mark.parametrize("mean", [150.0, 170.0, 195.0, 200.0])
def test_density_integrates_to_one(looks, mean):
    p = GammaParams(looks, mean)
    total, err = integrate.quad(lambda z: density(p, z), 0.0, np.inf)
    assert abs(total - 1.0) < 1e-6
    assert err < 1e-6


def test_density_integral_tight_tolerance():
    p = GammaParams(3.0, 195.0)
    total, _ = integrate.quad(lambda z: density(p, z), 0.0, np.inf)
    assert abs(total - 1.0) < 1e-8


def test_density_mode():
    # mode of Gamma(L, L/lambda) sits at lambda*(L-1)/L
    p = GammaParams(3.0, 195.0)
    mode = 195.0 * 2.0 / 3.0
    z = np.linspace(1.0, 600.0, 12000)
    assert abs(z[np.argmax(density(p, z))] - mode) < 0.1
    assert density(p, mode) > density(p, mode - 1.0)
    assert density(p, mode) > density(p, mode + 1.0)


def test_log_likelihood_matches_density():
    p = GammaParams(2.0, 10.0)
    values = np.array([3.0, 8.0, 15.0])
    expected = float(np.sum(np.log([density(p, v) for v in values])))
    assert log_likelihood(p, values) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("looks,mean,values", [(3.0, 100.0, [1e5]), (1e4, 1.0, [1e-300, 1.0])])
def test_log_likelihood_stays_finite_where_the_density_underflows(looks, mean, values):
    # the density is 0.0 at these points; the log-density is -2988.19 and
    # -6,897,057.13, not -inf
    with np.errstate(all="raise"):
        got = log_likelihood(GammaParams(looks, mean), values)
    expected = float(np.sum(stats.gamma.logpdf(values, looks, scale=mean / looks)))
    assert got == pytest.approx(expected, rel=1e-12)


def test_sample_mean_clt_bound():
    n = 10**5
    z = sample(GammaParams(1.0, 200.0), n, stream(1))
    assert abs(z.mean() - 200.0) <= 3.0 * 200.0 / math.sqrt(n)


def test_sample_cv2_matches_looks():
    z = sample(GammaParams(5.0, 150.0), 10**5, stream(2))
    cv2 = z.var() / z.mean() ** 2
    assert abs(cv2 - 0.2) / 0.2 < 0.05


def test_sample_determinism():
    a = sample(GammaParams(3.0, 195.0), 500, stream(3))
    b = sample(GammaParams(3.0, 195.0), 500, stream(3))
    assert np.array_equal(a, b)
    assert GAMMA_ALGORITHM_VERSION == 1


def test_sample_positive_and_sized():
    z = sample(GammaParams(1.0, 1.0), 1000, stream(4))
    assert z.shape == (1000,)
    assert np.all(z > 0)
    with pytest.raises(InvalidArgumentError):
        sample(GammaParams(1.0, 1.0), 0, stream(4))


def test_unit_speckle_unit_mean():
    y = unit_speckle(3.0, (64, 64), stream(5))
    assert y.shape == (64, 64)
    assert abs(y.mean() - 1.0) < 3.0 / math.sqrt(3.0 * 64 * 64)


def test_unit_speckle_refuses_looks_outside_its_domain():
    # the sampler would reject every candidate of nan or inf looks forever,
    # and its shape d = L - 1/3 needs L >= 1
    for looks in (math.nan, math.inf, -math.inf, 0.0, 0.2, 0.999, -1.0):
        with pytest.raises(InvalidArgumentError, match="looks"):
            unit_speckle(looks, (3,), stream(7))
    for looks in (1.0, 1e4):
        y = unit_speckle(looks, (3, 2), stream(7))
        assert y.shape == (3, 2) and np.all(y > 0)


def test_mle_mean_is_sample_mean_exactly():
    z = sample(GammaParams(3.0, 195.0), 400, stream(6))
    assert mle(z).params.mean == float(z.mean())


def test_mle_constant_sample_degenerates():
    fit = mle([5.0, 5.0, 5.0, 5.0])
    assert fit.params.mean == 5.0
    assert fit.params.looks == L_MAX
    assert fit.degenerate


def test_mle_two_point_root_consistency():
    # solve ln L - digamma(L) = ln((1+e^2)/2) - 1 and substitute back
    z = np.array([1.0, math.e**2])
    rhs = math.log(z.mean()) - float(np.log(z).mean())
    assert rhs == pytest.approx(0.43378, abs=5e-6)
    looks = mle(z).params.looks
    assert abs(math.log(looks) - special.digamma(looks) - rhs) < 1e-8


def test_mle_zero_shift_flag():
    fit = mle([0.0, 2.0, 4.0, 8.0])
    assert fit.zero_shifted
    assert fit.params.mean > 0
    clean = mle([1.0, 2.0, 4.0, 8.0])
    assert not clean.zero_shifted


def test_mle_takes_any_magnitude():
    # At 2^1000 the sample sum lies past the float maximum, at 2^-1000 the
    # values sit near the bottom of the normal range; the fit runs at a power
    # of two inside it, gives the same looks and scales the mean exactly.
    z = sample(GammaParams(3.0, 1e6), 49, stream(8))
    fit = mle(z)
    for k in (-1000, 1000):
        scaled = mle(2.0**k * z)
        assert scaled.params.looks == pytest.approx(fit.params.looks, rel=1e-9)
        assert scaled.params.mean == 2.0**k * fit.params.mean
        assert not scaled.degenerate


def test_mle_rejects_bad_samples():
    with pytest.raises(DomainError):
        mle([3.0])
    with pytest.raises(DomainError):
        mle([1.0, -1.0])
    with pytest.raises(DomainError):
        mle([1.0, np.nan])
    with pytest.raises(DomainError):
        mle([0.0, 0.0, 0.0])


def test_solve_looks_monotone_and_clamped():
    gap = lambda L: math.log(L) - special.digamma(L)
    for L in (1.0, 2.5, 17.0, 400.0):
        assert solve_looks(gap(L)) == pytest.approx(L, rel=1e-9)
    assert solve_looks(gap(1.0) + 1.0) == 1.0
    assert solve_looks(gap(L_MAX) / 2.0) == L_MAX
    assert solve_looks(math.inf) == 1.0 and solve_looks(-math.inf) == L_MAX
    for rhs in (gap(2.0), gap(1.0) + 1.0, -1.0):
        assert type(solve_looks(rhs)) is float


# ---------------------------------------------------------------------------
# the looks fit against its earlier definition, bit for bit


def _mle_min_shift(values):
    """mle as first written: zeros become positive.min() * ZERO_SHIFT."""
    z = np.asarray(values, dtype=np.float64)
    zero_shifted = bool(np.any(z == 0))
    if zero_shifted:
        positive = z[z > 0]
        if positive.size == 0:
            raise DomainError("mle requires at least one positive value")
        z = np.where(z == 0, positive.min() * ZERO_SHIFT, z)
    mean = float(z.mean())
    rhs = math.log(mean) - float(np.log(z).mean())
    if rhs <= 0.0:
        return GammaParams(L_MAX, mean), True, zero_shifted
    return GammaParams(float(bisect_200(rhs)), mean), False, zero_shifted


def test_solve_looks_equals_the_200_step_bisection():
    gap = _dispersion_gap
    g1, gmax = gap(1.0), gap(L_MAX)
    rng = np.random.default_rng(61)
    roots = L_MAX ** rng.random(50_000)  # ln L uniform: roots over the whole range
    inside = np.concatenate([rng.uniform(gmax, g1, 50_000), gap(roots)])
    inside = inside[(inside > gmax) & (inside < g1)]
    assert inside.size > 99_000
    edges = np.array([g1, np.nextafter(g1, 0), np.nextafter(g1, 1), g1 + 1.0,
                      gmax, np.nextafter(gmax, 1), np.nextafter(gmax, 0), -1.0])
    for rhs in (inside, edges):
        solved = np.array([solve_looks(x) for x in rhs.tolist()])
        assert solved.tobytes() == bisect_200(rhs).tobytes()
    assert solve_looks(g1) == 1.0 and solve_looks(gmax) == L_MAX


def test_mle_zero_shift_equals_the_min_shift():
    rng = np.random.default_rng(62)
    for _ in range(300):
        z = rng.gamma(rng.uniform(1.0, 8.0), 50.0, int(rng.integers(2, 50)))
        z[rng.random(z.size) < rng.uniform(0.05, 0.9)] = 0.0
        if not np.any(z > 0):
            z[0] = 3.0
        if rng.random() < 0.1:
            z[z > 0] = z.max()  # zeros beside a constant: the min is the max
        fit = mle(z)
        params, degenerate, zero_shifted = _mle_min_shift(z)
        assert (fit.params.looks, fit.params.mean) == (params.looks, params.mean)
        assert (fit.degenerate, fit.zero_shifted) == (degenerate, zero_shifted)
    for zeros in ([0.0, 0.0], [0.0] * 9):
        with pytest.raises(DomainError, match="at least one positive value"):
            mle(zeros)
        with pytest.raises(DomainError, match="at least one positive value"):
            _mle_min_shift(zeros)


def test_shift_zeros_works_row_by_row():
    z = np.array([[0.0, 2.0, 5.0], [0.0, 0.0, 0.0], [4.0, 0.0, 1.0]])
    shifted = shift_zeros(z)
    assert shifted.tobytes() == np.array([
        [2.0 * ZERO_SHIFT, 2.0, 5.0], [ZERO_SHIFT] * 3, [4.0, ZERO_SHIFT, 1.0],
    ]).tobytes()
    assert np.array_equal(shift_zeros(z[2]), shifted[2])


def test_looks_below_equals_solving():
    # looks_below decides solve_looks(rhs) < T without solving; the two may
    # differ only where T lies within 1e-9 relative of the solved looks
    gap = _dispersion_gap
    g1, gmax = gap(1.0), gap(L_MAX)
    rng = np.random.default_rng(63)
    size = 60_000
    roots = L_MAX ** rng.random(size)
    rhs = np.concatenate([rng.uniform(gmax, g1, size), gap(roots)])
    rhs = np.concatenate([rhs, [g1, np.nextafter(g1, 0), g1 + 1.0,
                                gmax, np.nextafter(gmax, 1), gmax / 2.0, -1.0]])
    solved = bisect_200(rhs)
    # thresholds near the root, spread over the whole range, and at the clamps
    near = solved * np.exp(rng.normal(0.0, 1.0, rhs.size) * 10.0 ** rng.uniform(-12, 0, rhs.size))
    spread = np.exp(rng.uniform(-1.0, np.log(2.0 * L_MAX), rhs.size))
    clamps = rng.choice([0.5, 1.0, np.nextafter(1.0, 2), L_MAX, np.nextafter(L_MAX, 0),
                         np.nextafter(L_MAX, np.inf), np.inf], rhs.size)
    for threshold in (near, spread, clamps):
        got = looks_below(rhs, threshold)
        want = solved < threshold
        off = got != want
        assert np.all(np.abs(threshold[off] - solved[off]) <= 1e-9 * solved[off])
        assert got.any() and not got.all()
    edge = np.array([g1, g1 + 1.0, gmax, -1.0])
    for threshold in (1.0, np.nextafter(1.0, 2), L_MAX, np.nextafter(L_MAX, np.inf), np.inf):
        assert np.array_equal(looks_below(edge, threshold), bisect_200(edge) < threshold)
    assert looks_below(rhs[:3].reshape(3, 1), np.full((3, 4), 5.0)).shape == (3, 4)


# thresholds at and next to the rules' edges: at or below 1, near 1, at and
# next to L_MAX, beyond it, infinite and nan
EDGE_THRESHOLDS = (-1.0, 0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-9, L_MAX,
                   np.nextafter(L_MAX, 0.0), np.nextafter(L_MAX, np.inf), 2.0 * L_MAX,
                   np.inf, np.nan)
# the screen's cut-offs on rhs T
CUTOFFS = (1.0 + 1e-9, 1.0 - 1e-9, 0.5 * (1.0 + 1e-9), 0.5 * (1.0 - 1e-9))


@st.composite
def screen_pairs(draw):
    """(rhs, T): rhs on a cut-off over T, on one of the series bounds of T's
    gap with or without the margin, on T's gap or one ulp off any of these,
    inside the band, 0, negative, nan or infinite, or any rhs, against an
    edge or an ordinary threshold."""
    threshold = draw(st.one_of(
        st.sampled_from(EDGE_THRESHOLDS),
        st.floats(1.0, 1.0 + 1e-6),
        st.floats(1.0, L_MAX),
        st.floats(L_MAX * (1.0 - 1e-9), L_MAX * (1.0 + 1e-9)),
    ))
    kind = draw(st.sampled_from(["cutoff", "bound", "gap", "band", "special", "any"]))
    if kind == "special":
        return draw(st.sampled_from([0.0, -0.0, -1e-300, -1.0, np.nan, np.inf, -np.inf])), threshold
    if kind == "any":
        return draw(st.floats(allow_nan=True, allow_infinity=True)), threshold
    with np.errstate(all="ignore"):
        if kind == "cutoff":
            rhs = np.divide(draw(st.sampled_from(CUTOFFS)), threshold)
        elif kind == "bound":
            inverse = 1.0 / np.clip(threshold, 1.0, L_MAX)
            upper = inverse * (0.5 + inverse / 12.0)
            bound = draw(st.sampled_from([upper, upper - inverse**4 / 120.0]))
            rhs = bound * draw(st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9]))
        elif kind == "gap":
            rhs = _dispersion_gap(np.clip(threshold, 1.0, L_MAX))
        else:
            rhs = np.divide(draw(st.floats(0.5, 1.0)), threshold)
    return np.nextafter(rhs, draw(st.sampled_from([-np.inf, rhs, np.inf]))), threshold


@settings(max_examples=400, deadline=None)
@given(pairs=st.lists(screen_pairs(), min_size=1, max_size=40))
def test_looks_below_screen_equals_the_gap_comparison(pairs):
    # the screen settles most pairs from rhs T alone; every decision must be
    # that of comparing rhs with the dispersion gap of the clipped threshold
    rhs, threshold = (np.array(v) for v in zip(*pairs))
    with np.errstate(all="raise"):
        got = looks_below(rhs, threshold)
        gap = _dispersion_gap(np.clip(threshold, 1.0, L_MAX))
        want = (threshold > L_MAX) | ((threshold > 1.0) & (rhs > gap))
        assert np.array_equal(got, want)
        # the engine's form, with every array passed in, and a broadcast rhs
        out, work, mask = np.empty(rhs.shape, bool), np.empty(rhs.shape), np.empty(rhs.shape, bool)
        assert looks_below(rhs, threshold, out, work, mask) is out
        assert np.array_equal(out, want)
        rows = looks_below(rhs[:, None], np.stack([threshold, threshold[::-1]], axis=1))
        assert np.array_equal(rows[:, 0], want)


# ---------------------------------------------------------------------------
# the dispersion gap's digits, against mpmath at 40 digits


def test_dispersion_gap_against_mpmath():
    # log-uniform points over [1, L_MAX], its ends, and 10, where the series
    # alone takes over, with its two neighbouring doubles; the bounds that
    # looks_below screens with must bracket the true gap at each
    rng = stream(64)
    points = np.concatenate([L_MAX ** rng.random(600),
                             [1.0, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0), L_MAX]])
    got = _dispersion_gap(points)
    with mpmath.workdps(40):
        for x, computed in zip(points.tolist(), got.tolist()):
            L = mpmath.mpf(x)
            true = mpmath.log(L) - mpmath.digamma(L)
            assert abs(computed - true) <= 2e-14 * true  # solve_looks relies on 5e-14
            assert 1 / (2 * L) < true < 1 / L
            upper = 1 / (2 * L) + 1 / (12 * L**2)
            assert upper - 1 / (120 * L**4) < true < upper


def test_dispersion_gap_at_one_is_euler_gamma():
    euler = float(mpmath.euler)
    assert abs(_dispersion_gap(1.0) - euler) <= 4 * math.ulp(euler)


def test_dispersion_gap_float_and_array_forms_agree():
    # solve_looks evaluates floats and looks_below arrays, or floats when few
    rng = stream(65)
    points = np.concatenate([L_MAX ** rng.random(9_000), rng.uniform(9.0, 11.0, 1_000)])
    floats = [_dispersion_gap(x) for x in points.tolist()]
    assert all(type(g) is float for g in floats)
    assert np.array(floats).tobytes() == _dispersion_gap(points).tobytes()
