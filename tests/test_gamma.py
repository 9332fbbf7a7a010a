import math

import numpy as np
import pytest
from scipy import integrate, special

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
from despeckle.gamma import ZERO_SHIFT, looks_below, shift_zeros, solve_looks


def stream(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


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
    arr = solve_looks(np.array([gap(2.0), gap(30.0)]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(2.0, rel=1e-9)
    assert arr[1] == pytest.approx(30.0, rel=1e-9)


# ---------------------------------------------------------------------------
# the looks fit against its earlier definition, bit for bit


def _bisect_200(rhs):
    """solve_looks as first written: a fixed 200 bisection steps."""
    gap = lambda L: np.log(L) - special.digamma(L)
    rhs = np.asarray(rhs, dtype=np.float64)
    out = np.empty_like(rhs)
    at_low, at_high = rhs >= gap(1.0), rhs <= gap(L_MAX)
    out[at_low], out[at_high] = 1.0, L_MAX
    todo = ~(at_low | at_high)
    lo, hi, target = np.full(todo.sum(), 1.0), np.full(todo.sum(), L_MAX), rhs[todo]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        go_right = gap(mid) > target
        lo, hi = np.where(go_right, mid, lo), np.where(go_right, hi, mid)
    out[todo] = 0.5 * (lo + hi)
    return out


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
    return GammaParams(float(_bisect_200(np.array([rhs]))[0]), mean), False, zero_shifted


def test_solve_looks_equals_the_200_step_bisection():
    gap = lambda L: math.log(L) - special.digamma(L)
    g1, gmax = gap(1.0), gap(L_MAX)
    rng = np.random.default_rng(61)
    roots = L_MAX ** rng.random(50_000)  # ln L uniform: roots over the whole range
    inside = np.concatenate([rng.uniform(gmax, g1, 50_000), np.log(roots) - special.digamma(roots)])
    inside = inside[(inside > gmax) & (inside < g1)]
    assert inside.size > 99_000
    edges = np.array([g1, np.nextafter(g1, 0), np.nextafter(g1, 1), g1 + 1.0,
                      gmax, np.nextafter(gmax, 1), np.nextafter(gmax, 0), -1.0])
    for rhs in (inside, edges):
        assert solve_looks(rhs).tobytes() == _bisect_200(rhs).tobytes()
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
    gap = lambda L: np.log(L) - special.digamma(L)
    g1, gmax = gap(1.0), gap(L_MAX)
    rng = np.random.default_rng(63)
    size = 60_000
    roots = L_MAX ** rng.random(size)
    rhs = np.concatenate([rng.uniform(gmax, g1, size), gap(roots)])
    rhs = np.concatenate([rhs, [g1, np.nextafter(g1, 0), g1 + 1.0,
                                gmax, np.nextafter(gmax, 1), gmax / 2.0, -1.0]])
    solved = solve_looks(rhs)
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
        assert np.array_equal(looks_below(edge, threshold), solve_looks(edge) < threshold)
    assert looks_below(rhs[:3].reshape(3, 1), np.full((3, 4), 5.0)).shape == (3, 4)
