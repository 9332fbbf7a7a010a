import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from conftest import bisect_200, stream
from despeckle import (
    DomainError,
    GammaParams,
    InvalidArgumentError,
    TestConfig,
    chi2_survival,
    hellinger_stat,
    kl_stat,
    renyi_stat,
    run_test,
    sample,
    sidak_level,
)
from despeckle.divergence import (
    KINDS,
    chi2_critical,
    looks_threshold,
    statistic_array,
)


# --------------------------------------------------------------- Sidak level


def test_sidak_single_test_identity():
    for alpha in (0.01, 0.1, 0.2, 0.5):
        assert sidak_level(alpha, 1) == pytest.approx(alpha, abs=1e-15)


def test_sidak_known_values():
    assert sidak_level(0.01, 8) == pytest.approx(0.0012555031772735197, abs=1e-15)
    assert sidak_level(0.1, 8) == pytest.approx(0.013083718633998438, abs=1e-15)
    assert sidak_level(0.2, 8) == pytest.approx(0.02750752753392697, abs=1e-15)


def test_sidak_validation():
    with pytest.raises(InvalidArgumentError):
        sidak_level(0.0, 8)
    with pytest.raises(InvalidArgumentError):
        sidak_level(1.0, 8)
    with pytest.raises(InvalidArgumentError):
        sidak_level(0.1, 0)


# ---------------------------------------------------------------- statistics


P1 = GammaParams(1.0, 1.0)
P3 = GammaParams(1.0, 3.0)


def test_statistics_zero_at_equal_means():
    p = GammaParams(2.0, 7.5)
    q = GammaParams(9.0, 7.5)  # different looks estimate, same mean
    assert hellinger_stat(p, q, 9, 7, 3.0) == 0.0
    assert kl_stat(p, q, 9, 7, 3.0) == 0.0
    assert renyi_stat(p, q, 9, 7, 3.0, 0.5) == 0.0


def test_hellinger_hand_value():
    # 36 * (1 - sqrt(3)/2)
    s = hellinger_stat(P1, P3, 9, 9, 1.0)
    assert s == pytest.approx(36.0 * (1.0 - math.sqrt(3.0) / 2.0), rel=1e-12)
    assert s == pytest.approx(4.8231, abs=1e-3)


def test_kl_hand_value():
    assert kl_stat(GammaParams(1.0, 2.0), P1, 9, 9, 1.0) == 2.25


def test_renyi_hand_value():
    # order 1/2: 9 * (-2) * ln(3/4) = 18 ln(4/3)
    s = renyi_stat(P1, P3, 9, 9, 1.0, 0.5)
    assert s == pytest.approx(18.0 * math.log(4.0 / 3.0), rel=1e-12)
    assert s == pytest.approx(5.178, abs=1e-3)


def test_statistics_symmetric_in_samples():
    for fn in (hellinger_stat, kl_stat):
        assert fn(P1, P3, 9, 9, 2.0) == pytest.approx(fn(P3, P1, 9, 9, 2.0), rel=1e-12)
    assert renyi_stat(P1, P3, 9, 9, 2.0, 0.5) == pytest.approx(
        renyi_stat(P3, P1, 9, 9, 2.0, 0.5), rel=1e-12
    )


def test_renyi_order_swap_symmetry():
    # swapping both the samples and beta <-> 1-beta leaves the value unchanged
    a = renyi_stat(P1, P3, 9, 7, 2.0, 0.3)
    b = renyi_stat(P3, P1, 7, 9, 2.0, 0.7)
    assert a == pytest.approx(b, rel=1e-12)


def test_kl_scale_invariance():
    a = kl_stat(GammaParams(1.0, 2.0), GammaParams(1.0, 5.0), 9, 9, 3.0)
    b = kl_stat(GammaParams(1.0, 4.0), GammaParams(1.0, 10.0), 9, 9, 3.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_statistics_scale_linearly_in_looks_and_sizes():
    base = kl_stat(P1, P3, 9, 9, 1.0)
    assert kl_stat(P1, P3, 9, 9, 4.0) == pytest.approx(4.0 * base, rel=1e-12)
    # mn/(m+n): (18,18) doubles the (9,9) factor
    assert kl_stat(P1, P3, 18, 18, 1.0) == pytest.approx(2.0 * base, rel=1e-12)
    r = renyi_stat(P1, P3, 9, 9, 1.0, 0.5)
    assert renyi_stat(P1, P3, 9, 9, 4.0, 0.5) == pytest.approx(4.0 * r, rel=1e-12)
    assert renyi_stat(P1, P3, 18, 18, 1.0, 0.5) == pytest.approx(2.0 * r, rel=1e-12)
    h = hellinger_stat(P1, P3, 9, 9, 1.0)
    assert hellinger_stat(P1, P3, 18, 18, 1.0) == pytest.approx(2.0 * h, rel=1e-12)


def test_hellinger_concave_increasing_in_looks():
    # the looks dependence is 1 - BC^L: strictly increasing but sublinear,
    # unlike the other two statistics
    values = [hellinger_stat(P1, P3, 9, 9, looks) for looks in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[2] < 4.0 * values[0]


def test_statistics_increase_with_separation():
    ratios = [1.2, 1.8, 3.0, 8.0]
    for fn in (
        lambda a, b: hellinger_stat(a, b, 9, 9, 3.0),
        lambda a, b: kl_stat(a, b, 9, 9, 3.0),
        lambda a, b: renyi_stat(a, b, 9, 9, 3.0, 0.5),
    ):
        values = [fn(GammaParams(1.0, 1.0), GammaParams(1.0, r)) for r in ratios]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_statistic_input_validation():
    with pytest.raises(DomainError):
        hellinger_stat(P1, P3, 9, 9, 0.5)  # shared looks below 1
    with pytest.raises(InvalidArgumentError):
        kl_stat(P1, P3, 0, 9, 1.0)
    with pytest.raises(InvalidArgumentError):
        renyi_stat(P1, P3, 9, 9, 1.0, 1.5)
    # a shared looks that is not a finite positive number
    for looks in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        for stat in (hellinger_stat, kl_stat, renyi_stat):
            with pytest.raises(DomainError, match="finite and positive"):
                stat(P1, P3, 9, 9, looks)


def test_kl_rate_holds_where_the_product_of_the_means_underflows():
    # 2 l1 li of two means near 2^-593 lies below the normal floats (the engine
    # meets such regions in a window whose maximum is in range); the KL rate
    # depends on the ratio alone, so the statistic and the looks threshold are
    # those of the means scaled by 2^600, bit for bit, and warning-free
    l1 = np.array([25.68, 30.35, 1.0, 7.5])
    li = np.array([19.69, 6.67, 1.0 + 2.0**-40, 7.5])
    tiny1, tiny_i = np.ldexp(l1, -600), np.ldexp(li, -600)
    assert np.all(2.0 * tiny1 * tiny_i < np.finfo(float).tiny)
    got = statistic_array("kl", tiny1, tiny_i, 9, 7, 3.0)
    assert got.tobytes() == statistic_array("kl", l1, li, 9, 7, 3.0).tobytes()
    cfg = TestConfig(kind="kl")
    got = looks_threshold(cfg, tiny1, tiny_i, 9, 7)
    assert got.tobytes() == looks_threshold(cfg, l1, li, 9, 7).tobytes()


def test_array_forms_match_scalar_forms():
    m1 = np.array([1.0, 2.0, 7.0])
    m2 = np.array([3.0, 2.0, 1.5])
    looks = np.array([1.0, 4.0, 2.0])
    h = statistic_array("hellinger", m1, m2, 9, 7, looks)
    k = statistic_array("kl", m1, m2, 9, 7, looks)
    r = statistic_array("renyi", m1, m2, 9, 7, looks, 0.5)
    for i in range(3):
        pa = GammaParams(looks[i], m1[i])
        pb = GammaParams(looks[i], m2[i])
        assert h[i] == hellinger_stat(pa, pb, 9, 7, looks[i])
        assert k[i] == kl_stat(pa, pb, 9, 7, looks[i])
        assert r[i] == renyi_stat(pa, pb, 9, 7, looks[i], 0.5)
    assert h[1] == 0.0 and k[1] == 0.0 and r[1] == 0.0


def test_scalar_forms_equal_array_elements_bit_for_bit():
    # the scalar statistics run the engine's arithmetic, so a scalar call
    # gives exactly the element the engine computes for the same inputs
    rng = stream(79)
    size = 3000
    m1 = np.exp(rng.uniform(-5.0, 8.0, size))
    m2 = m1 * np.exp(rng.normal(0.0, 0.3, size))
    looks = np.exp(rng.uniform(0.0, 9.2, size))
    h = statistic_array("hellinger", m1, m2, 9, 7, looks)
    k = statistic_array("kl", m1, m2, 9, 7, looks)
    r = statistic_array("renyi", m1, m2, 9, 7, looks, 0.3)
    for i in range(size):
        pa, pb = GammaParams(1.0, m1[i]), GammaParams(1.0, m2[i])
        assert hellinger_stat(pa, pb, 9, 7, looks[i]) == h[i]
        assert kl_stat(pa, pb, 9, 7, looks[i]) == k[i]
        assert renyi_stat(pa, pb, 9, 7, looks[i], 0.3) == r[i]


# ---------------------------------------------------------------- chi-square


def test_chi2_survival_at_zero_and_infinity():
    assert chi2_survival(0.0, 1) == 1.0
    assert chi2_survival(0.0, 2) == 1.0
    assert chi2_survival(1e6, 1) < 1e-12


def test_chi2_survival_monotone():
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 9.0]
    values = [chi2_survival(s, 1) for s in grid]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))


def test_chi2_survival_quadrature_oracle():
    def pdf1(x):
        return math.exp(-x / 2.0) / math.sqrt(2.0 * math.pi * x)

    oracle, quad_err = integrate.quad(pdf1, 3.8415, np.inf)
    assert quad_err < 1e-8
    assert chi2_survival(3.8415, 1) == pytest.approx(oracle, abs=1e-10)


def test_chi2_survival_dof2_closed_form():
    # chi2_2 survival is exp(-s/2)
    for s in (0.3, 1.7, 6.0):
        assert chi2_survival(s, 2) == pytest.approx(math.exp(-s / 2.0), rel=1e-12)


def test_chi2_survival_validation():
    with pytest.raises(InvalidArgumentError):
        chi2_survival(-0.1, 1)
    with pytest.raises(InvalidArgumentError):
        chi2_survival(1.0, 0)
    with pytest.raises(InvalidArgumentError):
        chi2_survival(1.0, 3)
    with pytest.raises(InvalidArgumentError):
        chi2_survival(math.nan, 1)


def test_chi2_critical_inverts_survival():
    etas = np.concatenate([10.0 ** np.linspace(-12, -0.01, 200),
                           [sidak_level(a, 8) for a in (0.01, 0.05, 0.1, 0.2, 0.5)]])
    for dof in (1, 2):
        for eta in etas:
            c = chi2_critical(eta, dof)
            assert chi2_survival(c, dof) == pytest.approx(eta, rel=1e-13, abs=0.0)
    for eta in (1e-9, 0.0275, 0.5):
        assert chi2_critical(eta, 2) == pytest.approx(-2.0 * math.log(eta), rel=1e-13)
        assert chi2_critical(eta, 1) == pytest.approx(2.0 * special.erfcinv(eta) ** 2, rel=1e-13)


def test_chi2_critical_validation():
    for eta in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(InvalidArgumentError):
            chi2_critical(eta, 1)
    with pytest.raises(InvalidArgumentError):
        chi2_critical(0.1, 0)
    with pytest.raises(InvalidArgumentError):
        chi2_critical(0.1, 3)


def test_chi2_survival_against_mpmath():
    # the regularized upper incomplete gamma function Q(dof/2, s/2); at dof 1
    # the rounding of sqrt(s/2) moves erfc by up to ~s/2 ulps
    for dof, rel in ((1, 2e-14), (2, 1e-15)):
        for s in np.concatenate([[0.0], 10.0 ** np.linspace(-8.0, 2.0, 81)]).tolist():
            with mpmath.workdps(40):
                want = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(s) / 2, mpmath.inf,
                                       regularized=True)
            assert abs(chi2_survival(s, dof) - want) <= rel * want


def test_chi2_critical_at_the_sidak_levels_against_mpmath():
    # 2 erfinv(1 - eta)^2, 1 - eta taken exactly, rounded once to a double
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        eta = sidak_level(alpha, 8)
        with mpmath.workdps(60):
            want = float(2 * mpmath.erfinv(1 - mpmath.mpf(eta)) ** 2)
        assert abs(chi2_critical(eta, 1) - want) <= math.ulp(want)


# --------------------------------------------------------- looks thresholds


def _threshold_cases(rng, size):
    """Means from equal to ~20x apart, looks over [1, 1e4], the two window sizes."""
    m1 = np.exp(rng.uniform(-5.0, 8.0, size))
    m2 = m1 * np.exp(rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-3.0, 0.0, size))
    m2[: size // 50] = m1[: size // 50]  # ties
    looks = np.exp(rng.uniform(0.0, math.log(1e4), size))
    return m1, m2, looks


# (m, n), dof and overall alpha of each threshold case
THRESHOLD_CASES = [((9, 7), 1, 0.2), ((25, 12), 2, 0.2), ((9, 7), 2, 0.01), ((25, 12), 1, 0.5)]


@pytest.mark.parametrize("kind", KINDS)
def test_thresholds_decide_like_the_statistics(kind):
    # the statistic at looks L passes its chi-square test exactly when L < T;
    # at the ulp level the two may differ only where T is within 1e-9 of L
    rng = stream(80, KINDS.index(kind))
    m1, m2, looks = _threshold_cases(rng, 40_000)
    both = set()
    for (m, n), dof, alpha in THRESHOLD_CASES:
        cfg = TestConfig(kind=kind, renyi_order=0.3, alpha=alpha, dof=dof)
        eta = sidak_level(alpha, 8)
        t = looks_threshold(cfg, m1, m2, m, n)
        assert np.all(np.isposinf(t[m1 == m2]))
        # the given looks, then looks placed close to each finite threshold
        near = t * np.exp(rng.normal(0.0, 1.0, t.size) * 10.0 ** rng.uniform(-8.0, -2.0, t.size))
        for at in (looks, np.where(np.isfinite(t), np.clip(near, 1.0, 1e4), looks)):
            stat = statistic_array(kind, m1, m2, m, n, at, 0.3)
            passes = special.gammaincc(dof / 2.0, stat / 2.0) > eta
            off = passes != (at < t)
            assert np.all(np.abs(t[off] - at[off]) <= 1e-9 * at[off])
            both.update(passes)
    assert both == {False, True}


@pytest.mark.parametrize("kind", KINDS)
def test_statistic_at_the_threshold_is_the_critical_value(kind):
    # T inverts the statistic: at L = T it equals the critical value, up to
    # the rounding of the rate and of T
    m1, m2, _ = _threshold_cases(stream(81, KINDS.index(kind)), 40_000)
    for (m, n), dof, alpha in THRESHOLD_CASES:
        cfg = TestConfig(kind=kind, renyi_order=0.3, alpha=alpha, dof=dof)
        c = chi2_critical(sidak_level(alpha, 8), dof)
        t = looks_threshold(cfg, m1, m2, m, n)
        finite = np.isfinite(t)
        assert finite.sum() > 0.9 * t.size
        stat = statistic_array(kind, m1[finite], m2[finite], m, n, t[finite], 0.3)
        np.testing.assert_allclose(stat, c, rtol=1e-12, atol=0.0)


def test_hellinger_threshold_beyond_the_supremum():
    # 8mn/(m+n) = 31.5 at (9, 7) bounds the Hellinger statistic, so a larger
    # critical value is never reached, whatever the means
    m1, m2 = np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 1e6])
    sup = 8.0 * 9 * 7 / 16
    for alpha, reached in ((1e-8, False), (1e-12, False), (1e-6, True)):
        cfg = TestConfig(kind="hellinger", alpha=alpha)
        assert (chi2_critical(sidak_level(alpha, 8), 1) < sup) == reached
        t = looks_threshold(cfg, m1, m2, 9, 7)
        assert np.isposinf(t[0])
        assert np.all(np.isfinite(t[1:]) if reached else np.isposinf(t[1:]))


# ------------------------------------------------------------------ run_test


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        TestConfig(kind="tsallis")
    with pytest.raises(InvalidArgumentError):
        TestConfig(kind="renyi", renyi_order=1.0)
    TestConfig(kind="renyi", renyi_order=2.0**-53)
    for order in (2.0**-54, 1e-320):  # 1 - order rounds to 1
        with pytest.raises(InvalidArgumentError):
            TestConfig(kind="renyi", renyi_order=order)
        with pytest.raises(InvalidArgumentError):
            renyi_stat(P1, P3, 9, 7, 1.0, order)
    with pytest.raises(InvalidArgumentError):
        TestConfig(alpha=0.0)
    with pytest.raises(InvalidArgumentError):
        TestConfig(dof=3)
    for dof in (True, 2.0):  # True == 1 and 2.0 == 2, but neither is an integer
        with pytest.raises(InvalidArgumentError, match="dof must be an integer"):
            TestConfig(dof=dof)
    assert TestConfig(dof=np.int64(2)).dof == 2
    with pytest.raises(InvalidArgumentError):
        TestConfig(shared_looks="sample2")
    with pytest.raises(TypeError):  # the series length is fixed, not a setting
        TestConfig(num_tests=0)


def test_run_test_identical_samples():
    z = sample(GammaParams(3.0, 195.0), 49, stream(70))
    out = run_test(z, z.copy(), TestConfig())
    assert out.statistic == 0.0
    assert out.p_value == 1.0
    assert not out.rejected


@pytest.mark.parametrize("value", [997.2004811438509, 1.814060134237397])
@pytest.mark.parametrize("kind", KINDS)
def test_run_test_accepts_constant_samples(kind, value):
    # Two constant samples of one value: their means differ in the last bit
    # and the pooled looks clamp to L_MAX.  Rounding error grows with
    # L * 8mn/(m+n), so the hellinger and renyi forms can land ~1e-10 below
    # zero; that clamps to 0, as in the filter engine.  The kl form cannot go
    # negative and gives ~1e-27.
    out = run_test(np.full(9, value), np.full(7, value), TestConfig(kind=kind))
    assert out.statistic == pytest.approx(0.0, abs=1e-20)
    assert out.p_value == pytest.approx(1.0)
    assert not out.rejected


def test_run_test_extreme_separation_rejects():
    rng = stream(71)
    z1 = sample(GammaParams(3.0, 100.0), 49, rng)
    z2 = sample(GammaParams(3.0, 10000.0), 49, rng)
    for kind in ("hellinger", "kl", "renyi"):
        out = run_test(z1, z2, TestConfig(kind=kind))
        assert out.rejected
        assert out.p_value < 1e-6


def test_run_test_decision_matches_level():
    cfg = TestConfig(alpha=0.1)
    eta = sidak_level(0.1, 8)
    rng = stream(72)
    for _ in range(50):
        z1 = sample(GammaParams(3.0, 195.0), 25, rng)
        z2 = sample(GammaParams(3.0, 170.0), 25, rng)
        out = run_test(z1, z2, cfg)
        assert out.rejected == (out.p_value <= eta)
        assert out.statistic >= 0.0


@pytest.mark.parametrize("shared_looks", ["pooled", "sample1"])
def test_run_test_takes_any_magnitude(shared_looks):
    # 2^1000 puts the pooled sum past the float maximum and 2^-1000 the
    # product of the two means below the smallest float; both samples are
    # tested at one common power of two, so only the ratio of their means
    # counts and every decision stays that of the unscaled pair
    rng = stream(74)
    decisions = set()
    for ratio in (1.0, 1.3, 1.8, 4.0):
        z1 = sample(GammaParams(3.0, 1e6), 9, rng)
        z2 = sample(GammaParams(3.0, ratio * 1e6), 7, rng)
        for kind in KINDS:
            cfg = TestConfig(kind=kind, shared_looks=shared_looks)
            want = run_test(z1, z2, cfg)
            for k in (-1000, 1000):
                got = run_test(2.0**k * z1, 2.0**k * z2, cfg)
                assert got.rejected == want.rejected, (ratio, kind, k)
                assert got.statistic == pytest.approx(want.statistic, rel=1e-9, abs=1e-12)
            decisions.add(want.rejected)
    assert decisions == {False, True}


def test_run_test_rejects_bad_samples():
    # the common scaling leaves a bad sample to mle's checks, warning-free
    for z1, z2 in (([1e300, np.inf], [1.0, 2.0]), ([1.0, np.nan], [1.0, 2.0]), ([], [])):
        with pytest.raises(DomainError):
            run_test(z1, z2, TestConfig())


def test_run_test_shared_looks_strategies_differ_only_in_looks():
    rng = stream(73)
    z1 = sample(GammaParams(3.0, 195.0), 30, rng)
    z2 = sample(GammaParams(3.0, 120.0), 30, rng)
    pooled = run_test(z1, z2, TestConfig(shared_looks="pooled"))
    first = run_test(z1, z2, TestConfig(shared_looks="sample1"))
    assert pooled.statistic != first.statistic
    assert pooled.statistic > 0 and first.statistic > 0


def _null_pvalues(seed, ntrials, m, n, looks, mean):
    """Vectorized batch of pooled-looks Hellinger p-values under the null."""
    rng = stream(seed)
    z1 = sample(GammaParams(looks, mean), ntrials * m, rng).reshape(ntrials, m)
    z2 = sample(GammaParams(looks, mean), ntrials * n, rng).reshape(ntrials, n)
    both = np.concatenate([z1, z2], axis=1)
    rhs = np.log(both.mean(axis=1)) - np.log(both).mean(axis=1)
    shared = bisect_200(rhs)
    s = statistic_array("hellinger", z1.mean(axis=1), z2.mean(axis=1), m, n, shared)
    return special.gammaincc(0.5, s / 2.0)


def test_null_acceptance_rate_small_samples():
    # two same-population samples of nine pixels are almost always accepted
    pv = _null_pvalues(77, 10**4, 9, 9, 3.0, 195.0)
    accept = float(np.mean(pv > sidak_level(0.1, 8)))
    assert accept >= 0.95


def test_power_at_strip_background_separation():
    # nine-pixel samples from means 200 vs 70 under single-look speckle:
    # real but far-from-certain discrimination at this sample size
    rng = stream(78)
    m = n = 9
    ntrials = 10**4
    z1 = sample(GammaParams(1.0, 200.0), ntrials * m, rng).reshape(ntrials, m)
    z2 = sample(GammaParams(1.0, 70.0), ntrials * n, rng).reshape(ntrials, n)
    both = np.concatenate([z1, z2], axis=1)
    rhs = np.log(both.mean(axis=1)) - np.log(both).mean(axis=1)
    shared = bisect_200(rhs)
    s = statistic_array("hellinger", z1.mean(axis=1), z2.mean(axis=1), m, n, shared)
    reject = float(np.mean(special.gammaincc(0.5, s / 2.0) <= sidak_level(0.1, 8)))
    assert reject >= 0.30
    assert reject > 20.0 * sidak_level(0.1, 8)
