import math

import numpy as np
import pytest
from scipy import integrate, special

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
    hellinger_stat_array,
    hellinger_threshold_array,
    kl_stat_array,
    kl_threshold_array,
    renyi_stat_array,
    renyi_threshold_array,
)
from despeckle.gamma import solve_looks


def stream(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


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


def test_array_forms_match_scalar_forms():
    m1 = np.array([1.0, 2.0, 7.0])
    m2 = np.array([3.0, 2.0, 1.5])
    looks = np.array([1.0, 4.0, 2.0])
    h = hellinger_stat_array(m1, m2, 9, 7, looks)
    k = kl_stat_array(m1, m2, 9, 7, looks)
    r = renyi_stat_array(m1, m2, 9, 7, looks, 0.5)
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
    h = hellinger_stat_array(m1, m2, 9, 7, looks)
    k = kl_stat_array(m1, m2, 9, 7, looks)
    r = renyi_stat_array(m1, m2, 9, 7, looks, 0.3)
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


# --------------------------------------------------------- looks thresholds


def _threshold_cases(rng, size):
    """Means from equal to ~20x apart, looks over [1, 1e4], the two window sizes."""
    m1 = np.exp(rng.uniform(-5.0, 8.0, size))
    m2 = m1 * np.exp(rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-3.0, 0.0, size))
    m2[: size // 50] = m1[: size // 50]  # ties
    looks = np.exp(rng.uniform(0.0, math.log(1e4), size))
    return m1, m2, looks


@pytest.mark.parametrize("kind", KINDS)
def test_thresholds_decide_like_the_statistics(kind):
    # the statistic at looks L passes its chi-square test exactly when L < T;
    # at the ulp level the two may differ only where T is within 1e-9 of L
    rng = stream(80, KINDS.index(kind))
    m1, m2, looks = _threshold_cases(rng, 40_000)
    both = set()
    for (m, n), dof, alpha in [((9, 7), 1, 0.2), ((25, 12), 2, 0.2), ((9, 7), 2, 0.01),
                               ((25, 12), 1, 0.5)]:
        eta = sidak_level(alpha, 8)
        c = chi2_critical(eta, dof)
        if kind == "hellinger":
            stat_at = lambda L: hellinger_stat_array(m1, m2, m, n, L)
            t = hellinger_threshold_array(m1, m2, m, n, c)
        elif kind == "kl":
            stat_at = lambda L: kl_stat_array(m1, m2, m, n, L)
            t = kl_threshold_array(m1, m2, m, n, c)
        else:
            stat_at = lambda L: renyi_stat_array(m1, m2, m, n, L, 0.3)
            t = renyi_threshold_array(m1, m2, m, n, c, 0.3)
        assert np.all(np.isposinf(t[m1 == m2]))
        # the given looks, then looks placed close to each finite threshold
        near = t * np.exp(rng.normal(0.0, 1.0, t.size) * 10.0 ** rng.uniform(-8.0, -2.0, t.size))
        for at in (looks, np.where(np.isfinite(t), np.clip(near, 1.0, 1e4), looks)):
            passes = special.gammaincc(dof / 2.0, stat_at(at) / 2.0) > eta
            off = passes != (at < t)
            assert np.all(np.abs(t[off] - at[off]) <= 1e-9 * at[off])
            both.update(passes)
    assert both == {False, True}


def test_hellinger_threshold_beyond_the_supremum():
    # 8mn/(m+n) bounds the Hellinger statistic, so a larger critical value
    # is never reached, whatever the means
    m1, m2 = np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 1e6])
    sup = 8.0 * 9 * 7 / 16
    assert np.all(np.isposinf(hellinger_threshold_array(m1, m2, 9, 7, sup)))
    assert np.all(np.isposinf(hellinger_threshold_array(m1, m2, 9, 7, sup * 2.0)))
    assert np.all(np.isfinite(hellinger_threshold_array(m1, m2, 9, 7, sup * 0.99)[1:]))


# ------------------------------------------------------------------ run_test


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        TestConfig(kind="tsallis")
    with pytest.raises(InvalidArgumentError):
        TestConfig(kind="renyi", renyi_order=1.0)
    with pytest.raises(InvalidArgumentError):
        TestConfig(alpha=0.0)
    with pytest.raises(InvalidArgumentError):
        TestConfig(dof=3)
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
    shared = solve_looks(rhs)
    s = hellinger_stat_array(z1.mean(axis=1), z2.mean(axis=1), m, n, shared)
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
    shared = solve_looks(rhs)
    s = hellinger_stat_array(z1.mean(axis=1), z2.mean(axis=1), m, n, shared)
    reject = float(np.mean(special.gammaincc(0.5, s / 2.0) <= sidak_level(0.1, 8)))
    assert reject >= 0.30
    assert reject > 20.0 * sidak_level(0.1, 8)
