"""End-to-end acceptance checks for the whole toolkit.

Each test pins one advertised behavior: calibration of the test series,
estimator consistency, closed-form statistic values, the constants behind
the decision rule, ENL behavior, orderings between filters on the fast
simulation profile, metric identities, agreement of the three test kinds,
and byte-stable CSV output.
"""

import hashlib
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from conftest import bisect_200, median_of, stream
from despeckle import (
    GammaParams,
    Raster,
    chi2_survival,
    enl,
    error_metrics,
    hellinger_stat,
    kl_stat,
    laplacian_correlation,
    mle,
    q_index,
    renyi_stat,
    sample,
    sidak_level,
    unit_speckle,
)
from despeckle.divergence import statistic_array

LOOKS_AND_MEANS = ((1.0, 200.0), (3.0, 195.0), (5.0, 150.0), (7.0, 170.0))
ALPHAS = (0.2, 0.1, 0.01)
GROUP = 49  # pixels per region in the two-sample trials


def two_sample_trials(rng, looks, lam1, lam2, trials):
    """means, pooled looks estimates for `trials` independent sample pairs."""
    z1 = sample(GammaParams(looks, lam1), GROUP * trials, rng).reshape(trials, GROUP)
    z2 = sample(GammaParams(looks, lam2), GROUP * trials, rng).reshape(trials, GROUP)
    pooled = np.concatenate([z1, z2], axis=1)
    rhs = np.log(pooled.mean(axis=1)) - np.log(pooled).mean(axis=1)
    return z1.mean(axis=1), z2.mean(axis=1), bisect_200(rhs)


def test_criterion_01_null_calibration():
    # identical populations: the familywise-corrected test must reject at
    # its nominal per-test rate, within 3 binomial standard errors
    trials = 10_000
    mean1, mean2, looks = two_sample_trials(stream(20260814), 3.0, 195.0, 195.0, trials)
    stat = statistic_array("hellinger", mean1, mean2, GROUP, GROUP, looks)
    p = gammaincc(0.5, stat / 2.0)
    for alpha in ALPHAS:
        eta = sidak_level(alpha, 8)
        rate = float((p <= eta).mean())
        sigma = np.sqrt(eta * (1.0 - eta) / trials)
        assert abs(rate - eta) <= 3.0 * sigma, (
            f"alpha={alpha}: rate {rate} vs level {eta} ({abs(rate-eta)/sigma:.2f} sigma)"
        )


def test_criterion_02_mle_consistency():
    for i, (looks, lam) in enumerate(LOOKS_AND_MEANS):
        fit = mle(sample(GammaParams(looks, lam), 10_000, stream(42, i)))
        assert not fit.degenerate
        assert abs(fit.params.mean / lam - 1.0) <= 0.02
        assert abs(fit.params.looks / looks - 1.0) <= 0.10


def test_criterion_03_statistic_identities():
    equal = GammaParams(4.0, 150.0)
    also_equal = GammaParams(2.0, 150.0)  # only the means enter the statistics
    assert hellinger_stat(equal, also_equal, 9, 7, 4.0) == 0.0
    assert kl_stat(equal, also_equal, 9, 7, 4.0) == 0.0
    assert renyi_stat(equal, also_equal, 9, 7, 4.0, 0.5) == 0.0

    low, high = GammaParams(1.0, 1.0), GammaParams(1.0, 3.0)
    assert hellinger_stat(low, high, 9, 9, 1.0) == pytest.approx(4.8231, abs=1e-3)
    two, one = GammaParams(1.0, 2.0), GammaParams(1.0, 1.0)
    assert kl_stat(two, one, 9, 9, 1.0) == 2.25


def test_criterion_04a_per_test_level_constant():
    # eta = 1 - (1-alpha)^(1/8), against 40-digit decimal arithmetic that
    # never calls sidak_level; Decimal(alpha) is the exact binary value the
    # program receives
    for alpha in ALPHAS:
        computed = sidak_level(alpha, 8)
        with localcontext() as ctx:
            ctx.prec = 40
            a, eta = Decimal(alpha), Decimal(computed)
            exact = 1 - (1 - a) ** (Decimal(1) / 8)
            # defining identity (1 - eta)^8 = 1 - alpha on the returned float:
            # an error d in eta moves the left side by at most about 8 d, so an
            # eta within eps/2 (the spacing of doubles near 1) stays within 4 eps
            residual = (1 - eta) ** 8 - (1 - a)
        assert abs(eta - exact) <= Decimal("1e-15"), (
            f"sidak_level({alpha}, 8) = {computed!r}; 40-digit value is {exact}"
        )
        assert abs(residual) <= 4 * Decimal(sys.float_info.epsilon), (
            f"alpha={alpha}: (1 - eta)^8 - (1 - alpha) = {residual}"
        )


def test_criterion_04b_chi2_survival_against_quadrature():
    impl = chi2_survival(3.8415, 1)

    # substituting x = u^2 removes the 1/sqrt(x) singularity; the truncated
    # upper limit discards a tail below 1e-300
    def density(u):
        return np.sqrt(2.0 / np.pi) * np.exp(-u * u / 2.0)

    oracle, err = quad(density, np.sqrt(3.8415), 40.0)
    assert err < 1e-10
    assert abs(impl - oracle) <= 1e-10
    assert abs(impl - 0.05) <= 1e-4


def test_criterion_05_enl_recovery():
    # ENL read off a corrupted homogeneous 64x64 region tracks the true
    # look count within 15% for every committed (looks, mean) pair
    for looks, lam in LOOKS_AND_MEANS:
        for s in range(20):
            img = lam * unit_speckle(looks, (64, 64), stream(5, int(looks), s))
            assert abs(enl(img) / looks - 1.0) <= 0.15


def test_criterion_06_enl_ordering_on_fast_run(fast_run):
    rows = fast_run["rows"]
    sel = dict(situation="2", level="0.2")
    enl_h5 = median_of(rows, "enl", filter="hellinger", window="5", **sel)
    enl_lee5 = median_of(rows, "enl", filter="lee", window="5", **sel)
    enl_input = median_of(rows, "enl", filter="input", **sel)
    print(f"median background ENL: hellinger:5 {enl_h5:.2f}, "
          f"lee:5 {enl_lee5:.2f}, input {enl_input:.2f}")
    assert enl_h5 > enl_lee5 > enl_input


def test_criterion_07_q_index_ordering_on_fast_run(fast_run):
    rows = fast_run["rows"]
    wins = 0
    for sit in ("1", "2", "3", "4"):
        sel = dict(situation=sit, level="0.2", window="5")
        q_h = median_of(rows, "q_mean", filter="hellinger", **sel)
        q_lee = median_of(rows, "q_mean", filter="lee", **sel)
        print(f"situation {sit}: median q hellinger:5 {q_h:.4f} vs lee:5 {q_lee:.4f}")
        wins += q_h > q_lee
    assert wins >= 3, f"hellinger:5 beats lee:5 on q_mean in only {wins} of 4 situations"


def test_criterion_08_edge_variance_reported(fast_run):
    rows = fast_run["rows"]
    present = sum(row["edge_variance"] != "NA" for row in rows)
    for sit in ("1", "2", "3", "4"):
        sel = dict(situation=sit, level="0.2", window="5")
        v_h = median_of(rows, "edge_variance", filter="hellinger", **sel)
        v_lee = median_of(rows, "edge_variance", filter="lee", **sel)
        print(f"situation {sit}: median edge variance hellinger:5 {v_h:.1f}, lee:5 {v_lee:.1f}")
    assert present / len(rows) >= 0.95


def test_criterion_09_metric_identities():
    for k in range(50):
        rng = stream(9, k)
        x = Raster(rng.uniform(1.0, 100.0, (16, 16)))
        y = Raster(rng.uniform(1.0, 100.0, (16, 16)))
        assert error_metrics(x, x) == (0.0, 0.0, 0.0, 0.0)
        q_mean, q_std = q_index(x, x)
        assert q_mean == pytest.approx(1.0, abs=1e-12)
        assert q_std == pytest.approx(0.0, abs=1e-12)
        assert laplacian_correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        mae, mse, _, _ = error_metrics(x, y)
        assert mse >= mae**2 - 1e-15


def test_criterion_10_decision_agreement():
    # the three test kinds must individually reach the same conclusions on
    # nearly every trial, across null and separated populations
    trials = 2_500
    total = 0
    all_agree = 0
    pairwise = np.zeros(3)
    cells = 0
    for j, ratio in enumerate((1.0, 1.5, 3.0, 10.0)):
        mean1, mean2, looks = two_sample_trials(
            stream(10, j), 3.0, 195.0, 195.0 * ratio, trials
        )
        s_h = statistic_array("hellinger", mean1, mean2, GROUP, GROUP, looks)
        s_k = statistic_array("kl", mean1, mean2, GROUP, GROUP, looks)
        s_r = statistic_array("renyi", mean1, mean2, GROUP, GROUP, looks, 0.5)
        p_h, p_k, p_r = (gammaincc(0.5, s / 2.0) for s in (s_h, s_k, s_r))
        for alpha in ALPHAS:
            eta = sidak_level(alpha, 8)
            d_h, d_k, d_r = p_h <= eta, p_k <= eta, p_r <= eta
            agree = (d_h == d_k) & (d_k == d_r)
            print(f"ratio {ratio} alpha {alpha}: all three agree on {agree.mean():.4f}")
            all_agree += int(agree.sum())
            total += trials
            pairwise += (
                float((d_h == d_k).mean()),
                float((d_h == d_r).mean()),
                float((d_k == d_r).mean()),
            )
            cells += 1
    pairwise /= cells
    print(f"pairwise agreement: hellinger/kl {pairwise[0]:.4f}, "
          f"hellinger/renyi {pairwise[1]:.4f}, kl/renyi {pairwise[2]:.4f}")
    assert all_agree / total >= 0.95


def test_criterion_11_csv_byte_determinism(fast_run):
    bytes1 = fast_run["path1"].read_bytes()
    bytes4 = fast_run["path4"].read_bytes()
    assert bytes1 == bytes4


# SHA-256 of `despeckle montecarlo --fast --seed 0 --threads 1`'s CSV, frozen
# with numpy 2.4.6; other builds may round differently and need a new digest
FAST_CSV_SHA256 = "66fc50f14e8c36208b87faf2e7b520d8b9dd9a5290e6b6197d8294e44d506a23"


def test_fast_protocol_csv_bytes_are_frozen(fast_run):
    assert hashlib.sha256(fast_run["path1"].read_bytes()).hexdigest() == FAST_CSV_SHA256
