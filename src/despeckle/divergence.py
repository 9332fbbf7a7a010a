"""Scaled goodness-of-fit statistics between two fitted Gamma laws.

Each statistic compares the estimated mean backscatter of two samples under
a common looks value and is asymptotically chi-square distributed under the
null hypothesis of equal parameters, which turns it into a p-value test.
The family-wise significance over the series of NUM_TESTS tests, one per
oriented Nagao-Matsuyama region, is controlled by the Sidak per-test level.

Each formula is written once, in its ``*_stat_array`` form.  The scalar
``hellinger_stat``, ``kl_stat`` and ``renyi_stat`` validate their inputs and
return that array form's value.

Every statistic grows with the shared looks L, so a test at critical value
c = chi2_critical(eta, dof) accepts exactly when L < T, the looks at which
the statistic reaches c.  The ``*_threshold_array`` forms give T; the filter
engine decides its region tests from T alone, without the statistic or its
p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, InvalidArgumentError
from .gamma import GammaParams, mle

KINDS = ("hellinger", "kl", "renyi")

# The filter tests each of the eight oriented regions against the central block.
NUM_TESTS = 8


@dataclass(frozen=True)
class TestConfig:
    """Configuration for the series of NUM_TESTS (8) region tests.

    shared_looks selects the looks estimate plugged into the statistic:
    "pooled" fits the concatenation of both samples (default; calibrates
    correctly under the null), "sample1" reuses the first sample's estimate.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str = "hellinger"
    renyi_order: float = 0.5
    alpha: float = 0.2
    dof: int = 1
    shared_looks: str = "pooled"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "renyi" and not 0.0 < self.renyi_order < 1.0:
            raise InvalidArgumentError("renyi_order must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidArgumentError("alpha must be in (0, 1)")
        if self.dof not in (1, 2):
            raise InvalidArgumentError("dof must be 1 or 2")
        if self.shared_looks not in ("pooled", "sample1"):
            raise InvalidArgumentError("shared_looks must be 'pooled' or 'sample1'")


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    p_value: float
    rejected: bool


def sidak_level(overall_alpha: float, num_tests: int) -> float:
    """Per-test level 1 - (1 - alpha)^(1/t) for a series of t tests."""
    if not 0.0 < overall_alpha < 1.0:
        raise InvalidArgumentError("overall_alpha must be in (0, 1)")
    if num_tests < 1:
        raise InvalidArgumentError("num_tests must be >= 1")
    # expm1/log1p form keeps full precision for small alpha
    return float(-math.expm1(math.log1p(-overall_alpha) / num_tests))


def _check_stat_inputs(mean1, mean2, m, n, looks):
    if m < 1 or n < 1:
        raise InvalidArgumentError("sample sizes must be >= 1")
    for v in (mean1, mean2, looks):
        if not (math.isfinite(v) and v > 0):
            raise DomainError("statistic inputs must be finite and positive")
    if looks < 1.0:
        raise DomainError("shared looks must be >= 1")


def hellinger_stat(p1: GammaParams, pi: GammaParams, m: int, n: int, shared_L: float) -> float:
    """hellinger_stat_array on one validated pair of fits."""
    _check_stat_inputs(p1.mean, pi.mean, m, n, shared_L)
    return float(hellinger_stat_array(p1.mean, pi.mean, m, n, shared_L))


def kl_stat(p1: GammaParams, pi: GammaParams, m: int, n: int, shared_L: float) -> float:
    """kl_stat_array on one validated pair of fits."""
    _check_stat_inputs(p1.mean, pi.mean, m, n, shared_L)
    return float(kl_stat_array(p1.mean, pi.mean, m, n, shared_L))


def renyi_stat(
    p1: GammaParams, pi: GammaParams, m: int, n: int, shared_L: float, beta: float = 0.5
) -> float:
    """renyi_stat_array on one validated pair of fits."""
    if not 0.0 < beta < 1.0:
        raise InvalidArgumentError("beta must be in (0, 1)")
    _check_stat_inputs(p1.mean, pi.mean, m, n, shared_L)
    return float(renyi_stat_array(p1.mean, pi.mean, m, n, shared_L, beta))


def chi2_survival(s: float, dof: int) -> float:
    """Pr(chi2_dof > s) via the regularized upper incomplete gamma function."""
    if dof < 1:
        raise InvalidArgumentError("dof must be >= 1")
    if not math.isfinite(s) or s < 0.0:
        raise InvalidArgumentError("statistic must be finite and >= 0")
    return float(special.gammaincc(dof / 2.0, s / 2.0))


def chi2_critical(eta: float, dof: int) -> float:
    """The s with chi2_survival(s, dof) == eta: -2 ln eta at dof 2,
    2 erfcinv(eta)^2 at dof 1."""
    if dof < 1:
        raise InvalidArgumentError("dof must be >= 1")
    if not 0.0 < eta < 1.0:
        raise InvalidArgumentError("eta must be in (0, 1)")
    return float(2.0 * special.gammainccinv(dof / 2.0, eta))


def run_test(sample1, sample_i, cfg: TestConfig) -> TestOutcome:
    """Fit both samples, compute the configured statistic, decide at the
    Sidak-corrected level."""
    fit1 = mle(sample1)
    fit_i = mle(sample_i)
    if cfg.shared_looks == "pooled":
        shared = mle(np.concatenate([np.ravel(sample1), np.ravel(sample_i)])).params.looks
    else:
        shared = fit1.params.looks
    m, n = np.size(sample1), np.size(sample_i)
    if cfg.kind == "hellinger":
        stat = hellinger_stat(fit1.params, fit_i.params, m, n, shared)
    elif cfg.kind == "kl":
        stat = kl_stat(fit1.params, fit_i.params, m, n, shared)
    else:
        stat = renyi_stat(fit1.params, fit_i.params, m, n, shared, cfg.renyi_order)
    p = chi2_survival(stat, cfg.dof)
    return TestOutcome(stat, p, p <= sidak_level(cfg.alpha, NUM_TESTS))


# ---------------------------------------------------------------------------
# the statistics and their looks thresholds, element-wise over arrays (no
# validation).  Equal means give exactly 0; rounding below 0 clamps to 0.  A
# statistic that is 0 for every L never reaches the critical value, so its
# threshold is +inf.


def _threshold(critical, per_look, tie):
    """critical / per_look, or +inf where the statistic stays 0 at any L."""
    with np.errstate(divide="ignore"):
        return np.where(tie | (per_look <= 0.0), np.inf, critical / per_look)


def _log_bc(mean1, mean_i):
    """Log of the Bhattacharyya coefficient per look, <= 0 up to rounding."""
    return np.log(2.0) + 0.5 * (np.log(mean1) + np.log(mean_i)) - np.log(mean1 + mean_i)


def _renyi_log_arg(mean1, mean_i, beta):
    return (
        np.log(mean1)
        + np.log(mean_i)
        - np.log(beta * mean_i + (1.0 - beta) * mean1)
        - np.log(beta * mean1 + (1.0 - beta) * mean_i)
    )


def hellinger_stat_array(mean1, mean_i, m, n, looks):
    """(8mn/(m+n)) * (1 - 2^L (l1 li)^(L/2) / (l1 + li)^L), log-domain."""
    log_bc = _log_bc(mean1, mean_i)
    raw = (8.0 * m * n / (m + n)) * -np.expm1(looks * log_bc)
    return np.where(mean1 == mean_i, 0.0, np.maximum(raw, 0.0))


def hellinger_threshold_array(mean1, mean_i, m, n, critical):
    """T with hellinger_stat_array(..., L) < critical exactly when L < T:
    L log_bc > log1p(-critical / (8mn/(m+n))).  A critical value at or above
    8mn/(m+n), the statistic's supremum, is never reached."""
    k = 8.0 * m * n / (m + n)
    reach = -math.log1p(-critical / k) if critical < k else math.inf
    log_bc = _log_bc(mean1, mean_i)
    return _threshold(reach, -log_bc, mean1 == mean_i)


def kl_stat_array(mean1, mean_i, m, n, looks):
    """(2mn/(m+n)) * L * ((l1^2 + li^2)/(2 l1 li) - 1), evaluated as
    L (l1 - li)^2 / (2 l1 li), the algebraically identical form that cannot
    go negative.  np.square, unlike ** 2 on a scalar (C pow), rounds the same
    for scalars and arrays."""
    raw = (2.0 * m * n / (m + n)) * looks * np.square(mean1 - mean_i) / (2.0 * mean1 * mean_i)
    return np.where(mean1 == mean_i, 0.0, np.maximum(raw, 0.0))


def kl_threshold_array(mean1, mean_i, m, n, critical):
    """T with kl_stat_array(..., L) < critical exactly when L < T."""
    per_look = (2.0 * m * n / (m + n)) * np.square(mean1 - mean_i) / (2.0 * mean1 * mean_i)
    return _threshold(critical, per_look, mean1 == mean_i)


def renyi_stat_array(mean1, mean_i, m, n, looks, beta):
    """Order-beta statistic; beta(beta-1) < 0 and log-argument <= 1 keep it >= 0."""
    log_arg = _renyi_log_arg(mean1, mean_i, beta)
    raw = (2.0 * m * n / (m + n)) * (looks / (2.0 * beta * (beta - 1.0))) * log_arg
    return np.where(mean1 == mean_i, 0.0, np.maximum(raw, 0.0))


def renyi_threshold_array(mean1, mean_i, m, n, critical, beta):
    """T with renyi_stat_array(..., L, beta) < critical exactly when L < T."""
    per_look = (2.0 * m * n / (m + n)) / (2.0 * beta * (beta - 1.0)) * _renyi_log_arg(
        mean1, mean_i, beta
    )
    return _threshold(critical, per_look, mean1 == mean_i)
