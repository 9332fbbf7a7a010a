"""Scaled goodness-of-fit statistics between two fitted Gamma laws.

Each statistic compares the estimated mean backscatter of two samples under
a common looks value and is asymptotically chi-square distributed under the
null hypothesis of equal parameters, which turns it into a p-value test.
The family-wise significance over the series of NUM_TESTS tests, one per
oriented Nagao-Matsuyama region, is controlled by the Sidak per-test level.

Each test is defined by one per-look rate a of the two means, ``_rate``.  The
KL and Renyi statistics are L a, and Hellinger's is (8mn/(m+n)) (1 - BC^L)
with a = -ln BC.  ``statistic_array`` computes every statistic from a, and
the scalar ``hellinger_stat``, ``kl_stat`` and ``renyi_stat`` validate their
inputs and return its value.

Every statistic grows with the shared looks L, so a test at critical value
c = chi2_critical(eta, dof) accepts exactly when L < T, the looks at which
the statistic reaches c.  ``looks_threshold`` gives T from the same rate; the
filter engine decides its region tests from T alone, without the statistic
or its p-value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, check_integer
from .gamma import GammaParams, into_range, mle

KINDS = ("hellinger", "kl", "renyi")
DOFS = (1, 2)  # the chi-square degrees of freedom a test may take
SHARED_LOOKS = ("pooled", "sample1")  # the looks estimates a test may share

# The filter tests each of the eight oriented regions against the central block.
NUM_TESTS = 8

# The least Renyi order, the spacing of the doubles just below 1: a smaller
# beta barely moves 1 - beta off 1, so the rate's log term is rounding noise,
# and a subnormal one overflows the 1 / (beta (beta - 1)) factor to -inf,
# which times a zero log term is nan.
MIN_RENYI_ORDER = 2.0**-53
RENYI_ORDERS = "[2**-53, 1)"  # [MIN_RENYI_ORDER, 1), as messages and help name it


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
        if self.kind == "renyi" and not MIN_RENYI_ORDER <= self.renyi_order < 1.0:
            raise InvalidArgumentError(f"renyi_order must be in {RENYI_ORDERS}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidArgumentError("alpha must be in (0, 1)")
        check_integer(self.dof, "dof")
        if self.dof not in DOFS:
            raise InvalidArgumentError("dof must be 1 or 2")
        if self.shared_looks not in SHARED_LOOKS:
            raise InvalidArgumentError(f"shared_looks must be one of {SHARED_LOOKS}")


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
    TestConfig(kind="renyi", renyi_order=beta)  # refuses an order outside RENYI_ORDERS
    _check_stat_inputs(p1.mean, pi.mean, m, n, shared_L)
    return float(renyi_stat_array(p1.mean, pi.mean, m, n, shared_L, beta))


def chi2_survival(s: float, dof: int) -> float:
    """Pr(chi2_dof > s) for dof 1 or 2: erfc(sqrt(s/2)) at dof 1, exp(-s/2) at
    dof 2."""
    TestConfig(dof=dof)  # refuses a dof outside DOFS
    if not math.isfinite(s) or s < 0.0:
        raise InvalidArgumentError("statistic must be finite and >= 0")
    return math.erfc(math.sqrt(s / 2.0)) if dof == 1 else math.exp(-s / 2.0)


def _erfcinv(eta: float) -> float:
    """The double x >= 0 whose math.erfc(x) lies closest to eta, 0 < eta < 1.
    erfc decreases, so bisection narrows [0, 30], where erfc(30) is 0 in
    doubles, to adjacent doubles, and the closer of the two is kept."""
    lo, hi = 0.0, 30.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if math.erfc(mid) > eta:
            lo = mid
        else:
            hi = mid
    return lo if math.erfc(lo) - eta <= eta - math.erfc(hi) else hi


def chi2_critical(eta: float, dof: int) -> float:
    """The s with chi2_survival(s, dof) == eta, for dof 1 or 2: 2 erfcinv(eta)^2
    at dof 1, -2 ln eta at dof 2."""
    TestConfig(dof=dof)  # refuses a dof outside DOFS
    if not 0.0 < eta < 1.0:
        raise InvalidArgumentError("eta must be in (0, 1)")
    if dof == 2:
        return -2.0 * math.log(eta)
    x = _erfcinv(eta)
    return 2.0 * x * x


def run_test(sample1, sample_i, cfg: TestConfig) -> TestOutcome:
    """Fit both samples, compute the configured statistic, decide at the
    Sidak-corrected level.  Both samples are first scaled by one common
    power of two, gamma.into_range on the two together, so samples of any
    magnitude test alike and the statistic sees only the ratio of the means."""
    m, n = np.size(sample1), np.size(sample_i)
    pooled, _ = into_range(np.concatenate([np.ravel(sample1), np.ravel(sample_i)]).astype(float))
    fit1 = mle(pooled[:m])
    fit_i = mle(pooled[m:])
    shared = (mle(pooled) if cfg.shared_looks == "pooled" else fit1).params.looks
    means = fit1.params.mean, fit_i.params.mean
    stat = float(statistic_array(cfg.kind, *means, m, n, shared, cfg.renyi_order))
    p = chi2_survival(stat, cfg.dof)
    return TestOutcome(stat, p, p <= sidak_level(cfg.alpha, NUM_TESTS))


# ---------------------------------------------------------------------------
# the statistics and their looks thresholds, element-wise over arrays (no
# validation), both from one per-look rate a of the two means.  Equal means
# give a statistic of exactly 0 at every L, rounding below 0 clamps to 0, and
# a statistic that stays 0 never reaches the critical value: its threshold is
# +inf.


def _rate(kind, mean1, mean_i, m, n, beta, out=None, work=None):
    """The per-look rate a: KL and Renyi are L a, Hellinger is
    (8mn/(m+n)) (1 - e^(-L a)) with a = -ln BC.  out and work, float arrays
    of the broadcast shape given both or neither, take a and an
    intermediate."""
    if out is None:
        shape = np.broadcast_shapes(np.shape(mean1), np.shape(mean_i))
        out, work = np.empty(shape), np.empty(shape)
    if kind == "hellinger":
        # minus the log of the Bhattacharyya coefficient, >= 0 up to rounding:
        # -(ln 2 + (ln l1 + ln li) / 2 - ln(l1 + li))
        np.add(np.log(mean1), np.log(mean_i, out=out), out=out)
        np.add(np.log(2.0), np.multiply(0.5, out, out=out), out=out)
        np.subtract(out, np.log(np.add(mean1, mean_i, out=work), out=work), out=out)
        return np.negative(out, out=out)
    if kind == "kl":
        # (l1^2 + li^2)/(2 l1 li) - 1 as (l1 - li)^2 / (2 l1 li), which cannot
        # go negative; np.square, unlike ** 2 on a scalar (C pow), rounds the
        # same for scalars and arrays
        np.square(np.subtract(mean1, mean_i, out=out), out=out)
        np.multiply(2.0 * m * n / (m + n), out, out=out)
        with np.errstate(invalid="ignore"):  # 0 / 0 where 2 l1 li underflows
            np.divide(out, np.multiply(2.0 * mean1, mean_i, out=work), out=out)
        low = np.less(work, np.finfo(float).tiny)
        if low.any():
            # 2 l1 li left the normal floats: the rate depends on li / l1 alone,
            # so take these pairs at the power of two putting the larger in [1/2, 1)
            l1, li = (np.broadcast_to(v, low.shape)[low] for v in (mean1, mean_i))
            top = np.frexp(np.maximum(l1, li))[1]
            l1, li = np.ldexp(l1, -top), np.ldexp(li, -top)
            out[low] = 2.0 * m * n / (m + n) * np.square(l1 - li) / (2.0 * l1 * li)
        return out
    # beta(beta-1) < 0 and a log-argument <= 0 keep the Renyi rate >= 0:
    # ln l1 + ln li - ln(b li + (1-b) l1) - ln(b l1 + (1-b) li)
    np.add(np.log(mean1), np.log(mean_i, out=out), out=out)
    np.add(np.multiply(beta, mean_i, out=work), (1.0 - beta) * mean1, out=work)
    np.subtract(out, np.log(work, out=work), out=out)
    np.add(beta * mean1, np.multiply(1.0 - beta, mean_i, out=work), out=work)
    np.subtract(out, np.log(work, out=work), out=out)
    return np.multiply((2.0 * m * n / (m + n)) / (2.0 * beta * (beta - 1.0)), out, out=out)


def statistic_array(kind, mean1, mean_i, m, n, looks, beta=0.5):
    """The kind's statistic at the shared looks, from its per-look rate."""
    rate = _rate(kind, mean1, mean_i, m, n, beta)
    if kind == "hellinger":
        raw = (8.0 * m * n / (m + n)) * -np.expm1(-looks * rate)
    else:
        raw = looks * rate
    return np.where(mean1 == mean_i, 0.0, np.maximum(raw, 0.0))


def hellinger_stat_array(mean1, mean_i, m, n, looks):
    return statistic_array("hellinger", mean1, mean_i, m, n, looks)


def kl_stat_array(mean1, mean_i, m, n, looks):
    return statistic_array("kl", mean1, mean_i, m, n, looks)


def renyi_stat_array(mean1, mean_i, m, n, looks, beta):
    return statistic_array("renyi", mean1, mean_i, m, n, looks, beta)


@functools.cache  # every engine block asks again for its spec's reach
def threshold_reach(cfg: TestConfig, m, n) -> float:
    """L a where the cfg statistic reaches the critical value c: c itself for
    KL and Renyi, -ln(1 - c / (8mn/(m+n))) for Hellinger, and inf where
    Hellinger's statistic never does, c >= 8mn/(m+n)."""
    reach = chi2_critical(sidak_level(cfg.alpha, NUM_TESTS), cfg.dof)
    if cfg.kind == "hellinger":
        k = 8.0 * m * n / (m + n)
        reach = -math.log1p(-reach / k) if reach < k else math.inf
    return reach


def looks_threshold(cfg: TestConfig, mean1, mean_i, m, n, out=None, work=None, mask=None):
    """T with the cfg test passing exactly when the shared looks L < T: the
    statistic reaches the critical value at L = reach / a, with reach given by
    threshold_reach(cfg, m, n).  out and work (float) and mask (bool), arrays
    of the broadcast shape given all three or none, take T and the
    intermediates."""
    reach = threshold_reach(cfg, m, n)
    if out is None:
        shape = np.broadcast_shapes(np.shape(mean1), np.shape(mean_i))
        out, work, mask = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    # a KL rate beyond the float range is +inf, a statistic above c at every L
    with np.errstate(divide="ignore", over="ignore"):
        rate = _rate(cfg.kind, mean1, mean_i, m, n, cfg.renyi_order, work, out)
        np.divide(reach, rate, out=out)
    np.copyto(out, np.inf, where=np.equal(mean1, mean_i, out=mask))
    np.copyto(out, np.inf, where=np.less_equal(rate, 0.0, out=mask))
    return out
