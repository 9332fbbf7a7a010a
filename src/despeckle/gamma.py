"""Gamma speckle model: density, sampling, and maximum-likelihood fitting.

An L-look intensity pixel with mean backscatter lambda follows
Gamma(shape=L, rate=L/lambda), so the density is

    f(z) = L^L / (lambda^L Gamma(L)) * z^(L-1) * exp(-L z / lambda),  z > 0

with mean lambda and variance lambda^2 / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError

L_MAX = 1.0e4

ZERO_SHIFT = 1e-6  # see shift_zeros

# Bump this whenever the variate-generation algorithm below changes in any
# way that alters the stream of produced values for a given seed.
GAMMA_ALGORITHM_VERSION = 1


@dataclass(frozen=True)
class GammaParams:
    """Estimated pair (equivalent looks, mean backscatter)."""

    looks: float
    mean: float

    def __post_init__(self):
        if not (math.isfinite(self.looks) and 1.0 <= self.looks <= L_MAX):
            raise InvalidArgumentError(f"looks must be in [1, {L_MAX:g}], got {self.looks}")
        if not (math.isfinite(self.mean) and self.mean > 0):
            raise InvalidArgumentError(f"mean must be finite and > 0, got {self.mean}")


@dataclass(frozen=True)
class FitResult:
    """MLE output plus data-quality flags.

    degenerate  -- the sample had (numerically) zero log-dispersion, so the
                   looks estimate was clamped to L_MAX.
    zero_shifted -- exact zeros were shifted by shift_zeros before fitting.
    """

    params: GammaParams
    degenerate: bool = False
    zero_shifted: bool = False


def density(p: GammaParams, z):
    """Gamma density at z (scalar or array); z must be strictly positive."""
    zarr = np.asarray(z, dtype=np.float64)
    if np.any(zarr <= 0) or not np.all(np.isfinite(zarr)):
        raise DomainError("density requires finite z > 0")
    L, lam = p.looks, p.mean
    log_f = (
        L * np.log(L)
        - L * np.log(lam)
        - math.lgamma(L)
        + (L - 1.0) * np.log(zarr)
        - L * zarr / lam
    )
    out = np.exp(log_f)
    return float(out) if np.isscalar(z) else out


def log_likelihood(p: GammaParams, values) -> float:
    return float(np.sum(np.log(density(p, np.asarray(values)))))


# ---------------------------------------------------------------------------
# sampling
#
# Gamma variates come from a fixed, self-contained rejection sampler so a
# given (seed, stream) reproduces the same values on any build, independent
# of the host library's distribution internals.  Only the uniform doubles of
# numpy's Generator are consumed.
#
# Algorithm (version 1), valid for shape >= 1:
#   Marsaglia & Tsang squeeze-free rejection with d = shape - 1/3,
#   c = 1/sqrt(9 d).  Standard normals are produced by Box-Muller:
#   x = sqrt(-2 ln u1) * cos(2 pi u2) with u1, u2 uniform on (0, 1].
#   Candidate v = (1 + c x)^3 is accepted when v > 0 and
#   ln u3 < x^2/2 + d - d v + d ln v.  Each round draws a (3, k) uniform
#   block (u1, u2, u3) for the k still-empty slots, which are filled in
#   index order; rejected slots go to the next round.


def _gamma_shape_ge1(shape: float, n: int, stream: np.random.Generator) -> np.ndarray:
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    pending = np.arange(n)
    while pending.size:
        u = stream.random((3, pending.size))
        u1 = 1.0 - u[0]  # in (0, 1], keeps the log finite
        x = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u[1])
        v = (1.0 + c * x) ** 3
        u3 = 1.0 - u[2]
        with np.errstate(invalid="ignore", divide="ignore"):
            ok = (v > 0) & (np.log(u3) < 0.5 * x * x + d - d * v + d * np.log(v))
        out[pending[ok]] = d * v[ok]
        pending = pending[~ok]
    return out


def sample(p: GammaParams, n: int, stream: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from Gamma(L, L/lambda): mean lambda, variance lambda^2/L."""
    if n < 1:
        raise InvalidArgumentError("sample size must be >= 1")
    return _gamma_shape_ge1(p.looks, n, stream) * (p.mean / p.looks)


def unit_speckle(looks: float, shape: tuple, stream: np.random.Generator) -> np.ndarray:
    """Unit-mean speckle field Gamma(L, L) of the given array shape; the
    looks L must be finite and >= 1, the sampler's domain."""
    if not (math.isfinite(looks) and looks >= 1.0):
        raise InvalidArgumentError(f"looks must be finite and >= 1, got {looks}")
    return (_gamma_shape_ge1(looks, math.prod(shape), stream) / looks).reshape(shape)


# ---------------------------------------------------------------------------
# maximum likelihood


def range_shift(lowest, highest, row_max):
    """The range rule: 0 when the values, whose smallest is lowest and largest
    highest, all lie in [2^-500, 2^500].  Otherwise row_max() gives the maximum
    of each row (a window, a sample), and each row whose maximum lies outside
    the range gets the shift of the power of two 2^shift that puts that maximum
    just below 2^500, so its sums and squares stay normal and finite and
    np.ldexp(x, -shift) scales a per-row result back.  Other rows, those with no
    positive or an infinite maximum too, get shift 0."""
    if 2.0**-500 <= lowest and highest <= 2.0**500:
        return 0
    top = row_max()
    outside = (0.0 < top) & (top < np.inf) & ((top < 2.0**-500) | (2.0**500 < top))
    return np.where(outside, 500 - np.frexp(top)[1], 0)


def into_range(z):
    """(z scaled, shift): the range rule applied to each row along the last
    axis of z; z that needs no scaling comes back as is."""
    shift = range_shift(z.min(initial=np.inf), z.max(initial=0.0), lambda: z.max(axis=-1))
    if not np.any(shift):
        return z, shift
    return np.ldexp(z, shift[..., None]), shift


def shift_zeros(z, out=None, work=None, mask=None) -> np.ndarray:
    """z with each exact zero replaced by ZERO_SHIFT times the smallest
    positive value along the last axis, floored at the smallest subnormal,
    which keeps log z finite; a row without a positive value scales by 1.
    z without a zero comes back as is.  out (the result), work (float) and
    mask (bool), each of z's shape, are optional buffers for the steps."""
    zero = np.equal(z, 0.0, out=mask)
    if not zero.any():
        return z
    work = np.empty_like(z) if work is None else work
    out = np.empty_like(z) if out is None else out
    # the smallest positive value of each row: the others read as inf
    work.fill(np.inf)
    np.copyto(work, z, where=np.greater(z, 0.0, out=zero))
    lowest = work.min(axis=-1, keepdims=True)
    lowest[np.isinf(lowest)] = 1.0
    np.copyto(out, z)
    np.copyto(out, np.maximum(ZERO_SHIFT * lowest, np.finfo(float).smallest_subnormal),
              where=np.equal(z, 0.0, out=zero))
    return out


def _asymptotic_gap(y):
    """ln y - digamma(y) by its asymptotic series 1/(2y) + sum B_2k / (2k y^2k),
    k = 1..8 (Bernoulli numbers B_2k): every term is small, so nothing
    cancels, and for y >= 10 the first term left out is below 1e-16 relative."""
    t = 1.0 / (y * y)
    return 0.5 / y + t * (1 / 12 + t * (-1 / 120 + t * (1 / 252 + t * (-1 / 240 + t * (
        1 / 132 + t * (-691 / 32760 + t * (1 / 12 + t * (-3617 / 8160))))))))


def _ten_steps(looks):
    """gap(L) - gap(L + 10) = sum_{k=0..9} 1/(L + k) - ln(1 + 10/L), from
    digamma(L + 1) = digamma(L) + 1/L.

    It takes k = 0 and k = 1..9 apart, each less its own share of the log,
    ln(1 + 1/L) and ln(1 + 9/(L + 1)): both parts stay below 2 down to L = 1,
    so their roundings cost the gap ~2 ulps there, against ~4 for one sum less
    one log near 2.9 and 2.4, and the gap at 1 comes out as Euler's constant
    rounded.  The k = 1..9 sum pairs k with 10 - k, which halves its
    divisions: 1/(L + k) + 1/(L + 10 - k) = (2L + 10) / (L (L + 10) +
    k (10 - k)), and k = 5 alone is (2L + 10) (1/2) / (L (L + 10) + 25).
    """
    r = 1.0 / looks
    v = looks * (looks + 10.0)
    pairs = (looks + looks + 10.0) * (
        1.0 / (v + 9.0) + 1.0 / (v + 16.0) + 1.0 / (v + 21.0) + 1.0 / (v + 24.0) + 0.5 / (v + 25.0)
    )
    return (pairs - np.log1p(9.0 / (looks + 1.0))) + (r - np.log1p(r))


def _dispersion_gap(looks):
    """ln L - digamma(L): strictly decreasing on [1, L_MAX], -> 0 as L -> inf.

    At L >= 10 the asymptotic series gives it directly; below, the series at
    L + 10 plus the ten recurrence steps back to L.  A float, which takes the
    branch with an if, and each element of an array, which takes it with a
    mask, go through the same operations in the same order, so both give the
    same bits.
    """
    if isinstance(looks, float):
        if looks >= 10.0:
            return _asymptotic_gap(looks)
        # a float, not a numpy scalar, keeps solve_looks's arithmetic on floats
        return float(_asymptotic_gap(looks + 10.0) + _ten_steps(looks))
    below = looks < 10.0
    return _asymptotic_gap(looks + 10.0 * below) + np.where(below, _ten_steps(looks), 0.0)


_GAP_AT_ONE, _GAP_AT_L_MAX = _dispersion_gap(1.0), _dispersion_gap(L_MAX)  # the clamps

# The computed gap strays from its true value by ~5e-15 relative at most on
# [1, L_MAX] (measured against mpmath; the tests pin 2e-14), and the true gap
# strictly decreases.  So a computed gap of at least (1 + _SURE_MARGIN) rhs
# at a puts the computed gap above rhs at every L <= a, and one of at most
# (1 - _SURE_MARGIN) rhs at b puts it at or below rhs at every L >= b, for
# any error below _SURE_MARGIN / 2.
_SURE_MARGIN = 1e-13


def _sure_sides(rhs: float):
    """(a, b) close around the solution of gap(L) = rhs, for rhs strictly
    between the clamps: the computed gap exceeds rhs at every L <= a and does
    not at every L >= b.

    Secant steps from the root of 1/(2L) + 1/(12L^2) = rhs, the series' first
    two terms, bring L within ~_SURE_MARGIN / 4 relative of the solution; a
    and b lie 2 _SURE_MARGIN below and above it, each checked with one gap by
    the rule above.  A side that fails its check falls back to 1 or L_MAX,
    which hold for every such rhs.
    """
    x0 = min(max((3.0 + math.sqrt(9.0 + 12.0 * rhs)) / (12.0 * rhs), 1.0), L_MAX)
    f0 = _dispersion_gap(x0) - rhs
    x1 = min(max(x0 * (1.0 + f0 / rhs), 1.0), L_MAX)  # the gap ~ 1/L near its solution
    for _ in range(8):
        f1 = _dispersion_gap(x1) - rhs
        if abs(f1) <= 0.25 * _SURE_MARGIN * rhs or f1 == f0:
            break
        x0, f0, x1 = x1, f1, min(max(x1 - f1 * (x1 - x0) / (f1 - f0), 1.0), L_MAX)
    a, b = x1 * (1.0 - 2.0 * _SURE_MARGIN), x1 * (1.0 + 2.0 * _SURE_MARGIN)
    return (a if _dispersion_gap(a) >= (1.0 + _SURE_MARGIN) * rhs else 1.0,
            b if _dispersion_gap(b) <= (1.0 - _SURE_MARGIN) * rhs else L_MAX)


def solve_looks(rhs: float) -> float:
    """Solve ln L - digamma(L) = rhs for L on [1, L_MAX], on one float.

    rhs at or above the L=1 value clamps to 1, at or below the L_MAX value to
    L_MAX.  The rest bisects [1, L_MAX] until a step would move no bound, which
    gives the double of a fixed 200 steps: equal bounds repeat the step.  The
    loop ends because mid = (lo + hi) / 2 rounds into [lo, hi], so lo only
    rises and hi only falls; each step halves a bracket until its bounds are
    adjacent doubles, ~66 halvings of [1, L_MAX].  Only the steps inside
    _sure_sides's (a, b), ~12 of them, evaluate the gap: at the others its
    side of rhs is already known.
    """
    if rhs >= _GAP_AT_ONE:
        return 1.0
    if rhs <= _GAP_AT_L_MAX:
        return L_MAX
    a, b = _sure_sides(rhs)
    lo, hi = 1.0, L_MAX
    while True:
        mid = 0.5 * (lo + hi)
        # the gap decreases: the root lies right of mid when gap(mid) > rhs
        right = mid <= a or (mid < b and _dispersion_gap(mid) > rhs)
        if mid == (lo if right else hi):
            return mid  # no bound would move
        lo, hi = (mid, hi) if right else (lo, mid)


# For L >= 1, 1/(2L) < ln L - digamma(L) < 1/L (H. Alzer, Math. Comp. 66
# (1997) 373-389), and closer, the asymptotic series' partial sums bracket
# the gap: each remainder has the sign of the first term left out and is
# smaller, so 1/(2L) + 1/(12L^2) - 1/(120L^4) < gap < 1/(2L) + 1/(12L^2)
# (the tests check both pairs against mpmath).  The computed gap and bounds
# stray from their true values by ~5e-15 relative at most, so a relative
# margin of 1e-9 on each cut-off is safe.
_SCREEN_MARGIN = 1e-9
_SURELY_ABOVE_GAP = 1.0 + _SCREEN_MARGIN
_SURELY_BELOW_GAP = 0.5 * (1.0 - _SCREEN_MARGIN)


def looks_below(rhs, threshold, out=None, work=None, mask=None) -> np.ndarray:
    """solve_looks(rhs) < threshold, element-wise, without solving.

    Every solution lies in [1, L_MAX], so a threshold above L_MAX always holds
    and one at or below 1 never does.  In between, ln L - digamma(L) strictly
    decreases, so the solution lies below the threshold T exactly when rhs
    exceeds T's dispersion gap; the clamped rhs values obey the same
    comparison.  The gap lies between 1/(2T) and 1/T, so rhs T above 1 + 1e-9
    holds and rhs T at or below (1 - 1e-9) / 2 does not.  The pairs in
    between, and those whose product is nan, the band, go through the
    series' tighter bounds with the same margin, and only the few left
    between those evaluate the gap.

    out (bool), work (float) and mask (bool), arrays of the broadcast shape
    given all three or none, take the result and the intermediates.
    """
    rhs, threshold = np.broadcast_arrays(rhs, threshold)
    if out is None:
        out, work, mask = np.empty(rhs.shape, bool), np.empty(rhs.shape), np.empty(rhs.shape, bool)
    # rhs T is 0 inf at an infinite threshold, which the threshold rules
    # settle, and a product that leaves the float range keeps its side of
    # both cut-offs
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        product = np.multiply(rhs, threshold, out=work)
    np.greater(product, _SURELY_ABOVE_GAP, out=out)
    # neither above the one cut-off nor at or below the other: the band
    band = np.flatnonzero(np.equal(np.less_equal(product, _SURELY_BELOW_GAP, out=mask), out,
                                   out=mask))
    np.logical_and(out, np.greater(threshold, 1.0, out=mask), out=out)
    np.logical_or(out, np.greater(threshold, L_MAX, out=mask), out=out)
    if band.size:
        rhs, threshold = rhs.flat[band], threshold.flat[band]
        looks = np.clip(threshold, 1.0, L_MAX)
        inverse = 1.0 / looks
        upper = inverse * (0.5 + inverse / 12.0)
        lower = upper - np.square(inverse * inverse) / 120.0
        above = rhs > upper * (1.0 + _SCREEN_MARGIN)  # rhs > gap; nan rhs or T stays False
        unsure = np.flatnonzero(~above & (rhs > lower * (1.0 - _SCREEN_MARGIN)))
        if unsure.size:
            # a handful of pairs (at most 8 per call on a filter-scene
            # strip), where floats cost less than the array form's ~50 numpy
            # calls; both forms give the same bits
            gap = [_dispersion_gap(x) for x in looks[unsure].tolist()]
            above[unsure] = rhs[unsure] > gap
        out.flat[band] = (threshold > L_MAX) | ((threshold > 1.0) & above)
    return out


def mle(values) -> FitResult:
    """Fit (L, lambda) by maximum likelihood.

    lambda-hat is the closed-form sample mean; L-hat solves
    ln L - digamma(L) = ln(mean) - mean(ln z).  The fit runs on the sample
    brought into range by into_range, so values of any magnitude fit, and the
    mean is scaled back.  Exact zeros go through shift_zeros with a flag; a
    constant sample clamps L-hat to L_MAX with the degeneracy flag.
    """
    z = np.asarray(values, dtype=np.float64).reshape(-1)
    if z.size < 2:
        raise DomainError("mle requires at least 2 values")
    if not np.all(np.isfinite(z)) or np.any(z < 0):
        raise DomainError("mle requires finite values >= 0")
    if not np.any(z > 0):
        raise DomainError("mle requires at least one positive value")
    zero_shifted = bool(np.any(z == 0))
    z, shift = into_range(z)
    z = shift_zeros(z)
    mean = float(z.mean())
    rhs = math.log(mean) - float(np.log(z).mean())
    lam = float(np.ldexp(mean, -shift))
    if rhs <= 0.0:
        # zero log-dispersion (constant sample, up to rounding)
        return FitResult(GammaParams(L_MAX, lam), degenerate=True, zero_shifted=zero_shifted)
    return FitResult(GammaParams(solve_looks(rhs), lam), zero_shifted=zero_shifted)
