"""Shared numerical kernels: special functions, quadrature, root finding.

Everything downstream (densities, moment curves, entropy integrals) funnels
through this module so that accuracy assumptions live in one place.  The
exact checks integrate with ``de_rule``: one double-exponential node set,
on which the integrand is evaluated as one array and every quantity is a
reduction, centred by ``unimodal_argmax`` and scaled by ``peak_width``,
both array scans.  The special functions are numpy or pure Python:
``log_gamma``, ``digamma`` and ``trigamma`` on floats; ``normal_quantile``
(Wichura's AS241) and ``log_gamma_tail`` (the regularized incomplete gamma
functions, by power series and continued fraction) on arrays.
``logsumexp`` runs scipy.special.logsumexp's float64 steps, so its output
bytes are the same, without scipy's array-API dispatch (tens of
microseconds a call) or its second ``exp`` of the whole array on every
call.  numpy is the only dependency: ``integrate``, ``log_integral``,
``find_root_increasing`` and ``BracketError``, which no command uses, are
not in ``__all__`` and stay only for the benchmark tracer and their tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NumericsError",
    "DomainError",
    "IntegrandError",
    "QuadratureResult",
    "DEFAULT_TOL",
    "MAX_LEVELS",
    "check_grid",
    "log_gamma",
    "digamma",
    "trigamma",
    "normal_quantile",
    "log_gamma_tail",
    "logsumexp",
    "de_rule",
    "peak_width",
    "unimodal_argmax",
]

# Default absolute tolerance for quadrature; downstream equality checks
# compare at 1e-8, two orders looser.
DEFAULT_TOL = 1e-10

# Steps of de_rule: 1/2, 1/4, ..., 2^-MAX_LEVELS.
MAX_LEVELS = 8

# de_rule's nodes reach to _NEAR half-widths (or scales) of a finite end and
# _FAR scales towards an infinite one, past which a log-concave density has
# fallen by about e^-_FAR; _REACH is the t range [-left, right] of each node map.
_NEAR, _FAR = 1e-30, 1e6
_HALF_PI = math.pi / 2.0
_REACH = {True: (math.asinh(-math.log(0.5 * _NEAR) / math.pi),) * 2,
          False: (math.asinh(-math.log(_NEAR) / _HALF_PI),
                  math.asinh(math.log(_FAR) / _HALF_PI))}

# Offsets from a finite end or a mode that unimodal_argmax and peak_width scan.
_DOUBLINGS = 2.0 ** np.arange(-40.0, 41.0)


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class DomainError(NumericsError, ValueError):
    """Argument outside the mathematical domain of a function."""


class BracketError(NumericsError, ValueError):
    """Root-finding bracket does not straddle the target value."""


class IntegrandError(NumericsError):
    """Integrand returned NaN; the result would be silently wrong."""


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one integration: a float from ``integrate``, an array of
    quantities, each with its own error estimate and flag, from ``de_rule``.

    ``converged`` is False when the error estimate misses the requested
    tolerance within the budget; the value is still reported so callers can
    decide whether the residual accuracy suffices.  ``evaluations`` counts
    integrand evaluations (nodes, for ``de_rule``).
    """

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int
    converged: bool | np.ndarray


def check_grid(values: Sequence[float], name: str,
               min_size: int = 1) -> np.ndarray:
    """``values`` as a float array, checked to be a one-dimensional grid of
    at least ``min_size`` finite, strictly increasing points.

    This is the one shape rule for every grid of thresholds, orders and
    levels; a range rule (nonnegative, inside (0, 1), ...) is the caller's.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional")
    if arr.size < min_size:
        raise DomainError(f"{name} needs {min_size} or more points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(np.diff(arr) <= 0.0):
        raise DomainError(f"{name} must be strictly increasing")
    return arr


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Relative accuracy is a few ulp across [1e-3, 1e6] (Lanczos/Stirling
    style implementation underneath); DomainError past 2.5e305 (overflow).
    """
    if math.isnan(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma overflows at x = {x!r}") from None


# B_2k / (2k), k = 7, 6, ..., 1: the asymptotic series of digamma in 1/x^2,
# highest power first, with the coefficients and evaluation order of
# Cephes' psi, which scipy.special.digamma runs for x >= 10
_DIGAMMA_SERIES = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252,
                   -1 / 120, 1 / 12)


def digamma(x: float) -> float:
    """Derivative of log Gamma, psi(x), for x >= 1.

    Below 10, psi(x) = psi(x + n) - sum_{k<n} 1/(x + k) shifts x up to
    [10, 11), and every term is summed exactly rounded, so the cancellation
    near the root 1.4616 costs no accuracy; from 10 up the asymptotic
    series log x - 1/(2x) - sum_k B_2k / (2k x^2k) alone, whose first left
    out term is below 5e-17 there.  Within 4 ulp of max(1, |psi|) of
    mpmath on [1, 1e10].
    """
    if not x >= 1.0:
        raise DomainError(f"digamma requires x >= 1, got {x!r}")
    shift = [-1.0 / (x + k) for k in range(max(0, math.ceil(10.0 - x)))]
    y = x + len(shift)
    z = 1.0 / (y * y)
    series = 0.0
    for c in _DIGAMMA_SERIES:
        series = series * z + c
    series *= z
    if not shift:
        return math.log(y) - 0.5 / y - series
    return math.fsum([*shift, math.log(y), -0.5 / y, -series])


# B_2k, k = 8, 7, ..., 1: the asymptotic series of trigamma in 1/x^2,
# highest power first
_TRIGAMMA_SERIES = (-3617 / 510, 7 / 6, -691 / 2730, 5 / 66, -1 / 30,
                    1 / 42, -1 / 30, 1 / 6)


def trigamma(p: float) -> float:
    """Second derivative of log Gamma, sum_{k>=0} 1/(p+k)^2, for p > 0.

    As for ``digamma``: below 10, psi'(p) = psi'(p + n) + sum_{k<n}
    1/(p + k)^2 shifts p up to [10, 11), every term summed exactly rounded;
    from 10 up the asymptotic series 1/y + 1/(2y^2) + sum_k B_2k / y^(2k+1)
    alone, whose first left out term is below 6e-18 there.  Within 2 ulp of
    mpmath on [0.01, 1e10].
    """
    if math.isnan(p) or p <= 0.0:
        raise DomainError(f"trigamma requires p > 0, got {p!r}")
    shift = [1.0 / ((p + k) * (p + k)) for k in range(max(0, math.ceil(10.0 - p)))]
    y = p + len(shift)
    z = 1.0 / (y * y)
    series = 0.0
    for c in _TRIGAMMA_SERIES:
        series = series * z + c
    series *= z / y
    if not shift:
        return 1.0 / y + 0.5 * z + series
    return math.fsum([*shift, 1.0 / y, 0.5 * z, series])


# Wichura's AS241 (Applied Statistics 37, 1988), as CPython's
# statistics.NormalDist runs it: (numerator, denominator) coefficient pairs,
# highest power first, of the central branch in 0.180625 - q^2 and of the
# two tail branches in sqrt(-log tail) less 1.6 and less 5
_AS241_CENTRAL = np.longdouble((
    (2.5090809287301226727e+3, 3.3430575583588128105e+4,
     6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4,
     3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))).T
_AS241_NEAR = np.longdouble((
    (7.74545014278341407640e-4, 2.27238449892691845833e-2,
     2.41780725177450611770e-1, 1.27045825245236838258e+0,
     3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4,
     1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0))).T
_AS241_FAR = np.longdouble((
    (2.01033439929228813265e-7, 2.71155556874348757815e-5,
     1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7,
     1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0))).T


def _rational(pairs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Numerator over denominator at r, the two Horner steps in one array."""
    acc, r = pairs[0], r[:, np.newaxis]
    for c in pairs[1:]:
        acc = acc * r + c
    return acc[:, 0] / acc[:, 1]


def normal_quantile(half, tail) -> np.ndarray:
    """The x with Phi(x) - 1/2 = ``half`` and min(Phi(x), 1 - Phi(x)) =
    ``tail``, Phi the standard normal CDF, 0 < tail <= 1/2: the two are
    given apart so that each can be exact (for Phi^-1(t), t - 0.5 and
    min(t, 1 - t)), and a level within 2^-53 of 1 keeps its tail.

    Wichura's AS241: a rational function of ``half`` where |half| <= 0.425,
    else of sqrt(-log tail), each within about 1e-16 of the quantile.  It is
    evaluated in numpy's long double, which is wider than float64 on x86
    (64-bit significand), so that the float64 result is within 2 ulp of the
    true quantile there; with a float64 long double, within 6.
    """
    half, tail = np.broadcast_arrays(np.asarray(half, dtype=np.float64),
                                     np.asarray(tail, dtype=np.float64))
    x = np.empty(half.shape, dtype=np.longdouble)
    central = np.abs(half) <= 0.425
    q = half[central].astype(np.longdouble)
    x[central] = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    r = np.sqrt(-np.log(tail[~central].astype(np.longdouble)))
    near = r <= 5.0
    for branch, coefficients, shift in ((near, _AS241_NEAR, 1.6),
                                        (~near, _AS241_FAR, 5.0)):
        if branch.any():
            r[branch] = _rational(coefficients, r[branch] - shift)
    x[~central] = np.copysign(r, half[~central])
    return x.astype(np.float64)


# Stirling's series of log Gamma(p + 1) less (p + 1/2) log p - p +
# log(2 pi)/2, in 1/p^2 and times 1/p: B_2k / (2k (2k - 1)), k = 5, ..., 1
_STIRLING_SERIES = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)

# From this shape up the series' first left out term is below 1e-17.
_STIRLING_FROM = 20.0

# How far past p + 1, in units of sqrt(p), log_gamma_tail takes Q from its
# continued fraction: about two standard deviations, where Q is about 0.02
# and the fraction settles in 100 steps or fewer up to p = 1e8.
_FRACTION_FROM = 2.0


def _log_gamma_prefactor(p: float, x: np.ndarray) -> np.ndarray:
    """log(x^p e^-x / Gamma(p + 1)).  From p = 20 up it is p (log(x/p) - d)
    - log(2 pi p)/2 less Stirling's series, d = (x - p)/p and log(x/p) =
    log1p(d) where d > -1/2, so that no two terms of size p log p cancel."""
    if p < _STIRLING_FROM:
        return p * np.log(x) - x - log_gamma(p + 1.0)
    z = 1.0 / (p * p)
    series = 0.0
    for c in _STIRLING_SERIES:
        series = series * z + c
    d = (x - p) / p
    with np.errstate(divide="ignore"):      # log1p(-1), where it is not taken
        log_ratio = np.where(d < -0.5, np.log(x / p), np.log1p(d))
    return p * (log_ratio - d) - 0.5 * math.log(2.0 * math.pi * p) - series / p


def _gamma_series(p: float, x: np.ndarray) -> np.ndarray:
    """sum_{n>=0} x^n / ((p + 1) ... (p + n)) for a 1-D x, in blocks of
    terms (cumulative products) of doubling width, until the terms past a
    block, which fall at least as fast as a geometric series of ratio
    x / (p + n + 1), add less than 1e-17 of the sum."""
    total, term = np.ones(x.shape), np.ones(x.shape)
    n, width = 0, 64
    while True:
        block = np.cumprod(x[:, np.newaxis] / (p + np.arange(n + 1.0, n + width + 1.0)),
                           axis=1)
        block *= term[:, np.newaxis]
        total += block.sum(axis=1)
        term, n, width = block[:, -1], n + width, min(2 * width, 4096)
        room = p + n + 1.0 - x
        if np.all((room > 0.0) & (term * (p + n + 1.0) <= 1e-17 * total * room)):
            return total


def _gamma_fraction(p: float, x: np.ndarray) -> np.ndarray:
    """Legendre's continued fraction 1/(x + 1 - p - 1 (1 - p)/(x + 3 - p -
    2 (2 - p)/(x + 5 - p - ...))) = Q(p, x) e^x x^-p Gamma(p), by modified
    Lentz steps until every factor is within 3e-16 of 1 (it ends where p is
    an integer)."""
    b = x + 1.0 - p
    c, d = np.full(x.shape, np.inf), 1.0 / b
    h = d.copy()
    for i in range(1, 1000):
        a = -i * (i - p)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h *= d * c
        if np.all(np.abs(d * c - 1.0) <= 3e-16):
            return h
    raise NumericsError(f"the gamma({p:g}) continued fraction did not settle")


def log_gamma_tail(p: float, x, upper) -> np.ndarray:
    """log P(p, x), P the regularized lower incomplete gamma function, or
    log Q(p, x) = log(1 - P(p, x)) where ``upper``, for p >= 1 and x > 0.

    Up to p + 1 + 2 sqrt(p), P is x^p e^-x / Gamma(p + 1) times its power
    series and Q is 1 - P; further out, where Q is below about 0.02, Q is
    x^p e^-x / Gamma(p) times Legendre's continued fraction and P is 1 - Q,
    so neither difference cancels two digits.  The series takes about
    |x - p| + 9 sqrt(x) terms, so near the median a call costs O(sqrt(p))
    array passes.  log P is within about 1e-15 sqrt(p) of mpmath's and
    log Q within 50 times that.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(x > 0.0):     # a NaN would never end the power series
        raise DomainError("log_gamma_tail requires x > 0")
    far = x > p + 1.0 + _FRACTION_FROM * math.sqrt(p)
    out = _log_gamma_prefactor(p, x)
    if not far.all():
        out[~far] += np.log(_gamma_series(p, x[~far]))
    if far.any():
        out[far] += math.log(p) + np.log(_gamma_fraction(p, x[far]))
    other = far != np.broadcast_to(upper, x.shape)    # log(1 - e^out) wanted
    out[other] = np.log(-np.expm1(out[other]))
    return out


def logsumexp(a, axis: Optional[int] = None):
    """log(sum(exp(a))) over ``axis`` (all of ``a`` for None), as a float64
    array or, for one result, a numpy scalar.

    The steps and bytes of scipy.special.logsumexp without weights: the
    ties of the maximum are counted and the other terms summed shifted by
    it, log1p(s / ties) + log(ties) + max; a result that is not finite
    (a row of -inf, a +inf or NaN entry) is the direct log(sum(exp(a))),
    computed only when there is one.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axis, keepdims=True)
        ties = a == top
        count = np.sum(ties, axis=axis, keepdims=True, dtype=np.float64)
        shifted = np.where(ties, -np.inf, a)
        shifted -= top
        s = np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True)
        out = np.log1p(s / count) + np.log(count) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))[bad]
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _guarded(f: Callable[[float], float]) -> Callable[[float], float]:
    def g(x: float) -> float:
        y = f(x)
        if math.isnan(y):
            raise IntegrandError(f"integrand returned NaN at x={x!r}")
        return y

    return g


def integrate(
    f: Callable[[float], float],
    support: Tuple[float, float],
    tol: float = DEFAULT_TOL,
    rel_tol: float = 1e-12,
    max_subdiv: int = 200,
) -> QuadratureResult:
    """Adaptive quadrature (QUADPACK) of ``f`` over ``support``; not in
    ``__all__``, and it needs scipy, from the ``test`` extra.

    Parameters
    ----------
    f : callable
        Scalar integrand.  A NaN return raises IntegrandError rather than
        contaminating the result.
    support : (a, b)
        Integration interval; either endpoint may be infinite.
    tol, rel_tol : float
        Absolute / relative error targets.  The result is flagged
        non-converged when the reported error estimate exceeds
        ``tol + rel_tol * |value|``.
    max_subdiv : int
        Subdivision budget for the adaptive scheme.
    """
    from scipy.integrate import quad

    a, b = support
    if not a < b:
        raise DomainError(f"empty integration interval {support!r}")
    value, err, *rest = quad(
        _guarded(f),
        a,
        b,
        epsabs=tol,
        epsrel=max(rel_tol, 5e-14),
        limit=max_subdiv,
        full_output=1,
    )
    info = rest[0]
    clean = len(rest) == 1  # quad appends a message when QUADPACK signals trouble
    converged = clean and err <= tol + rel_tol * abs(value)
    return QuadratureResult(
        value=float(value),
        abs_error_estimate=float(err),
        evaluations=int(info["neval"]),
        converged=converged,
    )


def _de_nodes(lo: np.ndarray, hi: np.ndarray, scale: float, h: float) -> tuple:
    """Nodes and log weights of the double-exponential trapezoid rule with
    step h on (lo, hi), along a new last axis: tanh-sinh on a bounded
    interval, exp-sinh from the finite end of a half-line.  A node that
    rounds onto an end moves to the middle node, with weight 0."""
    lo, hi = lo[..., np.newaxis], hi[..., np.newaxis]
    bounded = bool(np.isfinite(lo).all() and np.isfinite(hi).all())
    left, right = _REACH[bounded]
    t = h * np.arange(-math.floor(left / h), math.floor(right / h) + 1)
    u = _HALF_PI * np.sinh(t)
    if bounded:
        half = 0.5 * (hi - lo)
        gap = half * np.exp(-np.abs(u)) / np.cosh(u)    # to the nearer end
        x = np.where(t < 0.0, lo + gap, hi - gap)
        log_w = np.log(half / np.cosh(u) ** 2)
    else:
        sign = 1.0 if np.isfinite(lo).all() else -1.0
        x = (lo if sign > 0.0 else hi) + sign * scale * np.exp(u)
        log_w = math.log(scale) + u
    log_w = log_w + np.log(h * _HALF_PI * np.cosh(t))
    inside = (x > lo) & (x < hi)
    return (np.where(inside, x, x[..., t == 0.0]),
            np.broadcast_to(np.where(inside, log_w, -np.inf), x.shape))


def de_rule(
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
    support: Tuple,
    center: Optional[float] = None,
    scale: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> QuadratureResult:
    """Reductions over one double-exponential node set, halving the step
    until consecutive steps agree.

    ``reduce(x, log_w)`` gets the nodes and their log weights, so that
    ``exp(log_w) @ g(x)`` approximates the integral of g, and returns an
    array (log-sum-exps, signed sums).  The steps run 1/2, 1/4, ...,
    2^-MAX_LEVELS until each value changes by at most ``tol * max(1,
    |value|)``; the last change is its error estimate.  A ``center`` inside
    (a, b) splits it in two, so a kink there (a mode) keeps the fast
    convergence; the real line needs one.  An infinite end needs ``scale``
    (``peak_width``).  Array ends, without a center, give a node set per
    pair of ends.  Overflow warnings are off inside ``reduce``, whose outer
    nodes lie far out; a NaN value raises IntegrandError.
    """
    lo, hi = (np.asarray(end, dtype=np.float64) for end in support)
    if not (np.all(lo < hi) and scale > 0.0):
        raise DomainError(f"empty interval {support!r} or scale {scale!r} <= 0")
    if center is not None and lo < center < hi:
        pieces = [(lo, np.float64(center)), (np.float64(center), hi)]
    elif np.isinf(lo).any() and np.isinf(hi).any():
        raise DomainError("the real line needs a center inside it")
    else:
        pieces = [(lo, hi)]
    values, evaluations = None, 0
    for level in range(1, MAX_LEVELS + 1):
        x, log_w = (np.concatenate(part, axis=-1) for part in zip(
            *(_de_nodes(a, b, scale, 2.0 ** -level) for a, b in pieces)))
        evaluations += x.size
        with np.errstate(over="ignore", invalid="ignore"):
            new = np.asarray(reduce(x, log_w), dtype=np.float64)
            errors = (np.full(new.shape, np.inf) if values is None
                      else np.where(new == values, 0.0, np.abs(new - values)))
        if np.isnan(new).any():
            raise IntegrandError("reduction over the quadrature nodes is NaN")
        values, converged = new, errors <= tol * np.maximum(1.0, np.abs(new))
        if converged.all():
            break
    return QuadratureResult(values, errors, evaluations, converged)


def peak_width(log_f: Callable[[np.ndarray], np.ndarray], mode: float,
               support: Tuple[float, float]) -> float:
    """How far from ``mode`` a unimodal log_f first falls 1 below its peak,
    within a factor 2 (a doubling grid, one array call), on the side where
    it falls slower: ``de_rule``'s node scale, within constants of the
    standard deviation for a log-concave density.  A log_f that never falls
    gives the half-width of a bounded support, else 1."""
    a, b = support
    xs = np.concatenate([mode - _DOUBLINGS, mode + _DOUBLINGS])
    xs = xs[(xs > a) & (xs < b)]
    with np.errstate(over="ignore"):
        vals = np.asarray(log_f(xs), dtype=np.float64)
    low = vals < np.nanmax(vals, initial=-np.inf) - 1.0
    drops = [np.abs(xs - mode)[low & side] for side in (xs < mode, xs > mode)]
    drops = [d.min() for d in drops if d.size]
    if drops:
        return float(max(drops))
    return 0.5 * (b - a) if math.isfinite(b - a) else 1.0


def log_integral(
    exponent: Callable[[np.ndarray], np.ndarray],
    support: Tuple[float, float],
    rel_tol: float = 1e-11,
) -> Tuple[float, float]:
    """(log of the integral of exp(exponent), its change over the last step
    halving) by ``de_rule``, for a unimodal exponent evaluated on arrays.

    The nodes are centred at the exponent's maximum and scaled by its
    ``peak_width``, and the integral is a log-sum-exp over them, so the log
    is accurate to about ``rel_tol`` whatever the size of the integral.
    """
    peak = unimodal_argmax(exponent, support)
    res = de_rule(lambda x, log_w: logsumexp(log_w + exponent(x), axis=-1),
                  support, center=peak,
                  scale=peak_width(exponent, peak, support), tol=rel_tol)
    if not np.isfinite(res.value):
        raise NumericsError("integral of exp(exponent) vanished; exponent too low")
    return float(res.value), float(res.abs_error_estimate)


def unimodal_argmax(log_f: Callable[[np.ndarray], np.ndarray],
                    support: Tuple[float, float]) -> float:
    """A maximizer of a unimodal log_f evaluated on arrays, within 1e-12
    relative.  One call on a scan (doublings from a finite end or both sides
    of 0, 63 points inside a bounded interval) brackets the peak; each
    further call puts 32 points across the bracket and shrinks it about
    16-fold.  NaN counts as -inf; floating-point warnings are off."""
    a, b = support
    if not a < b:
        raise DomainError(f"empty support {support!r}")
    if math.isinf(a) and math.isinf(b):
        xs = np.concatenate([-_DOUBLINGS[::-1], [0.0], _DOUBLINGS])
    elif math.isinf(b):
        xs = a + _DOUBLINGS
    elif math.isinf(a):
        xs = b - _DOUBLINGS[::-1]
    else:
        xs = a + (b - a) * np.arange(1.0, 64.0) / 64.0
    lo = a if math.isfinite(a) else xs[0] - 1.0
    hi = b if math.isfinite(b) else xs[-1] + 1.0
    while True:
        with np.errstate(all="ignore"):
            vals = np.asarray(log_f(xs), dtype=np.float64)
        k = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))
        lo = xs[k - 1] if k > 0 else lo
        hi = xs[k + 1] if k + 1 < xs.size else hi
        if hi - lo <= 1e-12 * (1.0 + abs(lo) + abs(hi)):
            return float(0.5 * (lo + hi))
        xs = np.linspace(lo, hi, 34)[1:-1]


def find_root_increasing(
    g: Callable[[float], float],
    target: float,
    bracket: Tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Solve g(x) = target for nondecreasing continuous g on a bracket.

    The bracket must satisfy g(lo) <= target <= g(hi); otherwise a
    BracketError is raised.  The returned x has |g(x) - target| <= tol
    whenever g is resolvable to that accuracy in double precision.  Not in
    ``__all__``, and it needs scipy, from the ``test`` extra.
    """
    lo, hi = bracket
    if not lo < hi:
        raise BracketError(f"invalid bracket {bracket!r}")
    glo, ghi = g(lo), g(hi)
    if math.isnan(glo) or math.isnan(ghi):
        raise BracketError("bracket endpoint evaluated to NaN")
    if abs(glo - target) <= tol:
        return lo
    if abs(ghi - target) <= tol:
        return hi
    if glo > target or ghi < target:
        raise BracketError(
            f"g({lo!r})={glo!r}, g({hi!r})={ghi!r} do not bracket target {target!r}"
        )
    from scipy.optimize import brentq

    xtol = 1e-13 * (1.0 + abs(lo) + abs(hi))
    x = float(brentq(lambda t: g(t) - target, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=200))
    if abs(g(x) - target) <= tol:
        return x
    # steep g near the root: polish by bisection on the residual sign
    if g(x) <= target:
        blo, bhi = x, hi
    else:
        blo, bhi = lo, x
    for _ in range(200):
        mid = 0.5 * (blo + bhi)
        if mid <= blo or mid >= bhi:
            break
        if abs(g(mid) - target) <= tol:
            return mid
        if g(mid) <= target:
            blo = mid
        else:
            bhi = mid
    return 0.5 * (blo + bhi)
