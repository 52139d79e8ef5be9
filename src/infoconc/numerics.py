"""Shared numerical kernels: special functions, quadrature, root finding.

Everything downstream (densities, moment curves, entropy integrals) funnels
through this module so that accuracy assumptions live in one place.  The
heavy lifting is delegated to the C implementations in ``math`` and scipy;
this layer pins down the error contracts and failure modes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import polygamma

__all__ = [
    "NumericsError",
    "DomainError",
    "BracketError",
    "IntegrandError",
    "QuadratureResult",
    "DEFAULT_TOL",
    "check_grid",
    "log_gamma",
    "trigamma",
    "integrate",
    "log_integral",
    "find_root_increasing",
    "golden_section_min",
    "unimodal_argmax",
]

# Default absolute tolerance for quadrature; downstream equality checks
# compare at 1e-8, two orders looser.
DEFAULT_TOL = 1e-10

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Outcome of one adaptive integration.

    ``converged`` is False when the error estimate misses the requested
    tolerance after the subdivision budget; the value is still reported so
    callers can decide whether the residual accuracy suffices.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


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
    style implementation underneath).
    """
    if math.isnan(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def trigamma(p: float) -> float:
    """Second derivative of log Gamma, i.e. sum_{k>=0} 1/(p+k)^2, for p > 0."""
    if math.isnan(p) or p <= 0.0:
        raise DomainError(f"trigamma requires p > 0, got {p!r}")
    return float(polygamma(1, p))


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
    """Adaptive quadrature of ``f`` over ``support``.

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


def log_integral(
    exponent: Callable[[float], float],
    support: Tuple[float, float],
    rel_tol: float = 1e-11,
) -> Tuple[float, float]:
    """log of integral of exp(exponent(x)) dx, computed peak-shifted.

    The exponent is assumed unimodal (concave exponents qualify).  Its
    maximum M is located first and exp(exponent - M) is integrated, which
    keeps the integrand in [0, 1] and the returned log accurate to roughly
    ``rel_tol`` regardless of the magnitude of the integral.

    Returns
    -------
    (log_value, log_abs_error) : tuple of float
        ``log_abs_error`` bounds the absolute error of ``log_value``.
    """
    shift = exponent(unimodal_argmax(exponent, support))
    res = integrate(
        lambda x: math.exp(min(exponent(x) - shift, 50.0)),
        support,
        tol=1e-300,
        rel_tol=rel_tol,
    )
    if res.value <= 0.0:
        raise NumericsError("integral of exp(exponent) vanished; exponent too low")
    return shift + math.log(res.value), res.abs_error_estimate / res.value


def unimodal_argmax(f: Callable[[float], float],
                    support: Tuple[float, float]) -> float:
    """A maximizer of a unimodal f: a coarse scan (geometric towards infinite
    ends, 63 points inside a bounded interval; errors and NaN count as -inf)
    brackets the peak, then golden-section search refines it."""
    a, b = support
    if math.isinf(b) and not math.isinf(a):
        xs = [a + 2.0 ** k for k in range(-40, 41)]
    elif math.isinf(a) and math.isinf(b):
        xs = [-(2.0 ** k) for k in range(40, -41, -1)] + [0.0] + [2.0 ** k for k in range(-40, 41)]
    elif math.isinf(a):
        xs = [b - 2.0 ** k for k in range(40, -41, -1)]
    else:
        xs = [a + (b - a) * i / 64.0 for i in range(1, 64)]
    vals = []
    for x in xs:
        try:
            v = f(x)
        except (OverflowError, ValueError):
            v = -math.inf
        vals.append(v if not math.isnan(v) else -math.inf)
    k = max(range(len(xs)), key=vals.__getitem__)
    lo = xs[k - 1] if k > 0 else (a if not math.isinf(a) else xs[0] - 1.0)
    hi = xs[k + 1] if k + 1 < len(xs) else (b if not math.isinf(b) else xs[-1] + 1.0)
    return golden_section_min(lambda x: -f(x), lo, hi)


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Golden-section minimizer for a unimodal function on [lo, hi]."""
    if not lo < hi:
        raise DomainError(f"invalid golden-section interval [{lo!r}, {hi!r}]")
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if hi - lo <= tol * (1.0 + abs(lo) + abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
    return (lo + hi) / 2.0


def find_root_increasing(
    g: Callable[[float], float],
    target: float,
    bracket: Tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Solve g(x) = target for nondecreasing continuous g on a bracket.

    The bracket must satisfy g(lo) <= target <= g(hi); otherwise a
    BracketError is raised.  The returned x has |g(x) - target| <= tol
    whenever g is resolvable to that accuracy in double precision.
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
