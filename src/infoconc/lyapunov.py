"""Moment curves of nonnegative log-concave variables and their shape.

For a nonnegative random variable eta with log-concave density, three
curves in the moment order p are tracked:

    raw         L(p) = log E eta^p            (convex in p, classically)
    normalized  L(p) - log Gamma(p+1)         (concave: reverse Lyapunov)
    hat         L(p) - p log p                (concave: reverse Lyapunov)

The normalized curve is identically zero for the standard exponential,
which is the extremal density for both reversed inequalities.  Concavity
of the normalized and hat curves at the triple (p+1, p, p-1), applied to
the tilted measure of an order-p density, is exactly what produces the
variance caps Var(xi) <= (1/p) E[xi]^2 and Var(xi) <= (C_p - 1) E[xi]^2;
``order_p_variance_check`` computes the statistics those caps bound directly
by quadrature, so the two routes stay independent.  The checks here return
values and chord defects; ``bounds`` holds the caps and the verdicts.

All moments of a density are reductions over one node set of
``numerics.de_rule``: order p is a log-sum-exp of its nodes' log masses plus
p log x, so orders up to P_MAX = 40 stay far from overflow, and each value
carries the rule's ``converged`` flag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Density1D, quantile_density
from .numerics import (DomainError, QuadratureResult, check_grid, de_rule,
                       log_gamma, logsumexp, peak_width)

__all__ = [
    "P_MAX",
    "MomentCurve",
    "ConvexityReport",
    "OrderPVarianceReport",
    "moment_curve",
    "check_convexity_direction",
    "order_p_variance_check",
    "quantile_density_concavity",
]

# Largest moment order supported.  Gamma(41) ~ 3.3e49 is still comfortable
# in log space; past this the quadrature peaks get needlessly extreme.
P_MAX = 40.0

_KINDS = ("raw", "normalized", "hat")

# How far below zero a margin may fall and pass: moment-curve chords and
# variance caps; quantile-density chords.
_TOL = 1e-7
_QUANTILE_DENSITY_TOL = 1e-9


@dataclass(frozen=True)
class MomentCurve:
    """``quad_errors[i]`` is the change of ``log_values[i]`` over the last
    step halving and ``converged[i]`` whether it met the rule's tolerance."""

    density_name: str
    kind: str
    grid: np.ndarray
    log_values: np.ndarray
    quad_errors: np.ndarray
    converged: np.ndarray


def _check_orders(grid: Sequence[float]) -> np.ndarray:
    arr = check_grid(grid, "order grid")
    if arr[0] <= 0.0:
        raise DomainError("moment orders must be positive")
    if arr[-1] > P_MAX:
        raise DomainError(f"moment orders above {P_MAX} are not supported")
    return arr


def _log_x_rule(density: Density1D, reduce) -> QuadratureResult:
    """``reduce(log_w + log f(x), log x)`` over the nodes of the density's
    support, centred at its mode and scaled by its peak width."""
    return de_rule(
        lambda x, log_w: reduce(log_w + density.log_pdf(x), np.log(x)),
        density.support, center=density.mode,
        scale=peak_width(density.log_pdf, density.mode, density.support))


def moment_curve(density: Density1D, kind: str,
                 grid: Sequence[float]) -> MomentCurve:
    """Log-moment curve of a nonnegative density on a grid of orders."""
    if kind not in _KINDS:
        raise DomainError(f"unknown curve kind {kind!r}")
    lo, hi = density.support
    if lo < 0.0:
        raise DomainError(
            f"moment curves need a nonnegative variable, support starts at {lo!r}")
    arr = _check_orders(grid)
    res = _log_x_rule(density, lambda log_m, log_x: logsumexp(
        log_m + arr[:, np.newaxis] * log_x, axis=-1))
    log_vals = res.value.copy()
    for i, p in enumerate(arr):
        if kind == "normalized":
            log_vals[i] -= log_gamma(p + 1.0)
        elif kind == "hat":
            log_vals[i] -= p * math.log(p)
    return MomentCurve(density_name=density.name, kind=kind, grid=arr,
                       log_values=log_vals, quad_errors=res.abs_error_estimate,
                       converged=res.converged)


@dataclass(frozen=True)
class ConvexityReport:
    """Midpoint chord test of a sampled curve.  ``defects[i]`` belongs to
    ``grid[i + 1]``, signed so that below ``-tol`` fails ``direction``."""

    name: str
    direction: str
    ok: bool
    worst_defect: float
    worst_at: float
    tol: float
    grid: np.ndarray
    values: np.ndarray
    defects: np.ndarray


def _midpoint_defects(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Chord value minus curve value at each interior grid point.

    Positive defects mean the curve sits below its chords (convex side).
    """
    w = (xs[2:] - xs[1:-1]) / (xs[2:] - xs[:-2])
    chord = w * ys[:-2] + (1.0 - w) * ys[2:]
    return chord - ys[1:-1]


def check_convexity_direction(curve: MomentCurve,
                              direction: str) -> ConvexityReport:
    """Check every interior grid point against the chord of its neighbors."""
    if direction not in ("convex", "concave"):
        raise DomainError(f"unknown direction {direction!r}")
    if curve.grid.size < 3:
        raise DomainError("need at least three grid points")
    return _convexity_report(f"{curve.density_name}:{curve.kind}", direction,
                             curve.grid, curve.log_values, _TOL)


def _convexity_report(name: str, direction: str, xs: np.ndarray,
                      ys: np.ndarray, tol: float) -> ConvexityReport:
    defects = _midpoint_defects(xs, ys)
    signed = defects if direction == "convex" else -defects
    worst = int(np.argmin(signed))
    return ConvexityReport(
        name=name,
        direction=direction,
        ok=bool(signed[worst] >= -tol),
        worst_defect=float(signed[worst]),
        worst_at=float(xs[worst + 1]),
        tol=tol,
        grid=xs,
        values=ys,
        defects=signed,
    )


@dataclass(frozen=True)
class OrderPVarianceReport:
    """``tol`` is how far above a cap the statistic may sit and pass;
    ``converged`` holds the rule's flags of E xi, E xi^2, E log xi and
    E log^2 xi, in that order."""

    density_name: str
    p: float
    mean: float
    variance: float
    ratio: float
    mean_log: float
    var_log: float
    tol: float
    converged: np.ndarray


def order_p_variance_check(density: Density1D) -> OrderPVarianceReport:
    """The statistics an order-p density's variance caps bound, Var(xi)/E[xi]^2
    (``ratio``) and Var(log xi) (``var_log``), from four quadrature moments
    over one node set, so equality cases (gamma(p) for the ratio and trigamma
    caps) land on the boundary within quadrature error."""
    p = density.order_p
    if p is None:
        raise DomainError(f"density {density.name!r} has no declared order")

    def moments(log_m, log_x):
        mass = np.exp(log_m)
        return np.array([logsumexp(log_m + log_x), logsumexp(log_m + 2.0 * log_x),
                         mass @ log_x, mass @ (log_x * log_x)])

    res = _log_x_rule(density, moments)
    log_mean, log_second, mean_log, second_log = map(float, res.value)
    mean, second = math.exp(log_mean), math.exp(log_second)
    variance = second - mean * mean
    return OrderPVarianceReport(
        density_name=density.name, p=p, mean=mean, variance=variance,
        ratio=variance / (mean * mean), mean_log=mean_log,
        var_log=second_log - mean_log * mean_log, tol=_TOL,
        converged=res.converged)


def quantile_density_concavity(density: Density1D,
                               ts: Sequence[float]) -> ConvexityReport:
    """Concavity of I(t) = f(F^-1(t)) on a grid of probability levels.

    This function is concave on (0, 1) precisely for log-concave f, so the
    check doubles as a structural test of any density added to the zoo.
    """
    arr = check_grid(ts, "probability levels", min_size=3)
    if arr[0] <= 0.0 or arr[-1] >= 1.0:
        raise DomainError("probability levels must lie strictly inside (0, 1)")
    vals = quantile_density(density, arr)
    return _convexity_report(f"{density.name}:quantile_density", "concave",
                             arr, vals, _QUANTILE_DENSITY_TOL)
