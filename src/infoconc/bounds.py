"""Closed-form concentration and moment bounds, and every verdict.

Every bound an experiment certifies is evaluated here, in one place, as a
``Bound``: its value, whether the arguments lie in its validity window, its
direction ("upper" caps the quantity from above, "lower" floors it from
below) and the quantity's trivial extreme (1 for a probability capped from
above, 0 for one floored from below, None where there is none).  Evaluation
outside the window is permitted (the curves are still defined) but flagged
so reports can exclude those points from certification.  A bound past the
largest double is ``inf``.  ``catalog()`` states these bounds and no other.

The estimators and the exact checks return values only; this module alone
decides which bounds apply and judges them.  ``order_p_variance_caps(p)`` is
the table of the order-p variance caps whose window holds p, each with the
statistic it bounds.  ``compare(estimate, bound)`` turns a confidence
interval and a ``Bound`` into one of three verdicts, ``exact_verdict`` an
exact margin and its tolerance:

HOLDS         the whole interval sits on the right side of the bound
VIOLATED      the whole interval sits on the wrong side
INCONCLUSIVE  the interval straddles the bound

A bound beyond its trivial value (probability above 1, or a lower bound
below 0) is tagged vacuous, and so is an infinite upper bound; a vacuous
lower bound or an infinite upper bound also forces INCONCLUSIVE, since such
a comparison certifies nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional

from .numerics import DomainError, trigamma

__all__ = [
    "Bound",
    "BoundVerdict",
    "HOLDS",
    "VIOLATED",
    "INCONCLUSIVE",
    "exp_tail_bound",
    "gaussian_tail_bound",
    "per_coordinate_tail_bound",
    "entropy_power_floor",
    "order_p_variance_caps",
    "mgf_bound_nd",
    "variance_cap_nd",
    "log_cp",
    "compare",
    "exact_verdict",
    "catalog",
]

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Bound:
    """A bound's value, window, direction and trivial value; see the module
    docstring."""

    value: float
    in_window: bool = True
    direction: str = "upper"
    trivial: Optional[float] = None

    def __post_init__(self) -> None:
        if self.direction not in ("upper", "lower"):
            raise DomainError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class BoundVerdict:
    verdict: str
    bound: float
    margin: float
    vacuous: bool
    in_window: bool


def exp_tail_bound(t: float) -> Bound:
    """Two-sided tail bound 2 e^(-t/16) for |h~ - h| >= t sqrt(n), any n."""
    if t < 0.0:
        raise DomainError(f"tail threshold must be nonnegative, got {t!r}")
    return Bound(2.0 * math.exp(-t / 16.0), trivial=1.0)


def gaussian_tail_bound(t: float, n: int) -> Bound:
    """Gaussian-form tail bound 3 e^(-t^2/16), valid for 0 <= t <= 2 sqrt(n)."""
    if t < 0.0:
        raise DomainError(f"tail threshold must be nonnegative, got {t!r}")
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n!r}")
    return Bound(3.0 * math.exp(-t * t / 16.0),
                 t <= 2.0 * math.sqrt(n) + 1e-12, trivial=1.0)


def per_coordinate_tail_bound(s: float, n: int) -> Bound:
    """Per-coordinate tail bound 3 e^(-s^2 n/16), valid for 0 <= s <= 2.

    Same curve as the gaussian form at t = s sqrt(n); stated separately
    because the asymptotic-equipartition checks work per coordinate.
    """
    if s < 0.0:
        raise DomainError(f"tail threshold must be nonnegative, got {s!r}")
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n!r}")
    return Bound(3.0 * math.exp(-s * s * n / 16.0), s <= 2.0 + 1e-12,
                 trivial=1.0)


def entropy_power_floor(s: float, n: int) -> Bound:
    """Floor 1 - 3 e^(-s^2 n/16) on the probability that f(X)^(-2/n) lies
    within e^(+-2s) of the entropy power, valid for 0 <= s <= 2: the
    complement of the per-coordinate tail."""
    tail = per_coordinate_tail_bound(s, n)
    return Bound(1.0 - tail.value, tail.in_window, "lower", 0.0)


def log_cp(p: float) -> float:
    """log C_p with C_p = (p+1)^(p+1) (p-1)^(p-1) / p^(2p), for p > 1."""
    if p <= 1.0:
        raise DomainError(f"log_cp requires p > 1, got {p!r}")
    return (p + 1.0) * math.log(p + 1.0) + (p - 1.0) * math.log(p - 1.0) - 2.0 * p * math.log(p)


def order_p_variance_caps(p: float) -> dict:
    """The variance caps of an order-p variable xi whose window holds p,
    p >= 1, as ``{name: (statistic, cap)}`` in the order ratio, cp, trigamma,
    log_simple.  The statistic is ``"ratio"`` (Var(xi)/E[xi]^2) or
    ``"var_log"`` (Var(log xi)); cp and log_simple need p > 1 and are absent
    at p = 1."""
    if p < 1.0:
        raise DomainError(f"variance caps require p >= 1, got {p!r}")
    caps = {"ratio": ("ratio", 1.0 / p)}
    if p > 1.0:
        caps["cp"] = ("ratio", math.expm1(log_cp(p)))
    caps["trigamma"] = ("var_log", trigamma(p))
    if p > 1.0:
        caps["log_simple"] = ("var_log", 1.0 / (p - 1.0))
    return caps


def mgf_bound_nd(alpha: float, n: int) -> Bound:
    """Dimensional bound 3 e^(4 alpha^2) on E exp((alpha/sqrt(n)) |h~ - h|),
    valid for 0 <= alpha <= sqrt(n)/4."""
    if alpha < 0.0:
        raise DomainError(f"alpha must be nonnegative, got {alpha!r}")
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n!r}")
    try:
        value = 3.0 * math.exp(4.0 * alpha * alpha)
    except OverflowError:
        value = math.inf
    return Bound(value, alpha <= 0.25 * math.sqrt(n) + 1e-12)


def variance_cap_nd(n: int) -> Bound:
    """Reference cap on Var(h~) derived from the dimensional MGF bound.

    With beta = alpha/sqrt(n) and A = 3 e^(4 alpha^2) at alpha =
    min(1/2, sqrt(n)/4), the pointwise inequality y^2 <= 4/(e beta)^2 e^(beta y)
    for y >= 0 gives E (h~-h)^2 <= 4 A / (e beta)^2; equals (48/e) n for n >= 4.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n!r}")
    alpha = min(0.5, 0.25 * math.sqrt(n))
    beta = alpha / math.sqrt(n)
    a = 3.0 * math.exp(4.0 * alpha * alpha)
    return Bound(4.0 * a / (math.e * beta) ** 2)


def compare(estimate, bound: Bound) -> BoundVerdict:
    """Turn an empirical confidence interval into a verdict against a bound.

    ``estimate`` has ci_low / ci_high attributes (e.g. McEstimate).  The
    bound's direction says which side of it the interval must sit on, and
    its trivial value which bounds are vacuous; its window is carried into
    the verdict as it is.
    """
    lo, hi = float(estimate.ci_low), float(estimate.ci_high)
    b, trivial = bound.value, bound.trivial
    if bound.direction == "upper":
        vacuous = b == math.inf or (trivial is not None and b > trivial)
        if b == math.inf:
            verdict = INCONCLUSIVE
        elif hi <= b:
            verdict = HOLDS
        elif lo > b:
            verdict = VIOLATED
        else:
            verdict = INCONCLUSIVE
        margin = b - hi
    else:
        vacuous = trivial is not None and b < trivial
        if vacuous:
            verdict = INCONCLUSIVE
        elif lo >= b:
            verdict = HOLDS
        elif hi < b:
            verdict = VIOLATED
        else:
            verdict = INCONCLUSIVE
        margin = lo - b
    return BoundVerdict(verdict, float(b), float(margin), vacuous,
                        bound.in_window)


def exact_verdict(margin: float, tol: float, converged: bool) -> str:
    """An exact margin's verdict: HOLDS down to -tol, VIOLATED below, and
    INCONCLUSIVE when its quadrature did not converge."""
    if not converged:
        return INCONCLUSIVE
    return HOLDS if margin >= -tol else VIOLATED


@dataclass(frozen=True)
class BoundInfo:
    name: str
    formula: str
    validity: str
    statement: str

    def as_dict(self) -> dict:
        return asdict(self)


_CATALOG = [
    BoundInfo(
        "information_tail_exp",
        "2*exp(-t/16)",
        "t >= 0, any dimension n",
        "two-sided tail of the normalized information deviation: P{|h~ - h| >= t*sqrt(n)} for log-concave X",
    ),
    BoundInfo(
        "information_tail_gaussian",
        "3*exp(-t^2/16)",
        "0 <= t <= 2*sqrt(n)",
        "gaussian-form tail of the normalized information deviation, sharper than the exponential form beyond the crossover",
    ),
    BoundInfo(
        "per_coordinate_tail",
        "3*exp(-s^2*n/16)",
        "0 <= s <= 2",
        "tail of the per-coordinate information deviation: P{|h~ - h| >= s*n}; drives the equipartition checks",
    ),
    BoundInfo(
        "order_p_var_ratio",
        "Var(xi) <= (1/p)*E[xi]^2",
        "order p >= 1",
        "variance-to-mean-square cap for order-p variables; tight for the gamma family",
    ),
    BoundInfo(
        "order_p_var_cp",
        "Var(xi) <= (C_p - 1)*E[xi]^2, C_p = (p+1)^(p+1)*(p-1)^(p-1)/p^(2*p)",
        "order p > 1",
        "variance cap from log-concavity of the normalized moment curve at the triple (p+1, p, p-1)",
    ),
    BoundInfo(
        "order_p_var_log_trigamma",
        "Var(log xi) <= psi1(p)",
        "order p >= 1",
        "variance of the logarithm capped by the trigamma function; equality for gamma(p)",
    ),
    BoundInfo(
        "order_p_var_log_simple",
        "Var(log xi) <= 1/(p-1)",
        "order p > 1",
        "coarse variance cap for the logarithm of an order-p variable",
    ),
    BoundInfo(
        "information_mgf_nd",
        "3*exp(4*alpha^2)",
        "0 <= alpha <= sqrt(n)/4",
        "dimensional moment bound on E exp((alpha/sqrt(n))*|h~ - h|) for log-concave X in R^n",
    ),
    BoundInfo(
        "entropy_power_band",
        "P{f(X)^(-2/n) within e^(+-2s) of N(X)} >= 1 - 3*exp(-s^2*n/16)",
        "0 <= s <= 2",
        "effective-support band for the density value in terms of the entropy power N(X) = exp(2 h(X)/n)",
    ),
    BoundInfo(
        "information_variance_nd",
        "Var(h~) <= (48/e)*n",
        "n >= 4 (smaller n: 4*A/(e*beta)^2 at alpha = sqrt(n)/4)",
        "reference cap derived here from the dimensional MGF bound (information_mgf_nd); the sharp bound is Var(h~) <= n, "
        "with equality for products of exponentials (Nguyen 2014; Wang 2014; Fradelizi-Madiman-Wang 2016), so runs report the ratio per coordinate",
    ),
]


def catalog() -> list:
    """Metadata (name, formula, validity, statement) of every bound an
    experiment certifies: the union of the ``bounds`` sets in
    ``cli._EXPERIMENTS``."""
    return list(_CATALOG)
