"""Monte Carlo estimation of information-content statistics.

The central object is the information deviation of a sample X from a model
with density f and entropy h:

    dev(X) = -log f(X) - h

All experiments reduce to statistics of a large batch of such deviations:
tail probabilities at scaled thresholds, exponential moments, coverage of
the entropy-typical set, and the variance.  Sampling runs on
``RngStream.run_blocks``, the one block schedule of the package, in fixed
blocks of ``BLOCK_SIZE`` draws, each sourced from its own keyed SFC64
generator, so the result is byte-identical for any worker count.
Each block is one ``ModelND.draw_deviations`` call: the model draws its own
deviations, the part with a Gamma law directly and the rest in pieces, so
no block of points is held whole; ``aep``'s trajectories draw theirs the
same way.

Proportions get Wilson score intervals, which behave sensibly at zero
observed exceedances; means get the usual normal approximation.  Exponential
moments are accumulated in log space so large deviations cannot overflow:
both moments of one alpha come from a single exp, taken in place in one
reused buffer.  Each reduction holds at most one float64 scratch array of
the batch's length, and runs its ufuncs with ``out=`` into it; every count
of |dev| >= x, here and in ``aep``'s exceedance table, is one boolean mask
(``_count_exceedances``).  These are estimates only; ``bounds`` decides
windows, vacuity and verdicts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .distributions import _MAX_COUNT, ModelND, RngStream
from .numerics import DomainError, NumericsError, check_grid, normal_quantile

__all__ = [
    "BLOCK_SIZE",
    "McEstimate",
    "InfoSampleBatch",
    "TailRow",
    "MgfRow",
    "sample_information",
    "empirical_tail",
    "empirical_mgf",
    "entropy_power_band",
    "deviation_variance",
    "deviation_mean",
]

# Draws per RNG block.  Fixed by design: changing it changes which block's
# generator produces which sample, hence the byte-level output.
BLOCK_SIZE = 65536

DEFAULT_CONFIDENCE = 0.999


@functools.lru_cache(maxsize=16)  # a run asks for one level, row after row
def _z_value(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must lie in (0, 1), got {confidence!r}")
    # the tail 0.5 * (1 - c) is exact, where 0.5 * (1 + c) would round it
    return float(normal_quantile(0.5 * confidence, 0.5 * (1.0 - confidence)))


@dataclass(frozen=True)
class McEstimate:
    """A point estimate with its standard error and confidence interval."""

    value: float
    std_error: float
    ci_low: float
    ci_high: float

    @staticmethod
    def from_proportion(successes: int, m: int,
                        confidence: float = DEFAULT_CONFIDENCE) -> "McEstimate":
        """Wilson score interval for a binomial proportion."""
        if m <= 0:
            raise DomainError(f"sample count must be positive, got {m!r}")
        if not 0 <= successes <= m:
            raise DomainError(f"successes {successes!r} outside [0, {m}]")
        z = _z_value(confidence)
        phat = successes / m
        denom = 1.0 + z * z / m
        center = (phat + z * z / (2.0 * m)) / denom
        half = z * math.sqrt(phat * (1.0 - phat) / m + z * z / (4.0 * m * m)) / denom
        # at the extremes the Wilson endpoint is exactly the trivial one;
        # snap it there rather than keep the last-ulp residue
        lo = 0.0 if successes == 0 else max(0.0, center - half)
        hi = 1.0 if successes == m else min(1.0, center + half)
        return McEstimate(phat, math.sqrt(phat * (1.0 - phat) / m), lo, hi)

    @staticmethod
    def from_mean_se(mean: float, std_error: float,
                     confidence: float = DEFAULT_CONFIDENCE) -> "McEstimate":
        z = _z_value(confidence)
        return McEstimate(
            value=float(mean),
            std_error=float(std_error),
            ci_low=float(mean - z * std_error),
            ci_high=float(mean + z * std_error),
        )


@dataclass(frozen=True)
class InfoSampleBatch:
    """A batch of information deviations of one model."""

    dim: int
    m: int
    deviations: np.ndarray


def _check_count(count: int, name: str, least: int = 1) -> None:
    """Refuse a count below ``least`` or past ``distributions._MAX_COUNT``."""
    if not least <= count <= _MAX_COUNT:
        raise DomainError(f"{name} must lie in [{least}, {_MAX_COUNT}], got {count!r}")


def sample_information(model: ModelND, m: int, rng: RngStream,
                       workers: int = 1) -> InfoSampleBatch:
    """Draw m samples and return their information deviations.

    Work is partitioned by ``rng.run_blocks`` into fixed blocks of
    BLOCK_SIZE draws, so the deviations array is identical for any
    ``workers`` value; each block is one ``model.draw_deviations`` call from
    its own generator.  No more workers start than there are blocks.  A
    count m outside [1, _MAX_COUNT] raises DomainError, and a deviation that
    is NaN or infinite, as from draws that overflow, NumericsError: no tail
    count or moment of it means anything.
    """
    _check_count(m, "sample count")
    out = np.empty(m, dtype=float)

    def run_block(gen: np.random.Generator, lo: int, hi: int) -> None:
        # a NaN or infinity is reported once, below, not warned of per block
        with np.errstate(all="ignore"):
            model.draw_deviations(gen, out[lo:hi])

    rng.run_blocks(m, BLOCK_SIZE, run_block, min(workers, -(-m // BLOCK_SIZE)))
    if not np.isfinite(out).all():
        raise NumericsError("information deviations are not all finite; "
                            "check the model parameters")
    return InfoSampleBatch(dim=model.dim, m=m, deviations=out)


@dataclass(frozen=True)
class TailRow:
    t: float
    threshold_nats: float
    exceedances: int
    estimate: McEstimate


def _count_exceedances(d: np.ndarray, x: float) -> int:
    """How many entries of d have |d| >= x, for x >= 0: d >= x plus
    d <= -x, both into one boolean mask, with no |d| copy (at x = 0,
    every entry)."""
    if x == 0.0:
        return d.size
    mask = np.greater_equal(d, x)
    above = np.count_nonzero(mask)
    return int(above + np.count_nonzero(np.less_equal(d, -x, out=mask)))


def empirical_tail(batch: InfoSampleBatch, thresholds: Sequence[float],
                   scaling: str = "sqrt_n",
                   confidence: float = DEFAULT_CONFIDENCE) -> list:
    """Wilson estimates of P{|dev| >= scaled threshold} on a grid.

    scaling "sqrt_n" measures thresholds in units of sqrt(n) (the
    concentration normalization); "per_coordinate" in units of n.
    """
    ts = check_grid(thresholds, "threshold grid")
    if ts[0] < 0.0:
        raise DomainError("threshold grid must be nonnegative")
    if scaling == "sqrt_n":
        unit = math.sqrt(batch.dim)
    elif scaling == "per_coordinate":
        unit = float(batch.dim)
    else:
        raise DomainError(f"unknown scaling {scaling!r}")
    rows = []
    for t in ts:
        thr = t * unit
        count = _count_exceedances(batch.deviations, thr)
        rows.append(TailRow(
            t=float(t),
            threshold_nats=float(thr),
            exceedances=count,
            estimate=McEstimate.from_proportion(count, batch.m, confidence),
        ))
    return rows


@dataclass(frozen=True)
class MgfRow:
    alpha: float
    estimate: McEstimate


def _safe_exp(x: float) -> float:
    # math.exp raises OverflowError past ~709.78; an infinite estimate is
    # the honest answer there
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _floored(est: McEstimate, floor: float) -> McEstimate:
    """The interval raised to the estimand's floor: no end below it."""
    return replace(est, ci_low=max(est.ci_low, floor),
                   ci_high=max(est.ci_high, floor))


def empirical_mgf(batch: InfoSampleBatch, alphas: Sequence[float],
                  form: str = "two_sided_abs",
                  confidence: float = DEFAULT_CONFIDENCE) -> list:
    """Estimates of E exp(alpha |dev|/sqrt(n)) (or the one-sided version).

    Accumulation happens in log space.  For each alpha one reused buffer
    becomes e = exp(alpha y - peak) in place, with peak the largest
    exponent, so a single exp gives both empirical moments of exp(alpha y):
    log(sum e) and, once e is squared in place, log(sum e^2), shifted by
    peak and 2 peak.  No overflow occurs even when alpha y is large; a mean
    past the largest double is ``inf``, with the interval [0, inf].  A
    finite interval is raised to at least 1: e^(alpha |y|) >= 1 pointwise,
    and E e^(alpha y) >= 1 by Jensen since E dev = 0.  A batch of fewer
    than two draws has no standard error and raises DomainError.
    """
    if batch.m < 2:
        raise DomainError("need at least two draws for an MGF estimate")
    arr = check_grid(alphas, "alpha grid")
    d = batch.deviations
    hi, lo = float(d.max()), float(d.min())
    if form == "two_sided_abs":
        if arr[0] < 0.0:
            raise DomainError("two-sided form needs nonnegative alpha")
        hi = max(hi, -lo)
    elif form != "one_sided":
        raise DomainError(f"unknown form {form!r}")
    scale = 1.0 / math.sqrt(batch.dim)
    log_m = math.log(batch.m)
    e = np.empty(batch.m)
    rows = []
    for alpha in arr:
        if alpha == 0.0:
            est = McEstimate.from_mean_se(1.0, 0.0, confidence)
        else:
            # y = |dev|/sqrt(n) or dev/sqrt(n) with alpha folded into the
            # scale; rounding is monotone, so peak is the largest exponent
            # exactly and e peaks at 1
            c = alpha * scale
            peak = c * (hi if c > 0.0 else lo)
            np.multiply(d, c, out=e)
            if form == "two_sided_abs":
                np.abs(e, out=e)
            np.subtract(e, peak, out=e)
            np.exp(e, out=e)
            # sums, not a BLAS dot, whose rounding follows its thread count
            l1 = peak + math.log(float(e.sum())) - log_m
            np.square(e, out=e)
            l2 = 2.0 * peak + math.log(float(e.sum())) - log_m
            mean = _safe_exp(l1)
            if math.isfinite(mean):
                # sample variance correction m/(m-1) is negligible at these
                # m; past an overflowing mean^2 the mean is factored out,
                # and l2 - 2 l1 <= log m keeps the excess finite
                excess = max(0.0, math.expm1(l2 - 2.0 * l1))
                var = excess * _safe_exp(2.0 * l1)
                se = (math.sqrt(var / batch.m) if math.isfinite(var)
                      else mean * math.sqrt(excess / batch.m))
                est = _floored(McEstimate.from_mean_se(mean, se, confidence), 1.0)
            else:
                # overflowed estimate: no statistical claim either way
                est = McEstimate(math.inf, math.inf, 0.0, math.inf)
        rows.append(MgfRow(alpha=float(alpha), estimate=est))
    return rows


def entropy_power_band(batch: InfoSampleBatch, s: float = 1.0,
                       confidence: float = DEFAULT_CONFIDENCE) -> McEstimate:
    """Coverage of the band f(X)^(-2/n) within e^(+-2s) of the entropy power.

    The band is exactly the event |dev| < s n, so its probability is floored
    by 1 - 3 e^(-s^2 n / 16) (``bounds.entropy_power_floor``) inside the
    window s <= 2.
    """
    if s <= 0.0:
        raise DomainError(f"band half-width must be positive, got {s!r}")
    inside = batch.m - _count_exceedances(batch.deviations, s * batch.dim)
    return McEstimate.from_proportion(inside, batch.m, confidence)


def deviation_variance(batch: InfoSampleBatch,
                       confidence: float = DEFAULT_CONFIDENCE) -> McEstimate:
    """Sample variance of the deviations with a moment-based interval.

    The deviations are centered once into one buffer and squared there in
    place twice: s^2 and mu4 come from the sums of the squares and of the
    fourth powers.  The standard error uses Var(s^2) ~ (mu4 - sigma^4)/m,
    adequate at the batch sizes used here; the interval is raised to at
    least 0.
    """
    m = batch.m
    if m < 2:
        raise DomainError("need at least two draws for a variance estimate")
    sq = np.subtract(batch.deviations, batch.deviations.mean())
    s2 = float(np.square(sq, out=sq).sum()) / (m - 1)
    mu4 = float(np.square(sq, out=sq).sum()) / m
    se = math.sqrt(max(0.0, mu4 - s2 * s2) / m)
    return _floored(McEstimate.from_mean_se(s2, se, confidence), 0.0)


def deviation_mean(batch: InfoSampleBatch,
                   confidence: float = DEFAULT_CONFIDENCE) -> McEstimate:
    """Sample mean of the deviations (zero in expectation by definition),
    with a normal-approximation interval.

    The sample variance is (d . d - m mean^2)/(m - 1), with no centered
    copy: the mean is within a few standard errors of 0, so the difference
    loses no significant digits.
    """
    d, m = batch.deviations, batch.m
    if m < 2:
        raise DomainError("need at least two draws for a mean estimate")
    mean = float(d.mean())
    # einsum, not a BLAS dot, whose rounding follows its thread count
    sum_sq = float(np.einsum("i,i->", d, d))
    s2 = max(0.0, sum_sq - m * mean * mean) / (m - 1)
    return McEstimate.from_mean_se(mean, math.sqrt(s2 / m), confidence)
