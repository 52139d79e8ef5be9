"""Log-concave distribution zoo and n-dimensional sample models.

Two layers live here.  ``Density1D`` wraps a one-dimensional log-concave
density together with everything the experiments need from it: normalized
log-density, exact sampler, differential entropy in nats, quantiles, and
the optional order-p factorization f(x) = x^(p-1) g(x).  ``ModelND`` builds
n-dimensional models from those pieces: independent products, their affine
pushforwards, and uniform balls.  A product is its column runs, (density,
copies) pairs, so it is built in O(runs) at any dimension.  The standard
normal is one run of ``gaussian1d`` copies, a Gaussian with a mean the
product of its marginals, and one with a covariance factor the
``AffineMap`` image of the standard normal.

Sampling is exact everywhere.  ``Density1D`` applies a family's support
(log_pdf is -inf outside) and draws by its quantile unless the family
brings its own sampler: numpy's ``standard_normal`` for ``gaussian1d``,
Marsaglia and Tsang's squeeze method (numpy's ``standard_gamma``) for
gamma(p) with p > 1, and for custom densities from ``from_log_density``
acceptance-rejection under the universal envelope for log-concave densities
(flat cap of height f(mode) with exponential tails, anchored at the mode).
Randomness comes from one SFC64 generator per block, keyed by (seed,
stream_id, block).  ``RngStream.fill`` is the one block schedule of the
package: it hands each block its own rows of an output array and its own
generator, on a thread pool when more than one worker runs, so any
partition of the work across workers reproduces the same values, and it
alone checks that they are finite.

The n-dimensional models work on row chunks of points: a product draws
and evaluates each run once per chunk, its columns filled row by row, and
an affine matrix is inverted once, at construction, so each solve is one
matrix product.  A density is built from its family's arguments and holds
no spec; a report records the spec it was read from.  No family imports
scipy: gamma's entropy takes ``numerics.digamma``, the quantiles of
``gaussian1d`` and ``half_normal`` ``numerics.normal_quantile``, and
gamma's quantile Newton steps on ``numerics.log_gamma_tail`` from the
Wilson-Hilferty start, in the one Newton loop, ``_newton_quantile``, that a
custom density's quantile takes from its node table.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .numerics import (
    DomainError,
    NumericsError,
    de_rule,
    digamma,
    log_gamma,
    log_gamma_tail,
    logsumexp,
    normal_quantile,
    peak_width,
    unimodal_argmax,
)

__all__ = [
    "ParameterError",
    "RngStream",
    "Density1D",
    "ModelND",
    "Product",
    "AffineMap",
    "BallUniform",
    "exponential",
    "gamma",
    "gaussian1d",
    "laplace",
    "uniform",
    "half_normal",
    "from_log_density",
    "quantile_density",
    "spec_reader",
    "density_from_spec",
    "model_from_spec",
]

LOG_2PI = math.log(2.0 * math.pi)

_U64 = 2**64


class ParameterError(ValueError):
    """Invalid family parameters or malformed model specification."""


def _finite(value, what: str) -> float:
    """value as a float; a bool, a string (JSON "2" is text, not the number
    2), NaN or infinity is a ParameterError naming it."""
    if isinstance(value, (bool, str)):
        raise ParameterError(f"{what} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{what} must be finite, got {value!r}")
    return value


def _finite_array(value, what: str) -> np.ndarray:
    """value as a float array; a bool or string entry, a NaN or an infinity
    is a ParameterError."""
    # [true, 0] converts to int64 and ["2"] to 2.0: each entry is looked at
    raw = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    if raw.dtype.kind in "bSU" or raw.dtype == object and any(
            isinstance(v, (bool, np.bool_, str)) for v in raw.flat):
        raise ParameterError(f"{what} must hold numbers, not booleans or strings")
    value = np.asarray(value, dtype=np.float64)
    if not np.isfinite(value).all():
        raise ParameterError(f"{what} must be finite")
    return value


# the largest count whose float64 array numpy can size (2^60 - 1 on 64 bits)
_MAX_COUNT = np.iinfo(np.intp).max // 8


def _count(value, what: str, most: float = _MAX_COUNT) -> int:
    """value as an int in [1, most]; anything else, a bool or a string too,
    is a ParameterError that gives the value as it was written."""
    if isinstance(value, (bool, str)) or not (
            isinstance(value, int) or float(value).is_integer()):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    if not 1 <= int(value) <= most:
        raise ParameterError(f"{what} must lie in [1, {most}], got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """Splittable random stream keyed by (seed, stream_id, block).

    A (seed, stream_id) pair names one logical stream; ``generator(block)``
    is an SFC64 generator seeded by a SeedSequence of the six 32-bit words
    (low, high) of seed, stream_id and block, so each block has its own
    stream and a batch partitioned into fixed-size blocks is reproduced
    bit-for-bit regardless of how blocks are scheduled across workers.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < _U64):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (0 <= self.stream_id < _U64):
            raise ParameterError(f"stream_id must be a 64-bit unsigned integer, got {self.stream_id!r}")

    def generator(self, block: int = 0) -> np.random.Generator:
        if not (0 <= block < _U64):
            raise ParameterError(f"block index must be a 64-bit unsigned integer, got {block!r}")
        # fixed-width words keep the key injective: SeedSequence alone reads (2**32, 0) as (0, 1)
        words = [v >> shift & 0xFFFFFFFF
                 for v in (self.seed, self.stream_id, block) for shift in (0, 32)]
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))

    def fill(self, out: np.ndarray, block: int,
             draw: Callable[[np.random.Generator, np.ndarray], None],
             workers: int = 1) -> None:
        """The one block schedule: ``draw(generator(b), rows)`` writes block
        b's rows, ``rows = out[b * block:(b + 1) * block]`` (of a 1-D or 2-D
        ``out``), on a pool of at most ``workers`` threads and at most one
        per block, or on the calling thread when that is one.  Block b
        always draws from ``generator(b)``, so ``out`` is the same for any
        ``workers``.  Each block runs with float warnings off: a NaN or
        infinity in ``out`` is one NumericsError, raised once every block
        is done."""
        if workers < 1:
            raise DomainError(f"worker count must be >= 1, got {workers!r}")
        n_blocks = -(-len(out) // block)
        workers = min(workers, n_blocks)

        def run(b: int) -> None:
            with np.errstate(all="ignore"):
                draw(self.generator(b), out[b * block:(b + 1) * block])

        # a pool of one thread would cost its start and, for the caller,
        # reading ``out`` back from another core's cache
        if workers == 1:
            for b in range(n_blocks):
                run(b)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, range(n_blocks)))
        if not np.isfinite(out).all():
            raise NumericsError("drawn values are not all finite; check the "
                                "model parameters")


# ---------------------------------------------------------------------------
# one-dimensional densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Density1D:
    """Normalized one-dimensional density with exact sampling.

    Fields
    ------
    name : str
        Human-readable identifier, also used in reports.
    support : (a, b)
        Open interval carrying the mass; log_pdf is -inf outside.
    entropy : float
        Differential entropy in nats.
    mode : float
        A maximizer of the density (needed by the rejection sampler).
    order_p : float or None
        When set, the density factors as x^(order_p - 1) * g(x) on positive
        support with g log-concave.
    info_shape : float or None
        When set, -log f(X) - entropy is Gamma(k, 1) - k in law, k this
        shape (k = 0: identically 0).

    ``_log_pdf`` is the formula inside the support; ``_sampler``, if set,
    replaces the draw by ``_quantile``.
    """

    name: str
    support: Tuple[float, float]
    entropy: float
    mode: float
    order_p: Optional[float] = None
    info_shape: Optional[float] = None
    _log_pdf: Callable = field(repr=False, default=None)
    _sampler: Callable = field(repr=False, default=None)
    _quantile: Callable = field(repr=False, default=None)

    def log_pdf(self, x) -> np.ndarray:
        return _masked_log(x, self.support, self._log_pdf)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        if self._sampler is not None:
            return self._sampler(gen, int(size))
        # generator uniforms live in [0, 1); keep 0 out of quantiles with
        # infinite left tails (shifts 2^-53 of mass by a subnormal amount)
        return self._quantile(np.maximum(gen.random(int(size)), _TINY))

    def quantile(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if np.any((t <= 0.0) | (t >= 1.0)):
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        return self._quantile(t)


def _masked_log(x, support: Tuple[float, float], inside: Callable) -> np.ndarray:
    """``inside`` at the points of x in the open support, -inf elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    a, b = support
    m = (x > a) & (x < b)
    if m.all():  # as sampled points are: no gather, scatter or copy
        out = np.asarray(inside(x), dtype=np.float64)
        if out.shape == x.shape:
            return out
        return np.broadcast_to(out, x.shape).copy()
    out = np.full(x.shape, -np.inf)
    if np.any(m):
        out[m] = inside(x[m])
    return out


_TINY = np.finfo(np.float64).tiny

# Newton steps of a quantile; from the start points of a custom density's
# node table or of gamma's Wilson-Hilferty start, three to five suffice.
_NEWTON_STEPS = 50


def _newton_quantile(what: str, level: np.ndarray, y: np.ndarray,
                     upper: np.ndarray, log_tail: Callable, log_pdf: Callable,
                     support: Tuple[float, float], scale: float) -> np.ndarray:
    """The quantiles at ``level`` from start points y: Newton steps on
    log F below the median and on log(1 - F) where ``upper``, both concave
    for a log-concave density, ``log_tail(y, upper)`` giving them.  A step
    past a finite end of the support goes halfway to it instead; the steps
    stop once none moves by more than 1e-13 (|y| + scale), else
    NumericsError names ``what``."""
    a, b = support
    target = np.log(np.where(upper, 1.0 - level, level))
    for _ in range(_NEWTON_STEPS):
        log_t = log_tail(y, upper)
        step = (log_t - target) * np.exp(log_t - log_pdf(y))
        new = np.where(upper, y + step, y - step)
        new = np.where(new <= a, 0.5 * (a + y), np.where(new >= b, 0.5 * (b + y), new))
        done = np.abs(new - y) <= 1e-13 * (np.abs(new) + scale)
        y = new
        if done.all():
            return y
    raise NumericsError(f"{what}: the quantile's Newton steps did not settle "
                        f"in {_NEWTON_STEPS}")


# How far below the chord of its two neighbours a custom density's log g may
# lie at a normalization node, relative to the largest term entering log g
# there (at least 1): the rounding of a log-density computed as a
# difference of large terms, about 10^7 times the unit roundoff.
_CONCAVITY_RTOL = 1e-9


def _check_log_concave(name: str, x: np.ndarray, log_f: np.ndarray,
                       order_p: Optional[float]) -> None:
    """ParameterError unless the slopes of log g between adjacent sorted
    nodes x never increase, log g being log f less (order_p - 1) log x for
    an order-p density and log f otherwise.  Each pair of adjacent slopes is
    compared as its equivalent, the middle node's log g on or above the
    chord of its neighbours, which divides by no node gap where nodes crowd
    within a few ulp; a -inf value between finite ones fails it."""
    x, first = np.unique(x, return_index=True)
    log_g, size = log_f[first], np.abs(log_f[first])
    if order_p is not None:
        power = (order_p - 1.0) * np.log(x)
        log_g, size = log_g - power, size + np.abs(power)
    size = np.where(np.isfinite(size), size, 0.0)
    tol = _CONCAVITY_RTOL * np.maximum.reduce(
        [size[:-2], size[1:-1], size[2:]], initial=1.0)
    w = (x[1:-1] - x[:-2]) / (x[2:] - x[:-2])
    with np.errstate(invalid="ignore"):
        # NaN (-inf less -inf) where log g is -inf at both ends or the middle
        defect = (1.0 - w) * log_g[:-2] + w * log_g[2:] - log_g[1:-1]
        bad = np.flatnonzero(defect > tol)
    if bad.size:
        i = bad[np.argmax(defect[bad] / tol[bad])]
        raise ParameterError(
            f"custom density {name!r} is not log-concave"
            f"{' past its x^(p-1) factor' if order_p is not None else ''}: "
            f"its log-density's slope increases at x = {x[i + 1]:.6g}, where "
            f"it lies {defect[i]:.3g} below the chord of its neighbours")


def _rejection_sampler(log_pdf: Callable, mode: float) -> Callable:
    """Acceptance-rejection under the universal log-concave envelope.

    After rescaling u = (x - mode) * f(mode), any normalized log-concave
    density with its mode at u = 0 and peak 1 sits below
    min(1, e^(1 - |u|)), whose total mass is 4, so the acceptance rate is
    1/4.  A relative headroom of 1e-9 absorbs quadrature/mode-location
    round-off in the peak height; material excursions above the envelope
    mean the density is not log-concave and are reported.
    """
    peak = float(log_pdf(np.asarray([mode]))[0])
    if not math.isfinite(peak):
        raise ParameterError("density mode has non-finite log-density; cannot build envelope")
    scale = math.exp(peak)
    log_headroom = 1e-9

    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty(size)
        have = 0
        while have < size:
            # 4.5 candidates per missing draw, at most a few MB per round
            k = max(min(9 * (size - have) // 2, _CHUNK_ELEMENTS // 8), 256)
            region = gen.random(k)
            w = gen.random(k)
            v = gen.random(k)
            u = np.where(
                region < 0.5,
                2.0 * w - 1.0,
                np.where(region < 0.75, 1.0 - np.log1p(-w), -1.0 + np.log1p(-w)),
            )
            x = mode + u / scale
            log_ratio = (log_pdf(x) - peak) - np.minimum(0.0, 1.0 - np.abs(u))
            if np.any(log_ratio > 1e-6):
                raise ParameterError("density exceeds the log-concave envelope; is it log-concave?")
            acc = np.log(v) < log_ratio - log_headroom
            taken = x[acc]
            n = min(taken.size, size - have)
            out[have : have + n] = taken[:n]
            have += n
        return out

    return draw


# --- standard families -----------------------------------------------------

def exponential() -> Density1D:
    """Standard exponential: f(x) = e^-x on (0, inf)."""
    return Density1D(
        name="exponential",
        support=(0.0, math.inf),
        entropy=1.0,
        mode=0.0,
        order_p=1.0,
        info_shape=1.0,
        _log_pdf=lambda y: -y,
        _quantile=lambda t: -np.log1p(-t),
    )


# Largest gamma shape p.  The log-density's terms (p - 1) log x, x and
# log Gamma(p) are each about p log p at a draw, while their sum varies by
# about 1 (the deviations' standard deviation is 0.69 at every large p), so
# its rounding error grows with p: against mpmath, over 200 draws, at most
# 5e-5 at p = 1e10, 7e-3 at 1e12 and 1 at 1e14.
_GAMMA_MAX_SHAPE = 1e10


def gamma(p: float) -> Density1D:
    """Gamma with shape 1 <= p <= 1e10 and unit rate:
    f(x) = x^(p-1) e^-x / Gamma(p)."""
    p = _finite(p, "gamma shape p")
    if not p >= 1.0:
        raise ParameterError(f"gamma shape must satisfy p >= 1, got {p!r}")
    if p > _GAMMA_MAX_SHAPE:
        raise ParameterError(f"gamma shape p must be at most "
                             f"{_GAMMA_MAX_SHAPE:g}, got {p!r}: past it the "
                             "log-density's rounding error is not negligible")
    if p == 1.0:
        return replace(exponential(), name="gamma(1)")
    lgp = log_gamma(p)
    name = f"gamma({p:g})"
    log_pdf = lambda y: (p - 1.0) * np.log(y) - y - lgp

    def quantile(t) -> np.ndarray:
        level = np.asarray(t, dtype=np.float64).ravel()
        upper = level > 0.5
        # Wilson and Hilferty's start; below the median at least the root of
        # x^p / Gamma(p + 1) = level, which lies below the quantile
        z = normal_quantile(level - 0.5, np.minimum(level, 1.0 - level))
        start = p * (1.0 - 1.0 / (9.0 * p) + z / (3.0 * math.sqrt(p))) ** 3
        floor = np.exp((np.log(level) + log_gamma(p + 1.0)) / p)
        y = _newton_quantile(name, level, np.where(upper, start, np.maximum(start, floor)),
                             upper, lambda x, up: log_gamma_tail(p, x, up), log_pdf,
                             (0.0, math.inf), 0.0)
        return y.reshape(np.shape(t))

    return Density1D(
        name=name,
        support=(0.0, math.inf),
        entropy=p + lgp + (1.0 - p) * digamma(p),
        mode=p - 1.0,
        order_p=p,
        _log_pdf=log_pdf,
        _sampler=lambda gen, size: gen.standard_gamma(p, size),
        _quantile=quantile,
    )


def gaussian1d(mu: float = 0.0, sigma: float = 1.0) -> Density1D:
    """Normal with mean mu and standard deviation sigma."""
    mu, sigma = _finite(mu, "gaussian1d mu"), _finite(sigma, "gaussian1d sigma")
    if not sigma > 0.0:
        raise ParameterError(f"gaussian sigma must be positive, got {sigma!r}")
    c = -0.5 * LOG_2PI - math.log(sigma)
    return Density1D(
        name=f"gaussian1d({mu:g},{sigma:g})",
        support=(-math.inf, math.inf),
        entropy=0.5 * (LOG_2PI + 1.0) + math.log(sigma),
        mode=mu,
        info_shape=0.5,
        _log_pdf=lambda y: c - 0.5 * ((y - mu) / sigma) ** 2,
        _sampler=lambda gen, size: mu + sigma * gen.standard_normal(size),
        _quantile=lambda t: mu + sigma * normal_quantile(t - 0.5, np.minimum(t, 1.0 - t)),
    )


def laplace() -> Density1D:
    """Standard Laplace: f(x) = e^-|x| / 2."""
    return Density1D(
        name="laplace",
        support=(-math.inf, math.inf),
        entropy=1.0 + math.log(2.0),
        mode=0.0,
        info_shape=1.0,
        _log_pdf=lambda y: -np.abs(y) - math.log(2.0),
        _quantile=lambda t: np.where(t < 0.5, np.log(2.0 * t), -np.log(2.0 * (1.0 - t))),
    )


def uniform(a: float = 0.0, b: float = 1.0) -> Density1D:
    """Uniform on (a, b)."""
    a, b = _finite(a, "uniform a"), _finite(b, "uniform b")
    if not a < b:
        raise ParameterError(f"uniform requires a < b, got a={a!r}, b={b!r}")
    width = b - a
    logw = math.log(width)
    return Density1D(
        name=f"uniform({a:g},{b:g})",
        support=(a, b),
        entropy=logw,
        mode=0.5 * (a + b),
        order_p=1.0 if a >= 0.0 else None,
        info_shape=0.0,
        _log_pdf=lambda y: np.full(y.shape, -logw),
        _quantile=lambda t: a + width * t,
    )


def half_normal() -> Density1D:
    """Half-normal: f(x) = sqrt(2/pi) e^(-x^2/2) on (0, inf)."""
    c = 0.5 * math.log(2.0 / math.pi)
    return Density1D(
        name="half_normal",
        support=(0.0, math.inf),
        entropy=0.5 * math.log(math.pi * math.e / 2.0),
        mode=0.0,
        order_p=1.0,
        info_shape=0.5,
        _log_pdf=lambda y: c - 0.5 * y * y,
        # Phi^-1((1 + t)/2), from t/2 and (1 - t)/2, both exact
        _quantile=lambda t: normal_quantile(0.5 * t, 0.5 * (1.0 - t)),
    )


def from_log_density(
    name: str,
    log_density_fn: Callable,
    support: Tuple[float, float],
    order_p: Optional[float] = None,
) -> Density1D:
    """Build a Density1D from an unnormalized log-density, evaluated on arrays.

    The mode comes from ``unimodal_argmax``; normalization and entropy from
    one ``de_rule`` node set split at the mode and scaled by the peak width.
    ``quantile`` starts from the cumulative node masses and takes Newton
    steps on log F below the mode's level and on log(1 - F) above, both
    concave for a log-concave density and each a rule over the tail away
    from the mode; a rule or Newton loop that does not converge raises
    NumericsError.  The theorem's hypothesis is checked on the normalizing
    nodes: a log-density (less (order_p - 1) log x for an order-p density)
    whose slopes between adjacent nodes increase raises ParameterError.
    Sampling uses the log-concave rejection envelope, which detects material
    violations between the nodes too.
    """
    a, b = support
    if not a < b:
        raise ParameterError(f"invalid support {support!r}")
    if order_p is not None and a < 0.0:
        raise ParameterError("order-p densities must have nonnegative support")

    raw = lambda x: np.asarray(log_density_fn(np.asarray(x, dtype=np.float64)), dtype=np.float64)
    mode = unimodal_argmax(raw, support)
    scale = peak_width(raw, mode, support)
    last = {}

    def converged(result, what: str) -> np.ndarray:
        if not np.all(result.converged):
            raise NumericsError(f"custom density {name!r}: {what} did not converge")
        return result.value

    def log_mass_and_mean(x, log_w):
        log_g = raw(x)
        log_m = log_w + log_g
        log_z = logsumexp(log_m)
        masses = np.exp(log_m - log_z)
        last.update(x=x, masses=masses, log_g=np.broadcast_to(log_g, x.shape))
        return np.array([log_z, masses @ np.where(masses > 0.0, log_g, 0.0)])

    rule = de_rule(log_mass_and_mean, support, center=mode, scale=scale)
    # a density outside the hypothesis is named as such, converged or not
    order = np.argsort(last["x"])
    knots, masses = last["x"][order], last["masses"][order]
    _check_log_concave(name, knots, last["log_g"][order], order_p)
    log_z, mean_log_g = converged(rule, "the normalization and entropy rule")
    # F at the nodes of the normalizing set: the quantiles' start points
    knot_levels = np.cumsum(masses) - 0.5 * masses
    below_mode = masses[knots < mode].sum()
    log_mass = lambda x, log_w: logsumexp(log_w + density.log_pdf(x), axis=-1)

    def log_tail(y: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """log F(y), or log(1 - F(y)) where ``upper``: one rule on (a, y) or
        (y, b) per side and 2048 points; on the side away from the mode no
        interval holds a kink there."""
        out = np.empty(y.shape)
        for side in (False, True):
            index = np.flatnonzero(upper == side)
            for i in range(0, index.size, 2048):
                part = index[i:i + 2048]
                ends = (y[part], b) if side else (a, y[part])
                out[part] = converged(de_rule(log_mass, ends, scale=scale),
                                      "a tail rule of quantile")
        return out

    def quantile(t) -> np.ndarray:
        level = np.asarray(t, dtype=np.float64).ravel()
        y = _newton_quantile(f"custom density {name!r}", level,
                             np.interp(level, knot_levels, knots), level > below_mode,
                             log_tail, density.log_pdf, support, scale)
        return y.reshape(np.shape(t))

    density = Density1D(
        name=name,
        support=support,
        entropy=float(log_z - mean_log_g),
        mode=mode,
        order_p=order_p,
        _log_pdf=lambda y: raw(y) - log_z,
        _quantile=quantile,
    )
    return replace(density, _sampler=_rejection_sampler(density.log_pdf, mode))


# the one table of 1-D families, by spec name
_FAMILIES = {
    "exponential": exponential,
    "gamma": gamma,
    "gaussian1d": gaussian1d,
    "laplace": laplace,
    "uniform": uniform,
    "half_normal": half_normal,
}


# ---------------------------------------------------------------------------
# n-dimensional models
# ---------------------------------------------------------------------------

# Array elements per piece of work (a row chunk of ModelND.draw_deviations,
# ModelND.log_density or Product.sample, or a column piece of a run in
# Product.draw_deviations; an eighth of it caps a rejection round): 512 KB
# arrays, which stay in cache, whatever the block length and dimension.
_CHUNK_ELEMENTS = 2**16


class ModelND:
    """Base class for n-dimensional sample models.

    Subclasses give ``_log_density_rows``, the log-density of each row of a
    C-contiguous (rows, dim) array; ``log_density`` applies it to points of
    any leading shape, about ``_CHUNK_ELEMENTS`` array elements at a time.
    A row's value does not depend on the chunk it falls in.

    A model draws its own information deviations -log f(X) - entropy with
    ``draw_deviations``.  ``info_shape`` is K when a part of them is
    Gamma(K, 1) - K in law (K = 0: identically 0), or None when no part has
    a law; a model sets it once, at construction.
    """

    dim: int
    entropy: float
    info_shape: Optional[float] = None

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: model has dim {self.dim}, point has shape {x.shape}")
        flat = x.reshape(-1, self.dim)
        out = np.empty(flat.shape[0])
        step = max(1, _CHUNK_ELEMENTS // self.dim)
        for lo in range(0, flat.shape[0], step):
            out[lo : lo + step] = self._log_density_rows(flat[lo : lo + step])
        return out.reshape(x.shape[:-1])[()]  # a scalar for a single point

    def _log_density_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def draw_deviations(self, gen: np.random.Generator, out: np.ndarray) -> None:
        """Write -log f - entropy of ``out.size`` fresh draws into ``out`` in
        stream order; by default row chunks of ``sample`` and ``log_density``."""
        h, rows = self.entropy, max(1, _CHUNK_ELEMENTS // self.dim)
        for a in range(0, out.size, rows):
            x = self.sample(gen, min(rows, out.size - a))
            out[a:a + rows] = -self.log_density(x) - h


class Product(ModelND):
    """Independent product of one-dimensional densities, given as its column
    runs: ``(density, copies)`` pairs in column order.  The copies of a run
    are adjacent columns that share one draw and one log_pdf call."""

    def __init__(self, runs: Sequence[Tuple[Density1D, int]]):
        self.runs = [(d, _count(k, "product copies")) for d, k in runs]
        if not self.runs:
            raise ParameterError("product model needs at least one component")
        self.dim = _count(sum(k for _, k in self.runs), "product dimension")
        self.entropy = float(sum(d.entropy * k for d, k in self.runs))
        # a sum of independent Gamma(k_i, 1) is Gamma(sum k_i, 1); the runs
        # with no law, in column order, are drawn and evaluated
        self._free = [(d, k) for d, k in self.runs if d.info_shape is None]
        if len(self._free) < len(self.runs):
            self.info_shape = float(sum(d.info_shape * k for d, k in self.runs
                                        if d.info_shape is not None))

    def _log_density_rows(self, rows: np.ndarray) -> np.ndarray:
        # sums the same C-contiguous layout as stacking one log_pdf per column
        parts, lo = np.empty(rows.shape), 0
        for d, k in self.runs:
            parts[:, lo:lo + k] = d.log_pdf(rows[:, lo:lo + k])
            lo += k
        return np.sum(parts, axis=-1)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # rows in pieces of about _CHUNK_ELEMENTS values, and in each piece
        # the k columns of a run take one draw of rows * k values, filled row
        # by row: a one-run product draws the same stream in any pieces
        out = np.empty((size, self.dim))
        step = max(1, _CHUNK_ELEMENTS // self.dim)
        for r in range(0, size, step):
            piece, lo = out[r:r + step], 0
            for d, k in self.runs:
                piece[:, lo:lo + k] = d.sample(gen, len(piece) * k).reshape(-1, k)
                lo += k
        return out

    def draw_deviations(self, gen: np.random.Generator, out: np.ndarray) -> None:
        # a Gamma draw for the law runs (Gamma(0) draws nothing), then the
        # other runs in row chunks and column pieces: sample's stream at any width
        shape = self.info_shape or 0.0
        gen.standard_gamma(shape, out=out)
        out -= shape
        if not self._free:
            return
        rows = max(1, _CHUNK_ELEMENTS // sum(k for _, k in self._free))
        for a in range(0, out.size, rows):
            part = out[a:a + rows]
            for d, k in self._free:
                for c in range(0, k, _CHUNK_ELEMENTS):
                    w = min(_CHUNK_ELEMENTS, k - c)
                    x = d.sample(gen, part.size * w)
                    part -= d.log_pdf(x).reshape(-1, w).sum(axis=1) + w * d.entropy


class AffineMap(ModelND):
    """Pushforward T X + shift of a base model under an invertible matrix.
    T^-1 is one product with ``_inverse_t``, the transposed inverse computed
    once and only read, so threads may share it."""

    def __init__(self, base: ModelND, matrix, shift=None):
        self.base = base
        self.matrix = _finite_array(matrix, "affine map matrix")
        n = base.dim
        if self.matrix.shape != (n, n):
            raise ParameterError(f"matrix must be {n}x{n} to match the base model")
        sign, logdet = np.linalg.slogdet(self.matrix)
        if sign == 0 or not math.isfinite(logdet):
            raise ParameterError("affine map matrix must be invertible")
        self.shift = np.zeros(n) if shift is None else _finite_array(shift, "affine map shift")
        if self.shift.shape != (n,):
            raise ParameterError("shift shape does not match the base model dimension")
        self.dim = n
        self._logabsdet = float(logdet)
        self._inverse_t = np.linalg.inv(self.matrix).T
        self.entropy = base.entropy + self._logabsdet
        # log|det T| enters -log f and the entropy alike, so each point's
        # deviation is its base point's
        self.info_shape = base.info_shape

    def _log_density_rows(self, rows: np.ndarray) -> np.ndarray:
        pre = (rows - self.shift) @ self._inverse_t
        return self.base.log_density(pre) - self._logabsdet

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # same draws as the base model, pushed through the map (coupling used
        # by the affine-invariance checks)
        y = self.base.sample(gen, size) @ self.matrix.T
        y += self.shift
        return y

    def draw_deviations(self, gen: np.random.Generator, out: np.ndarray) -> None:
        self.base.draw_deviations(gen, out)


class BallUniform(ModelND):
    """Uniform distribution on the centered Euclidean ball of given radius."""

    def __init__(self, dim: int, radius: float = 1.0):
        # past _MAX_COUNT a ball still runs: its deviation is 0, and its
        # volume is finite until log Gamma overflows
        dim = _count(dim, "ball dimension", most=math.inf)
        radius = _finite(radius, "ball radius")
        if not radius > 0.0:
            raise ParameterError(f"ball radius must be positive, got {radius!r}")
        self.dim = dim
        self.radius = radius
        self._log_vol = 0.5 * dim * math.log(math.pi) - log_gamma(0.5 * dim + 1.0) + dim * math.log(radius)
        self.entropy = self._log_vol
        self.info_shape = 0.0  # f is constant on the ball

    def _log_density_rows(self, rows: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.sum(rows * rows, axis=-1))
        return np.where(r <= self.radius, -self._log_vol, -np.inf)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # Gaussian direction, then radius with density prop. to r^(n-1)
        z = gen.standard_normal((size, self.dim))
        norms = np.sqrt(np.sum(z * z, axis=1))
        u = gen.random(size)
        r = self.radius * u ** (1.0 / self.dim)
        return z * (r / norms)[:, np.newaxis]

    def draw_deviations(self, gen: np.random.Generator, out: np.ndarray) -> None:
        out[...] = 0.0


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def quantile_density(d: Density1D, t) -> np.ndarray:
    """Density of the quantile transform, I(t) = f(F^-1(t)), t in (0, 1).

    For log-concave f this function is positive and concave; the experiment
    layer certifies that on grids.
    """
    q = d.quantile(t)
    return np.exp(d.log_pdf(q))


# ---------------------------------------------------------------------------
# JSON model specifications
# ---------------------------------------------------------------------------

def spec_reader(read: Callable) -> Callable:
    """Decorate a reader of JSON specs so that a missing key or a value of
    the wrong type or shape is a ParameterError naming the spec, not the
    KeyError, TypeError or ValueError that building from it raised.  A
    NumericsError (a well-formed spec whose numbers overflow) passes
    unchanged."""

    @functools.wraps(read)
    def wrapped(spec):
        try:
            return read(spec)
        except (ParameterError, NumericsError):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed spec {spec!r}: "
                                 f"{type(exc).__name__}: {exc}") from exc

    return wrapped


@spec_reader
def density_from_spec(spec: dict) -> Density1D:
    """Build a 1-D density from {"family": ..., "params": {...}}."""
    family, params = _split_spec(spec)
    if family not in _FAMILIES:
        raise ParameterError(f"unknown 1-D family {family!r}")
    return _FAMILIES[family](**params)


@spec_reader
def model_from_spec(spec: dict) -> ModelND:
    """Build an n-dimensional model from a (possibly nested) specification.

    1-D families are promoted to one-component product models so that every
    spec yields a ModelND.
    """
    family, params = _split_spec(spec)
    if family in _FAMILIES:
        return Product([(density_from_spec(spec), 1)])
    if family == "product":
        if "components" in params:
            return Product([(density_from_spec(s), 1) for s in params["components"]])
        if "component" in params and "copies" in params:
            return Product([(density_from_spec(params["component"]), params["copies"])])
        raise ParameterError("product spec needs 'components' or ('component', 'copies')")
    if family == "gaussian":
        # N(0, I) is one run of dim gaussian1d columns, N(mean, I) the
        # product of its marginals, and N(mean, T T') the affine image
        # T X + mean of N(0, I)
        mean, factor = params.get("mean"), params.get("cov_factor")
        for value, what in ((mean, "gaussian mean"), (factor, "gaussian cov_factor")):
            if value is not None:
                _finite_array(value, what)
        dim = params.get("dim")
        if dim is None:
            if factor is None and mean is None:
                raise ParameterError("gaussian spec needs 'dim', 'mean' or 'cov_factor'")
            dim = len(mean if factor is None else factor)
        dim = _count(dim, "gaussian dimension")
        if factor is not None:
            return AffineMap(Product([(gaussian1d(), dim)]), factor, mean)
        if mean is None:
            return Product([(gaussian1d(), dim)])
        if len(mean) != dim:
            raise ParameterError(f"gaussian mean must have {dim} entries, got {len(mean)}")
        return Product([(gaussian1d(mu), 1) for mu in mean])
    if family == "ball_uniform":
        return BallUniform(dim=params["dim"], radius=params.get("radius", 1.0))
    if family == "affine":
        base = model_from_spec(params["base"])
        return AffineMap(base, params["matrix"], params.get("shift"))
    raise ParameterError(f"unknown model family {family!r}")


def _split_spec(spec: dict):
    if not isinstance(spec, dict) or "family" not in spec:
        raise ParameterError(f"model spec must be a dict with a 'family' key, got {spec!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ParameterError(f"'params' must be a dict, got {params!r}")
    return spec["family"], params
