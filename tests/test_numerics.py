"""Contract tests for the numerical kernels.

Reference values come from independent routes: direct series with an
Euler-Maclaurin tail, exact factorials, closed-form integrals, and mpmath
at 30 significant digits.  Derived constants are frozen below next to the
oracle that produced them.
"""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma, gammainc, gammaincc, ndtri
from scipy.special import logsumexp as scipy_logsumexp

import infoconc.distributions
import infoconc.lyapunov
import infoconc.numerics
from infoconc.distributions import (
    from_log_density,
    gamma,
    gaussian1d,
    half_normal,
    laplace,
    uniform,
)
from infoconc.lyapunov import moment_curve, order_p_variance_check
from infoconc.numerics import (
    BracketError,
    DomainError,
    IntegrandError,
    NumericsError,
    QuadratureResult,
    check_grid,
    de_rule,
    find_root_increasing,
    peak_width,
    unimodal_argmax,
    integrate,
    digamma as psi,
    log_gamma,
    log_integral,
    log_gamma_tail,
    logsumexp,
    normal_quantile,
    trigamma,
)

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def trigamma_series(p, terms=10000):
    """Direct series sum_{k>=0} 1/(p+k)^2 with Euler-Maclaurin tail.

    Tail error is O(terms^-5), far below the 1e-12 contract.
    """
    s = math.fsum(1.0 / (p + k) ** 2 for k in range(terms))
    x = p + terms
    return s + 1.0 / x + 1.0 / (2.0 * x**2) + 1.0 / (6.0 * x**3)


# frozen via the oracles above / mpmath (30 digits):
LOG_GAMMA_3_5 = 1.2009736023470742     # mp.loggamma(3.5)
LOG_24 = 3.1780538303479456            # log Gamma(5) = log 4!
PI2_OVER_6 = 1.6449340668482264        # trigamma(1)
TRIGAMMA_2 = 0.6449340668482264        # pi^2/6 - 1
TRIGAMMA_3 = 0.3949340668482264        # pi^2/6 - 5/4


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

def test_log_gamma_exact_integers():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert log_gamma(5.0) == pytest.approx(LOG_24, rel=1e-14)


def test_log_gamma_half_integer():
    assert log_gamma(3.5) == pytest.approx(LOG_GAMMA_3_5, rel=1e-13)


@pytest.mark.parametrize("x", [1e-3, 0.03, 0.7, 1.0001, 4.2, 17.0, 123.456, 1e4, 1e6])
def test_log_gamma_matches_mpmath(x):
    ref = float(mp.loggamma(x))
    assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 2.5, 10.0, 1e3, 1e6])
def test_log_gamma_recurrence(x):
    # Gamma(x+1) = x Gamma(x)
    lhs = log_gamma(x + 1.0)
    rhs = log_gamma(x) + math.log(x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, 1e308])
def test_log_gamma_domain(x):
    # 1e308: log Gamma overflows a double
    with pytest.raises(DomainError):
        log_gamma(x)


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

DIGAMMA_ROOT = 1.4616321449683622      # mp.findroot(mp.digamma, 1.46)

DIGAMMA_GRID = sorted({*np.geomspace(1.0, 1e10, 2001).tolist(),
                       *np.linspace(1.0, 12.0, 441).tolist(),
                       *(float(k) for k in range(1, 11)),
                       *np.linspace(DIGAMMA_ROOT - 0.05, DIGAMMA_ROOT + 0.05,
                                    201).tolist()})


def test_digamma_matches_mpmath_to_four_ulp():
    # absolute error in units of the spacing of max(1, |psi|): the values
    # cross 0 at the root; over this grid scipy's worst is 1.4 units, this
    # one's 2.0
    worst = 0.0
    for x in DIGAMMA_GRID:
        ref = mp.digamma(x)
        unit = np.spacing(max(1.0, abs(float(ref))))
        worst = max(worst, float(abs(mp.mpf(psi(x)) - ref)) / unit)
    assert worst <= 4.0


def test_digamma_at_integers_is_harmonic_less_euler():
    for k in range(1, 11):
        ref = math.fsum(1.0 / j for j in range(1, k)) - 0.5772156649015329
        assert abs(psi(float(k)) - ref) <= 4.0 * np.spacing(max(1.0, abs(ref)))


def test_digamma_recurrence_and_root():
    assert abs(psi(DIGAMMA_ROOT)) <= 4.0 * np.spacing(1.0)
    for x in (1.0, 1.5, 3.25, 9.75, 10.0, 123.5):
        assert abs(psi(x + 1.0) - psi(x) - 1.0 / x) <= 4e-15 * max(1.0, psi(x))


@pytest.mark.parametrize("x", [0.999, 0.5, 0.0, -1.0, math.nan])
def test_digamma_domain(x):
    with pytest.raises(DomainError):
        psi(x)


def test_gamma_entropy_matches_the_scipy_formula():
    # p + log Gamma(p) + (1 - p) psi(p): (1 - p) scales the error of psi, so
    # this holds to 1e-14 only where psi agrees with scipy's to the last bits
    for p in [*np.geomspace(1.001, 1e4, 400).tolist(), 1.5, 2.0, 3.0, 5.0]:
        ref = p + log_gamma(p) + (1.0 - p) * float(digamma(p))
        assert abs(gamma(p).entropy - ref) <= 1e-14 * abs(ref), p


# ---------------------------------------------------------------------------
# trigamma
# ---------------------------------------------------------------------------

def test_trigamma_at_one():
    assert abs(trigamma(1.0) - PI2_OVER_6) <= 1e-12
    assert abs(trigamma(1.0) - trigamma_series(1.0)) <= 1e-12


def test_trigamma_small_integers():
    assert abs(trigamma(2.0) - TRIGAMMA_2) <= 1e-12
    assert abs(trigamma(3.0) - TRIGAMMA_3) <= 1e-12


@pytest.mark.parametrize("p", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0])
def test_trigamma_recurrence(p):
    # psi_1(p) = psi_1(p+1) + 1/p^2
    assert abs(trigamma(p) - trigamma(p + 1.0) - 1.0 / p**2) <= 1e-12


@pytest.mark.parametrize("p", [0.1, 0.37, 1.0, 3.3, 20.0, 100.0])
def test_trigamma_matches_series_oracle(p):
    assert abs(trigamma(p) - trigamma_series(p)) <= 1e-12


def test_trigamma_positive_and_decreasing():
    grid = [0.2 * k for k in range(1, 200)]
    vals = [trigamma(p) for p in grid]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_trigamma_matches_mpmath_to_eight_ulp():
    grid = sorted({*np.geomspace(0.01, 1e10, 1501).tolist(),
                   *np.linspace(0.01, 12.0, 600).tolist()})
    worst = max(float(abs(mp.mpf(trigamma(p)) - mp.psi(1, p))) / np.spacing(trigamma(p))
                for p in grid)
    assert worst <= 8.0


def test_trigamma_domain():
    with pytest.raises(DomainError):
        trigamma(0.0)
    with pytest.raises(DomainError):
        trigamma(-2.0)


# ---------------------------------------------------------------------------
# normal_quantile
# ---------------------------------------------------------------------------

def phi_inverse(t):
    """Phi^-1(t) through normal_quantile, each argument exact."""
    t = np.asarray(t, dtype=np.float64)
    return normal_quantile(t - 0.5, np.minimum(t, 1.0 - t))


def ulps(got, want) -> np.ndarray:
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_normal_quantile_matches_ndtri():
    # within 5 ulp, not 4: ndtri is itself up to 4 ulp off in AS241's near
    # tail branch (test_normal_quantile_matches_mpmath_to_two_ulp)
    t = np.concatenate([np.random.default_rng(27).random(10**5),
                        [1e-300, 1.0 - 2.0**-53]])
    assert ulps(phi_inverse(t), ndtri(t)).max() <= 5.0


def test_normal_quantile_matches_mpmath_to_two_ulp():
    # every branch: uniform levels, and tails down to 1e-300 on both sides
    rng = np.random.default_rng(28)
    tails = 10.0 ** -rng.uniform(1.0, 300.0, 100)
    t = np.concatenate([rng.random(200), tails, 1.0 - tails[tails > 1e-16]])
    with mp.workdps(40):
        # Phi(x) = t, or Phi(-x) = 1 - t above 1/2, where 1 - t is exact
        want = [mp.findroot(lambda y: mp.ncdf(y) - level, x) if level <= 0.5
                else mp.findroot(lambda y: mp.ncdf(-y) - (1 - mp.mpf(level)), x)
                for level, x in zip(t, phi_inverse(t))]
        worst = max(float(abs(mp.mpf(x) - w) / np.spacing(abs(float(w))))
                    for x, w in zip(phi_inverse(t), want))
    assert worst <= 2.0


# ---------------------------------------------------------------------------
# log_gamma_tail
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.01, 2.0, 5.0, 37.0, 1e3, 1e5])
def test_log_gamma_tail_matches_scipy(p):
    # from 6 standard deviations below the mean to 12 above: both sides of
    # the switch to the continued fraction
    x = p + np.linspace(-6.0, 12.0, 73) * math.sqrt(p)
    x = x[x > 0.0]
    for upper, oracle in ((False, gammainc), (True, gammaincc)):
        want = np.log(oracle(p, x))
        keep = want > -700.0
        got = log_gamma_tail(p, x, upper)
        assert np.all(np.abs(got - want)[keep] <= 5e-14 * max(1.0, math.sqrt(p)))


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_log_gamma_tail_domain(x):
    with pytest.raises(DomainError):
        log_gamma_tail(2.0, np.array([1.0, x]), False)


# ---------------------------------------------------------------------------
# logsumexp (scipy.special.logsumexp is the oracle, bit for bit)
# ---------------------------------------------------------------------------

def assert_same_as_scipy(a, axis):
    got, want = logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def logsumexp_cases(seed):
    """1-D and 2-D arrays of magnitude 1e-3 to 1e3, plain and with -inf
    entries, tied maxima, a row of -inf and a +inf entry."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 50)),) if seed % 2 else (
        int(rng.integers(1, 12)), int(rng.integers(1, 50)))
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0)
    minus_inf = np.where(rng.uniform(size=shape) < 0.3, -np.inf, a)
    # the top 30% of each row tied at one maximum
    tied = np.minimum(a, np.quantile(a, 0.7, axis=-1, keepdims=True))
    dead_row = minus_inf.copy()
    dead_row[rng.integers(shape[0]) if a.ndim == 2 else slice(None)] = -np.inf
    plus_inf = minus_inf.copy()
    plus_inf.flat[rng.integers(a.size)] = np.inf
    return [a, minus_inf, tied, dead_row, plus_inf]


@pytest.mark.parametrize("axis", [None, -1])
@pytest.mark.parametrize("seed", range(40))
def test_logsumexp_matches_scipy_bit_for_bit(seed, axis):
    for a in logsumexp_cases(seed):
        assert_same_as_scipy(a, axis)


@pytest.mark.parametrize("a", [[-np.inf], [-np.inf, -np.inf], [np.inf, 0.0],
                               [np.inf, np.inf], [np.nan, 1.0], [0.0, 0.0],
                               [3.0], [[-np.inf, -np.inf], [1.0, 1.0]]],
                         ids=str)
@pytest.mark.parametrize("axis", [None, -1])
def test_logsumexp_edge_rows_match_scipy(a, axis):
    assert_same_as_scipy(np.array(a), axis)


def test_logsumexp_matches_scipy_on_the_node_sets_of_exact_checks(monkeypatch):
    # what moment_curve (one row per order) and the quantile's tail rules of
    # from_log_density (one row per end) reduce at every step halving
    seen = []

    def recording(a, axis=None):
        seen.append((np.array(a), axis))
        return logsumexp(a, axis=axis)

    monkeypatch.setattr(infoconc.lyapunov, "logsumexp", recording)
    moment_curve(gamma(2.0), "raw", np.arange(0.5, 40.5, 0.5))
    curves = len(seen)
    monkeypatch.setattr(infoconc.distributions, "logsumexp", recording)
    logistic().quantile(np.linspace(0.05, 0.95, 19))
    assert {a.shape[0] for a, _ in seen[:curves]} == {80}
    assert any(a.ndim == 2 and axis == -1 for a, axis in seen[curves:])
    for a, axis in seen:
        assert_same_as_scipy(a, axis)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_exponential_mass():
    res = integrate(lambda x: math.exp(-x), (0.0, math.inf))
    assert isinstance(res, QuadratureResult)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-10
    assert res.abs_error_estimate <= 1e-10 + 1e-12
    assert res.evaluations > 0


def test_integrate_exponential_mean():
    res = integrate(lambda x: x * math.exp(-x), (0.0, math.inf))
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-10


def test_integrate_gamma_moment_cross_checks_log_gamma():
    # integral of x^2.5 e^-x = Gamma(3.5)
    res = integrate(lambda x: x**2.5 * math.exp(-x), (0.0, math.inf))
    assert res.converged
    assert abs(res.value - math.exp(LOG_GAMMA_3_5)) <= 1e-8


def test_integrate_gaussian_mass_on_real_line():
    res = integrate(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), (-math.inf, math.inf))
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-10


@pytest.mark.parametrize("c", [0.3, 1.0, 5.0])
def test_integrate_split_point_additivity(c):
    f = lambda x: math.exp(-x) * (1.0 + math.sin(x) ** 2)
    whole = integrate(f, (0.0, math.inf), tol=1e-10)
    left = integrate(f, (0.0, c), tol=1e-10)
    right = integrate(f, (c, math.inf), tol=1e-10)
    assert abs(whole.value - (left.value + right.value)) <= 2e-10


def test_integrate_nan_propagates_as_error():
    def bad(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(IntegrandError):
        integrate(bad, (0.0, 1.0))


def test_integrate_nonconvergence_is_flagged_not_raised():
    # endpoint singularity cannot be resolved within a 2-interval budget
    res = integrate(lambda x: x**-0.9, (0.0, 1.0), tol=1e-13, max_subdiv=2)
    assert not res.converged


def test_integrate_empty_interval_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, (1.0, 1.0))


def test_log_integral_gaussian():
    # integral exp(-x^2/2) dx = sqrt(2 pi)
    lv, lerr = log_integral(lambda x: -0.5 * x * x, (-math.inf, math.inf))
    assert abs(lv - 0.5 * math.log(2.0 * math.pi)) <= 1e-10
    assert lerr <= 1e-9


def test_log_integral_huge_moment_no_overflow():
    # integral x^40 e^-x = Gamma(41); direct evaluation would reach 1e47
    lv, _ = log_integral(lambda x: 40.0 * np.log(x) - x, (0.0, math.inf))
    assert abs(lv - log_gamma(41.0)) <= 1e-9


# ---------------------------------------------------------------------------
# de_rule: accuracy against closed forms on every support shape
# ---------------------------------------------------------------------------

ORDERS = np.arange(0.5, 40.25, 0.5)     # the CLI's default moment orders


def rule_for(d, reduce):
    """``reduce(log_w + log f(x), log f(x))`` over the nodes of d's support."""
    return de_rule(lambda x, log_w: reduce(log_w + d.log_pdf(x), d.log_pdf(x)),
                   d.support, center=d.mode,
                   scale=peak_width(d.log_pdf, d.mode, d.support))


def truncated_exponential():
    return from_log_density("trunc_exp", lambda x: -x, (0.0, 3.0))


@pytest.mark.parametrize("d, exact", [
    (gamma(1.0), lambda p: math.lgamma(p + 1.0)),
    (gamma(1.5), lambda p: math.lgamma(p + 1.5) - math.lgamma(1.5)),
    (gamma(2.0), lambda p: math.lgamma(p + 2.0)),
    (gamma(5.0), lambda p: math.lgamma(p + 5.0) - math.lgamma(5.0)),
    (half_normal(), lambda p: (0.5 * p * math.log(2.0)
                               + math.lgamma(0.5 * (p + 1.0))
                               - 0.5 * math.log(math.pi))),
    (uniform(0.0, 1.0), lambda p: -math.log(p + 1.0)),
    (uniform(0.5, 2.5), lambda p: math.log((2.5 ** (p + 1.0) - 0.5 ** (p + 1.0))
                                           / (2.0 * (p + 1.0)))),
    (truncated_exponential(), lambda p: (math.log(gammainc(p + 1.0, 3.0))
                                         + math.lgamma(p + 1.0)
                                         - math.log(-math.expm1(-3.0)))),
], ids=["gamma1", "gamma1.5", "gamma2", "gamma5", "half_normal", "uniform01",
        "uniform0.5_2.5", "trunc_exp"])
def test_rule_log_moments(d, exact):
    curve = moment_curve(d, "raw", ORDERS)
    assert curve.converged.all()
    want = np.array([exact(p) for p in ORDERS])
    assert np.max(np.abs(curve.log_values - want)) <= 1e-12


def test_rule_truncated_exponential_mass_and_entropy():
    d = truncated_exponential()
    mass = -math.expm1(-3.0)
    # log f(x) = -x - log(mass)
    assert abs(float(d.log_pdf(1.0)) + 1.0 + math.log(mass)) <= 1e-12
    mean = (1.0 - 4.0 * math.exp(-3.0)) / mass
    assert abs(d.entropy - (math.log(mass) + mean)) <= 1e-12


@pytest.mark.parametrize("d", [gaussian1d(0.5, 2.0), laplace()],
                         ids=lambda d: d.name)
def test_rule_real_line_mass_and_entropy(d):
    res = rule_for(d, lambda log_m, log_f: np.array(
        [np.exp(log_m).sum(), -(np.exp(log_m) @ log_f)]))
    assert res.converged.all()
    assert abs(res.value[0] - 1.0) <= 1e-12
    assert abs(res.value[1] - d.entropy) <= 1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 5.0, 20.0])
def test_rule_signed_sums_give_digamma_and_trigamma(p):
    # log xi for xi ~ gamma(p) has mean psi(p) and variance psi1(p)
    report = order_p_variance_check(gamma(p))
    assert report.converged.all()
    assert abs(report.mean_log - float(digamma(p))) <= 1e-12
    assert abs(report.var_log - trigamma(p)) <= 1e-12


def logistic(loc=0.2, s=0.9):
    return from_log_density(
        "logistic", lambda x: -(x - loc) / s - 2.0 * np.logaddexp(0.0, -(x - loc) / s),
        (-math.inf, math.inf))


def test_rule_custom_logistic_quantile_closed_form():
    loc, s = 0.2, 0.9
    d = logistic(loc, s)
    t = np.linspace(0.01, 0.99, 99)
    q = loc + s * np.log(t / (1.0 - t))
    assert np.max(np.abs(d.quantile(t) - q)) <= 1e-12


def test_custom_density_from_an_unconverged_rule_raises(monkeypatch):
    monkeypatch.setattr(infoconc.numerics, "MAX_LEVELS", 1)
    with pytest.raises(NumericsError, match="normalization"):
        logistic()


def test_custom_quantile_from_unconverged_tail_rules_raises(monkeypatch):
    d = logistic()
    monkeypatch.setattr(infoconc.numerics, "MAX_LEVELS", 1)
    with pytest.raises(NumericsError, match="a tail rule of quantile"):
        d.quantile(np.array([0.3, 0.7]))


def test_custom_quantile_newton_steps_that_run_out_raise(monkeypatch):
    d = logistic()
    monkeypatch.setattr(infoconc.distributions, "_NEWTON_STEPS", 1)
    with pytest.raises(NumericsError, match="Newton"):
        d.quantile(np.array([0.3, 0.7]))


def test_rule_array_ends_give_one_node_set_per_end():
    y = np.array([0.1, 1.0, 4.0, 30.0])
    mass = lambda x, log_w: np.exp(log_w - x).sum(axis=-1)
    below = de_rule(mass, (0.0, y))
    above = de_rule(mass, (y, math.inf))
    assert below.value.shape == above.value.shape == (4,)
    assert np.allclose(below.value, -np.expm1(-y), rtol=1e-14, atol=0.0)
    assert np.allclose(above.value, np.exp(-y), rtol=1e-13, atol=0.0)


def test_rule_counts_evaluations_and_flags_a_level_budget_of_one(monkeypatch):
    mass = lambda x, log_w: np.exp(log_w - x).sum()
    full = de_rule(mass, (0.0, math.inf))
    assert full.converged and full.evaluations > 0
    monkeypatch.setattr(infoconc.numerics, "MAX_LEVELS", 1)
    one = de_rule(mass, (0.0, math.inf))
    assert not one.converged
    assert one.abs_error_estimate == math.inf
    assert 0 < one.evaluations < full.evaluations


def test_rule_nan_is_an_error():
    with pytest.raises(IntegrandError):
        de_rule(lambda x, log_w: np.exp(log_w) @ np.where(x > 0.5, np.nan, 1.0),
                (0.0, 1.0))


def test_rule_rejects_empty_interval_and_bad_scale():
    with pytest.raises(DomainError):
        de_rule(lambda x, log_w: log_w.sum(), (1.0, 1.0))
    with pytest.raises(DomainError):
        de_rule(lambda x, log_w: log_w.sum(), (0.0, math.inf), scale=0.0)


@pytest.mark.parametrize("log_f, mode, support, drop", [
    (lambda x: -x, 0.0, (0.0, math.inf), 1.0),
    (lambda x: -0.5 * (x / 3.0) ** 2, 0.0, (-math.inf, math.inf), 3.0 * math.sqrt(2.0)),
    # falls fast on the right, slowly on the left: the slow side counts
    (lambda x: (x - 1.0) - np.exp(x - 1.0), 1.0, (-math.inf, math.inf), 1.8414),
])
def test_peak_width_within_a_factor_two(log_f, mode, support, drop):
    assert drop <= peak_width(log_f, mode, support) <= 2.0 * drop


def test_peak_width_of_a_flat_density_is_the_half_width():
    assert peak_width(lambda x: np.zeros(x.shape), 1.0, (0.0, 2.0)) == 1.0


# ---------------------------------------------------------------------------
# find_root_increasing
# ---------------------------------------------------------------------------

def test_root_identity():
    x = find_root_increasing(lambda t: t, 0.5, (0.0, 1.0))
    assert abs(x - 0.5) <= 1e-12


def test_root_exponential_cdf_median():
    cdf = lambda x: 1.0 - math.exp(-x)
    x = find_root_increasing(cdf, 0.5, (0.0, 50.0))
    assert abs(x - math.log(2.0)) <= 1e-10


def test_root_cube():
    x = find_root_increasing(lambda t: t**3, 8.0, (0.0, 5.0))
    assert abs(x - 2.0) <= 1e-10


def test_root_residual_contract():
    cdf = lambda x: 1.0 - math.exp(-x)
    for q in [0.01, 0.2, 0.5, 0.9, 0.999]:
        x = find_root_increasing(cdf, q, (0.0, 60.0), tol=1e-12)
        assert abs(cdf(x) - q) <= 1e-12


def test_root_bracket_errors():
    with pytest.raises(BracketError):
        find_root_increasing(lambda t: t, 2.0, (0.0, 1.0))
    with pytest.raises(BracketError):
        find_root_increasing(lambda t: t, -1.0, (0.0, 1.0))
    with pytest.raises(BracketError):
        find_root_increasing(lambda t: t, 0.5, (1.0, 0.0))


def test_root_endpoint_hit():
    assert find_root_increasing(lambda t: t, 0.0, (0.0, 1.0)) == 0.0


# ---------------------------------------------------------------------------
# unimodal_argmax
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("support, f, peak", [
    ((-math.inf, math.inf), lambda t: -(t - 1.3) ** 2, 1.3),
    ((0.0, math.inf), lambda t: 2.5 * np.log(t) - t, 2.5),
    ((-math.inf, 0.0), lambda t: -np.abs(t + 0.7), -0.7),
    ((0.0, 3.0), lambda t: -(t - 1.2) ** 2, 1.2),
    ((0.0, 3.0), lambda t: -t, 0.0),
    ((-5.0, 5.0), lambda t: (t - 1.7) * (1.7 - t), 1.7),
    # maximum at a finite end
    ((2.0, 3.0), lambda t: -t, 2.0),
    ((1.0, 1.0), lambda t: -t * t, DomainError),
    # Laplace kink off every scan point
    ((-math.inf, math.inf), lambda t: -np.abs(t - 0.3), 0.3),
    # flat: every interior point is a maximizer
    ((0.0, 2.0), lambda t: np.zeros(t.shape), None),
    # NaN, the log of a negative, counts as -inf
    ((-math.inf, math.inf), lambda t: np.log(t - 1.0) - t, 2.0),
])
def test_unimodal_argmax(support, f, peak):
    if peak is DomainError:
        with pytest.raises(DomainError):
            unimodal_argmax(f, support)
        return
    x = unimodal_argmax(f, support)
    assert type(x) is float
    if peak is None:
        assert support[0] < x < support[1]
    else:
        # near a smooth peak f is flat to rounding within ~sqrt(eps) of it,
        # but its value there is the peak value to rounding
        assert abs(x - peak) <= 1e-6
        top = f(np.array([peak]))[0]
        assert f(np.array([x]))[0] >= top - 1e-12 * (1.0 + abs(top))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_check_grid_returns_float_array():
    arr = check_grid([1, 2, 5], "t grid")
    assert arr.dtype == np.float64
    assert arr.tolist() == [1.0, 2.0, 5.0]


@pytest.mark.parametrize("values", [
    [], [[0.1, 0.2], [0.3, 0.4]], 0.5, [0.1, math.nan, 0.5],
    [0.1, math.inf], [-math.inf, 0.1], [0.1, 0.2, 0.2], [0.5, 0.25],
], ids=["empty", "2d", "scalar", "nan", "inf", "-inf", "equal", "decreasing"])
def test_check_grid_rejects(values):
    with pytest.raises(DomainError, match="t grid"):
        check_grid(values, "t grid")


def test_check_grid_min_size():
    assert check_grid([0.1, 0.2, 0.3], "levels", min_size=3).size == 3
    with pytest.raises(DomainError, match="3 or more"):
        check_grid([0.1, 0.2], "levels", min_size=3)
