"""Tests for moment curves, their convexity structure, and variance caps.

Closed-form oracles, all frozen before the module was written:

    exponential   log E eta^p = lgamma(p+1), normalized curve identically 0
    uniform(0,1)  log E eta^p = -log(p+1)
    gamma(k)      log E eta^p = lgamma(k+p) - lgamma(k)
    half-normal   log E eta^p = (p/2) log 2 + lgamma((p+1)/2) - log(pi)/2
    gamma(p)      Var(log xi) = psi1(p), Var(xi)/E[xi]^2 = 1/p (equalities)
    chi(3)        Var(log xi) = psi1(3/2)/4, E log xi = (log 2 + psi(3/2))/2
"""
import math

import numpy as np
import pytest
from scipy.special import lambertw

from infoconc.bounds import order_p_variance_caps
from infoconc.distributions import (
    Density1D,
    exponential,
    from_log_density,
    gamma,
    gaussian1d,
    half_normal,
    uniform,
)
from infoconc.lyapunov import (
    MomentCurve,
    P_MAX,
    check_convexity_direction,
    moment_curve,
    order_p_variance_check,
    quantile_density_concavity,
)
from infoconc.numerics import DomainError, trigamma

from conftest import positive_zoo, standard_zoo

VAR_LOG_CHI3 = 0.23370055013616983   # psi1(3/2)/4
MEAN_LOG_CHI3 = 0.3648185772692609   # (log 2 + psi(3/2))/2
LOG_3_2 = 0.4054651081081644
HALF_NORMAL_RAW_P3 = 0.4673558279152178

DENSE_GRID = list(np.arange(0.5, 8.25, 0.25))


def chi3():
    return from_log_density("chi3", lambda x: 2.0 * np.log(x) - 0.5 * x * x,
                            (0.0, math.inf), order_p=3.0)


class TestMomentCurve:
    def test_exponential_raw_matches_lgamma(self):
        grid = list(np.arange(0.5, 40.5, 0.5))
        curve = moment_curve(exponential(), "raw", grid)
        for p, v in zip(curve.grid, curve.log_values):
            assert abs(v - math.lgamma(p + 1.0)) < 1e-7 * max(1.0, abs(v))

    def test_exponential_normalized_is_flat(self):
        curve = moment_curve(exponential(), "normalized", DENSE_GRID)
        assert np.max(np.abs(curve.log_values)) < 1e-7

    def test_uniform_raw_closed_form(self):
        curve = moment_curve(uniform(0.0, 1.0), "raw", DENSE_GRID)
        for p, v in zip(curve.grid, curve.log_values):
            assert abs(v + math.log(p + 1.0)) < 1e-8

    def test_gamma_raw_closed_form(self):
        curve = moment_curve(gamma(5.0), "raw", [0.5, 1.0, 2.0, 7.0, 20.0])
        for p, v in zip(curve.grid, curve.log_values):
            exact = math.lgamma(5.0 + p) - math.lgamma(5.0)
            assert abs(v - exact) < 1e-8 * max(1.0, abs(exact))

    def test_half_normal_closed_form(self):
        curve = moment_curve(half_normal(), "raw", [1.0, 2.0, 3.0])
        assert abs(curve.log_values[2] - HALF_NORMAL_RAW_P3) < 1e-9
        # E eta^2 = 1 for the half-normal
        assert abs(curve.log_values[1]) < 1e-9

    def test_kind_offsets_are_consistent(self):
        grid = [0.5, 1.5, 3.0, 6.0]
        raw = moment_curve(gamma(2.0), "raw", grid)
        norm = moment_curve(gamma(2.0), "normalized", grid)
        hat = moment_curve(gamma(2.0), "hat", grid)
        for i, p in enumerate(grid):
            assert abs(norm.log_values[i] + math.lgamma(p + 1.0)
                       - raw.log_values[i]) < 2e-10
            assert abs(hat.log_values[i] + p * math.log(p)
                       - raw.log_values[i]) < 2e-10

    def test_quad_errors_are_small(self):
        curve = moment_curve(gamma(2.0), "raw", [0.5, 5.0, 40.0])
        assert np.all(curve.quad_errors >= 0.0)
        assert np.all(curve.quad_errors < 1e-8)

    def test_grid_validation(self):
        d = exponential()
        with pytest.raises(DomainError):
            moment_curve(d, "raw", [])
        with pytest.raises(DomainError):
            moment_curve(d, "raw", [2.0, 1.0])
        with pytest.raises(DomainError):
            moment_curve(d, "raw", [0.0, 1.0])
        with pytest.raises(DomainError):
            moment_curve(d, "raw", [1.0, P_MAX + 1.0])
        with pytest.raises(DomainError):
            moment_curve(d, "sideways", [1.0, 2.0])

    def test_requires_nonnegative_support(self):
        with pytest.raises(DomainError):
            moment_curve(gaussian1d(), "raw", [1.0, 2.0])


class TestConvexityDirections:
    @pytest.mark.parametrize("density", positive_zoo(), ids=lambda d: d.name)
    def test_raw_is_convex(self, density):
        curve = moment_curve(density, "raw", DENSE_GRID)
        report = check_convexity_direction(curve, "convex")
        assert report.ok, report

    @pytest.mark.parametrize("density", positive_zoo(), ids=lambda d: d.name)
    def test_normalized_is_concave(self, density):
        curve = moment_curve(density, "normalized", DENSE_GRID)
        report = check_convexity_direction(curve, "concave")
        assert report.ok, report

    @pytest.mark.parametrize("density", positive_zoo(), ids=lambda d: d.name)
    def test_hat_is_concave(self, density):
        curve = moment_curve(density, "hat", DENSE_GRID)
        report = check_convexity_direction(curve, "concave")
        assert report.ok, report

    def test_checker_can_fail(self):
        wobble = MomentCurve(
            density_name="synthetic", kind="raw",
            grid=np.arange(1.0, 7.0),
            log_values=np.sin(np.arange(1.0, 7.0)),
            quad_errors=np.zeros(6),
            converged=np.ones(6, dtype=bool),
        )
        assert not check_convexity_direction(wobble, "convex").ok
        assert not check_convexity_direction(wobble, "concave").ok

    @pytest.mark.parametrize("direction", ["convex", "concave"])
    def test_report_carries_signed_per_point_defects(self, direction):
        curve = moment_curve(gamma(2.0), "raw", [1.0, 1.5, 2.5, 4.0, 6.0])
        report = check_convexity_direction(curve, direction)
        assert np.array_equal(report.grid, curve.grid)
        assert np.array_equal(report.values, curve.log_values)
        xs, ys = curve.grid, curve.log_values
        chord = ys[:-2] + (ys[2:] - ys[:-2]) * (xs[1:-1] - xs[:-2]) / (xs[2:] - xs[:-2])
        sign = 1.0 if direction == "convex" else -1.0
        assert np.allclose(report.defects, sign * (chord - ys[1:-1]),
                           rtol=0.0, atol=1e-12)
        assert report.worst_defect == report.defects.min()
        assert report.worst_at == xs[1 + int(np.argmin(report.defects))]

    def test_validation(self):
        curve = moment_curve(exponential(), "raw", [1.0, 2.0])
        with pytest.raises(DomainError):
            check_convexity_direction(curve, "convex")
        curve3 = moment_curve(exponential(), "raw", [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            check_convexity_direction(curve3, "wavy")


TRIPLE_GRID = sorted({b + d for b in (1.5, 3.0, 5.0) for d in (-2.0, -1.0, -0.5,
                                                               -0.25, 0.0, 0.25,
                                                               0.5, 1.0, 2.0)
                      if b + d > 0.0})


def triple_margin(curve, a, b, c):
    """(a-c) L(b) - (b-c) L(a) - (a-b) L(c) at grid orders a > b > c: at
    least 0 exactly when the curve is concave across the triple."""
    va, vb, vc = (curve.log_values[list(curve.grid).index(q)] for q in (a, b, c))
    return (a - c) * vb - (b - c) * va - (a - b) * vc


class TestTriples:
    @pytest.mark.parametrize("density", positive_zoo(), ids=lambda d: d.name)
    @pytest.mark.parametrize("spacing", [0.25, 0.5, 1.0, 2.0])
    def test_normalized_margins(self, density, spacing):
        curve = moment_curve(density, "normalized", TRIPLE_GRID)
        for b in (1.5, 3.0, 5.0):
            if b - spacing <= 0.0:
                continue
            assert triple_margin(curve, b + spacing, b, b - spacing) >= -1e-7

    @pytest.mark.parametrize("spacing", [0.5, 1.0])
    def test_raw_margins_run_the_other_way(self, spacing):
        for density in (exponential(), gamma(2.0), uniform(0.0, 1.0)):
            curve = moment_curve(density, "raw", TRIPLE_GRID)
            # the raw curve is convex
            assert triple_margin(curve, 3.0 + spacing, 3.0, 3.0 - spacing) <= 1e-7

    def test_exponential_margin_is_zero(self):
        curve = moment_curve(exponential(), "normalized", [1.0, 2.0, 3.0])
        assert abs(triple_margin(curve, 3.0, 2.0, 1.0)) < 1e-7

    def test_uniform_margin_is_strictly_positive(self):
        curve = moment_curve(uniform(0.0, 1.0), "normalized", [1.0, 2.0, 3.0])
        # L(q) = -log(q+1) - lgamma(q+1), so 2 L(2) - L(3) - L(1) = log(4/3)
        assert abs(triple_margin(curve, 3.0, 2.0, 1.0) - math.log(4.0 / 3.0)) < 1e-7

    def test_gamma2_margin_frozen_value(self):
        # normalized curve of gamma(2) is log(q+1); margin at (3,2,1) is
        # 2 log 3 - log 4 - log 2 = log(9/8)
        curve = moment_curve(gamma(2.0), "normalized", [1.0, 2.0, 3.0])
        assert abs(triple_margin(curve, 3.0, 2.0, 1.0) - math.log(9.0 / 8.0)) < 1e-7


def khinchine_margins(density, grid):
    """p L(1) - L(p) on the normalized curve L of a grid that starts at 1."""
    curve = moment_curve(density, "normalized", grid)
    assert curve.grid[0] == 1.0
    return curve.grid * curve.log_values[0] - curve.log_values


class TestKhinchine:
    # E eta^p <= Gamma(p+1) (E eta)^p for p >= 1 is L(p) <= p L(1): the
    # concave normalized curve lies below its chord from L(0) = 0
    def test_exponential_is_extremal(self):
        margins = khinchine_margins(exponential(), list(np.arange(1.0, 10.5, 0.5)))
        assert np.max(np.abs(margins)) < 1e-7

    def test_uniform_margin_frozen_value(self):
        margins = khinchine_margins(uniform(0.0, 1.0), [1.0, 2.0, 3.0])
        assert np.min(margins) >= -1e-7
        assert abs(margins[1] - LOG_3_2) < 1e-8

    @pytest.mark.parametrize("density", positive_zoo(), ids=lambda d: d.name)
    def test_zoo_margins_nonnegative(self, density):
        margins = khinchine_margins(density, list(np.arange(1.0, 10.5, 0.5)))
        assert np.min(margins) >= -1e-7, (density.name, margins.min())


def cap_margins(report) -> dict:
    """Cap minus statistic for each cap of ``bounds.order_p_variance_caps``
    whose window holds the report's order."""
    return {name: cap - getattr(report, statistic) for name, (statistic, cap)
            in order_p_variance_caps(report.p).items()}


class TestOrderPVariance:
    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0, 10.0, 20.0])
    def test_gamma_is_extremal(self, p):
        report = order_p_variance_check(gamma(p))
        margins = cap_margins(report)
        assert all(m >= -report.tol for m in margins.values())
        # both the ratio and trigamma caps are equalities for gamma(p)
        assert abs(margins["ratio"]) < 1e-8
        assert abs(margins["trigamma"]) < 1e-7
        assert abs(report.ratio - 1.0 / p) < 1e-8
        assert abs(report.var_log - trigamma(p)) < 1e-7
        assert abs(report.mean - p) < 1e-7 * p
        if p > 1.0:
            assert margins["cp"] > 0.0
            assert margins["log_simple"] > 0.0
        else:
            assert "cp" not in margins
            assert "log_simple" not in margins

    def test_uniform_values(self):
        report = order_p_variance_check(uniform(0.0, 1.0))
        margins = cap_margins(report)
        assert all(m >= -report.tol for m in margins.values())
        assert abs(report.ratio - 1.0 / 3.0) < 1e-9
        # E log U = -1 and E log^2 U = 2
        assert abs(report.mean_log + 1.0) < 1e-9
        assert abs(report.var_log - 1.0) < 1e-8
        assert margins["ratio"] > 0.5

    def test_chi3_custom_density(self):
        report = order_p_variance_check(chi3())
        margins = cap_margins(report)
        assert all(m >= -report.tol for m in margins.values())
        assert report.p == 3.0
        assert abs(report.var_log - VAR_LOG_CHI3) < 1e-7
        assert abs(report.mean_log - MEAN_LOG_CHI3) < 1e-7
        # strictly inside every cap
        assert margins["trigamma"] > 0.1
        assert margins["ratio"] > 0.05

    def test_requires_declared_order(self):
        with pytest.raises(DomainError):
            order_p_variance_check(gaussian1d())


class TestQuantileDensityConcavity:
    LEVELS = list(np.arange(0.05, 0.96, 0.05))

    @pytest.mark.parametrize("density", standard_zoo(), ids=lambda d: d.name)
    def test_zoo_is_concave(self, density):
        report = quantile_density_concavity(density, self.LEVELS)
        assert report.ok, report

    def test_exponential_is_linear(self):
        # I(t) = 1 - t exactly
        report = quantile_density_concavity(exponential(), self.LEVELS)
        assert abs(report.worst_defect) < 1e-9
        assert np.allclose(report.values, 1.0 - report.grid, rtol=0.0,
                           atol=1e-12)
        assert report.defects.shape == (len(self.LEVELS) - 2,)

    def test_detects_log_convex_tail(self):
        # f(x) = 2 exp(-2 sqrt(x)) is not log-concave and its quantile
        # density is convex, so the checker must flag it.  from_log_density
        # refuses it, so it is built here: 2 sqrt(X) is gamma(2), whence
        # the entropy 2 - log 2 and, with the lower branch of Lambert's W,
        # the quantile s^2 / 4, s = -1 - W(-(1 - t) / e)
        def quantile(t):
            s = -1.0 - lambertw(-(1.0 - t) / math.e, k=-1).real
            return 0.25 * s * s

        heavy = Density1D(
            name="sqrt_tail", support=(0.0, math.inf),
            entropy=2.0 - math.log(2.0), mode=0.0,
            spec={"family": "custom", "params": {"name": "sqrt_tail"}},
            _log_pdf=lambda x: math.log(2.0) - 2.0 * np.sqrt(x),
            _quantile=quantile)
        report = quantile_density_concavity(heavy, self.LEVELS)
        assert not report.ok
        assert report.worst_defect < -1e-6

    def test_validation(self):
        d = exponential()
        with pytest.raises(DomainError):
            quantile_density_concavity(d, [0.2, 0.4])
        with pytest.raises(DomainError):
            quantile_density_concavity(d, [0.4, 0.2, 0.6])
        with pytest.raises(DomainError):
            quantile_density_concavity(d, [0.0, 0.5, 0.9])
