"""Tests for the closed-form bound evaluators and the verdict comparator.

Frozen reference values were computed independently (high-precision
arithmetic, closed forms rearranged by hand) before the module was written.
"""
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from infoconc.bounds import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    Bound,
    catalog,
    compare,
    entropy_power_floor,
    exact_verdict,
    exp_tail_bound,
    gaussian_tail_bound,
    log_cp,
    mgf_bound_nd,
    order_p_variance_caps,
    per_coordinate_tail_bound,
    variance_cap_nd,
)
from infoconc.cli import _EXPERIMENTS
from infoconc.numerics import DomainError, trigamma

# Frozen constants.
CROSSOVER = 3.095658245942757        # root of t^2 - t = 16 log(3/2)
CP_AT_2 = 1.6875                     # 27/16
FIXED_SCALE_CHAIN = 1.4009534943137194   # (3 e^{1/4})^{1/4}


def interval(lo, hi):
    return SimpleNamespace(ci_low=lo, ci_high=hi)


class TestTailBounds:
    def test_exp_tail_values(self):
        assert exp_tail_bound(0.0).value == 2.0
        assert abs(exp_tail_bound(16.0).value - 2.0 / math.e) < 1e-15
        assert abs(exp_tail_bound(8.0).value - 2.0 * math.exp(-0.5)) < 1e-15

    def test_exp_tail_decreasing(self):
        ts = np.arange(0.0, 12.5, 0.5)
        vals = [exp_tail_bound(t).value for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exp_tail_negative_threshold(self):
        with pytest.raises(DomainError):
            exp_tail_bound(-0.1)

    def test_gaussian_tail_values(self):
        b = gaussian_tail_bound(0.0, 16)
        assert b.value == 3.0 and b.in_window
        b = gaussian_tail_bound(4.0, 4)
        assert abs(b.value - 3.0 * math.exp(-1.0)) < 1e-15
        assert b.in_window  # t = 2 sqrt(n) sits on the boundary

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_gaussian_tail_window(self, n):
        edge = 2.0 * math.sqrt(n)
        assert gaussian_tail_bound(edge, n).in_window
        assert not gaussian_tail_bound(edge + 0.01, n).in_window

    def test_gaussian_tail_domain(self):
        with pytest.raises(DomainError):
            gaussian_tail_bound(-1.0, 4)
        with pytest.raises(DomainError):
            gaussian_tail_bound(1.0, 0)

    def test_per_coordinate_matches_gaussian_form(self):
        # same curve under t = s sqrt(n)
        for n in (4, 16, 64):
            for s in (0.0, 0.5, 1.0, 2.0):
                a = per_coordinate_tail_bound(s, n).value
                b = gaussian_tail_bound(s * math.sqrt(n), n).value
                assert abs(a - b) < 1e-12 * max(a, 1.0)

    def test_per_coordinate_window(self):
        assert per_coordinate_tail_bound(2.0, 8).in_window
        assert not per_coordinate_tail_bound(2.1, 8).in_window

    @pytest.mark.parametrize("s, n", [(0.1, 4), (1.0, 64), (2.0, 8), (2.1, 8)])
    def test_entropy_power_floor_is_the_tail_complement(self, s, n):
        tail = per_coordinate_tail_bound(s, n)
        floor = entropy_power_floor(s, n)
        assert floor.value == 1.0 - tail.value
        assert floor.in_window == tail.in_window

    def test_crossover_against_root_finder(self):
        # locate where the two tail curves cross: log(exp form / gaussian
        # form) = log(2/3) - t/16 + t^2/16 increases past t = 1/2
        def log_ratio(t):
            return (math.log(exp_tail_bound(t).value)
                    - math.log(gaussian_tail_bound(t, 64).value))
        # Brent's method with xtol 1e-13 (1 + |a| + |b|) on the bracket [1, 10]
        root = brentq(log_ratio, 1.0, 10.0, xtol=1e-13 * 12.0, rtol=8.9e-16,
                      maxiter=200)
        assert abs(root - CROSSOVER) < 1e-10

    def test_ordering_flips_at_crossover(self):
        ts = CROSSOVER
        for t in (0.0, 1.0, ts - 0.01):
            assert exp_tail_bound(t).value < gaussian_tail_bound(t, 64).value
        for t in (ts + 0.01, 4.0, 8.0):
            assert exp_tail_bound(t).value > gaussian_tail_bound(t, 64).value

class TestMgfBounds:
    def test_dimensional_values(self):
        b = mgf_bound_nd(0.0, 4)
        assert b.value == 3.0 and b.in_window
        b = mgf_bound_nd(0.5, 4)
        assert abs(b.value - 3.0 * math.e) < 1e-12
        assert b.in_window  # alpha = sqrt(4)/4 boundary

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
    def test_dimensional_window(self, n):
        edge = 0.25 * math.sqrt(n)
        assert mgf_bound_nd(edge, n).in_window
        assert not mgf_bound_nd(edge + 0.01, n).in_window

    def test_dimensional_overflow_is_inf(self):
        # e^(4 alpha^2) passes the largest double at alpha ~ 13.32, inside
        # the window sqrt(4096)/4 = 16
        b = mgf_bound_nd(14.0, 4096)
        assert b.value == math.inf and b.in_window
        assert mgf_bound_nd(13.0, 4096).value == 3.0 * math.exp(676.0)

    def test_dimensional_domain(self):
        with pytest.raises(DomainError):
            mgf_bound_nd(-0.1, 4)
        with pytest.raises(DomainError):
            mgf_bound_nd(0.5, 0)

    def test_fixed_scale_from_jensen_chain(self):
        # At alpha = 1/4 the dimensional bound is 3 e^{1/4} for every n,
        # and Jensen at a quarter of that scale gives (3 e^{1/4})^{1/4} < 2.
        for n in (1, 4, 64):
            b = mgf_bound_nd(0.25, n)
            assert abs(b.value - 3.0 * math.exp(0.25)) < 1e-14
            assert b.in_window
        chained = mgf_bound_nd(0.25, 1).value ** 0.25
        assert abs(chained - FIXED_SCALE_CHAIN) < 1e-14
        assert chained < 2.0


class TestVarianceCaps:
    def test_cp_at_two(self):
        assert abs(math.exp(log_cp(2.0)) - CP_AT_2) < 1e-14

    def test_cp_limit_toward_one(self):
        # C_p -> 4 as p -> 1+ ((p-1)^(p-1) -> 1)
        assert abs(math.exp(log_cp(1.0 + 1e-9)) - 4.0) < 1e-6

    @pytest.mark.parametrize("p", [8.0, 16.0, 32.0, 64.0])
    def test_cp_asymptotics(self, p):
        # log C_p = 1/p + 1/(6 p^3) + O(p^-5)
        assert abs(log_cp(p) - 1.0 / p) <= 0.2 / p**3

    def test_log_cp_domain(self):
        with pytest.raises(DomainError):
            log_cp(1.0)
        with pytest.raises(DomainError):
            log_cp(0.5)

    def test_caps_at_one(self):
        # cp and log_simple need p > 1: absent, not None
        caps = order_p_variance_caps(1.0)
        assert list(caps) == ["ratio", "trigamma"]
        assert caps["ratio"] == ("ratio", 1.0)
        statistic, cap = caps["trigamma"]
        assert statistic == "var_log"
        assert abs(cap - math.pi**2 / 6.0) < 1e-12

    def test_caps_at_two(self):
        caps = order_p_variance_caps(2.0)
        assert list(caps) == ["ratio", "cp", "trigamma", "log_simple"]
        assert caps["ratio"] == ("ratio", 0.5)
        assert caps["cp"][0] == "ratio"
        assert abs(caps["cp"][1] - 0.6875) < 1e-14
        assert caps["log_simple"] == ("var_log", 1.0)
        assert caps["trigamma"][0] == "var_log"
        assert abs(caps["trigamma"][1] - trigamma(2.0)) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0])
    def test_cap_orderings(self, p):
        cap = {name: value for name, (_, value)
               in order_p_variance_caps(p).items()}
        # trigamma is the sharper log-variance cap
        assert cap["trigamma"] < cap["log_simple"]
        # the triple-based mean cap is coarser than 1/p
        assert cap["cp"] > cap["ratio"]

    def test_caps_domain(self):
        with pytest.raises(DomainError):
            order_p_variance_caps(0.9)

    def test_dimensional_variance_cap(self):
        for n in (4, 16, 64, 1024):
            assert abs(variance_cap_nd(n).value - 48.0 * n / math.e) < 1e-9 * n
        # below n = 4 the optimizing alpha is sqrt(n)/4, not 1/2
        assert abs(variance_cap_nd(1).value - 33.364597142485465) < 1e-12
        assert variance_cap_nd(1).value > 48.0 / math.e
        with pytest.raises(DomainError):
            variance_cap_nd(0)


class TestCompare:
    def test_upper_holds(self):
        v = compare(interval(0.01, 0.02), Bound(0.05, trivial=1.0))
        assert v.verdict == HOLDS
        assert not v.vacuous
        assert abs(v.margin - 0.03) < 1e-15

    def test_upper_violated(self):
        v = compare(interval(0.08, 0.09), Bound(0.05))
        assert v.verdict == VIOLATED
        assert v.margin < 0.0

    def test_upper_inconclusive(self):
        v = compare(interval(0.04, 0.06), Bound(0.05))
        assert v.verdict == INCONCLUSIVE

    def test_upper_boundary_holds(self):
        v = compare(interval(0.04, 0.05), Bound(0.05))
        assert v.verdict == HOLDS
        assert v.margin == 0.0

    def test_upper_vacuous_keeps_mechanical_verdict(self):
        # a probability bound above 1 is tagged but still compared
        v = compare(interval(0.97, 0.999), Bound(2.0, trivial=1.0))
        assert v.verdict == HOLDS
        assert v.vacuous

    @pytest.mark.parametrize("hi", [2.0, math.inf])
    def test_upper_infinite_bound_certifies_nothing(self, hi):
        v = compare(interval(1.5, hi), Bound(math.inf))
        assert v.vacuous
        assert v.verdict == INCONCLUSIVE

    def test_upper_bound_exactly_trivial_not_tagged(self):
        v = compare(interval(0.5, 0.6), Bound(1.0, trivial=1.0))
        assert not v.vacuous

    def test_lower_holds(self):
        v = compare(interval(0.95, 0.97), Bound(0.9, True, "lower", 0.0))
        assert v.verdict == HOLDS
        assert abs(v.margin - 0.05) < 1e-15
        assert not v.vacuous

    def test_lower_violated(self):
        v = compare(interval(0.80, 0.85), Bound(0.9, direction="lower"))
        assert v.verdict == VIOLATED

    def test_lower_inconclusive(self):
        v = compare(interval(0.89, 0.91), Bound(0.9, direction="lower"))
        assert v.verdict == INCONCLUSIVE

    def test_lower_vacuous_forces_inconclusive(self):
        # a negative lower bound on a probability certifies nothing
        v = compare(interval(0.99, 1.0), Bound(-1.99, True, "lower", 0.0))
        assert v.vacuous
        assert v.verdict == INCONCLUSIVE

    def test_unknown_direction(self):
        with pytest.raises(DomainError):
            Bound(0.5, direction="middle")

    @pytest.mark.parametrize("in_window", [True, False])
    def test_window_is_carried_not_judged(self, in_window):
        v = compare(interval(0.01, 0.02), Bound(0.05, in_window, trivial=1.0))
        assert v.in_window is in_window
        assert v.verdict == HOLDS

    @pytest.mark.parametrize("bound, direction, trivial", [
        (exp_tail_bound(1.0), "upper", 1.0),
        (gaussian_tail_bound(1.0, 4), "upper", 1.0),
        (per_coordinate_tail_bound(1.0, 4), "upper", 1.0),
        (entropy_power_floor(1.0, 4), "lower", 0.0),
        (mgf_bound_nd(0.5, 4), "upper", None),
        (variance_cap_nd(4), "upper", None),
    ], ids=["exp_tail", "gaussian_tail", "per_coordinate_tail",
            "entropy_power_floor", "mgf_nd", "variance_nd"])
    def test_each_bound_states_its_direction_and_trivial_value(
            self, bound, direction, trivial):
        assert (bound.direction, bound.trivial) == (direction, trivial)


class TestExactVerdict:
    def test_margin_within_tolerance_holds(self):
        assert exact_verdict(0.25, 1e-9, True) == HOLDS
        assert exact_verdict(-1e-9, 1e-9, True) == HOLDS

    def test_margin_beyond_tolerance_is_violated(self):
        assert exact_verdict(-2e-9, 1e-9, True) == VIOLATED

    def test_unconverged_certifies_nothing(self):
        assert exact_verdict(0.25, 1e-9, False) == INCONCLUSIVE
        assert exact_verdict(-1.0, 1e-9, False) == INCONCLUSIVE


class TestCatalog:
    def test_size_and_uniqueness(self):
        entries = catalog()
        assert len(entries) == 10
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)

    def test_fields_populated(self):
        for e in catalog():
            d = e.as_dict()
            assert set(d) == {"name", "formula", "validity", "statement"}
            for v in d.values():
                assert isinstance(v, str) and v

    def test_expected_members(self):
        assert {e.name for e in catalog()} == {
            "information_tail_exp",
            "information_tail_gaussian",
            "per_coordinate_tail",
            "order_p_var_ratio",
            "order_p_var_cp",
            "order_p_var_log_trigamma",
            "order_p_var_log_simple",
            "information_mgf_nd",
            "entropy_power_band",
            "information_variance_nd",
        }

    def test_experiments_certify_catalog_entries(self):
        # the catalog states exactly the bounds the experiments certify
        names = {e.name for e in catalog()}
        certified = set().union(*(e.bounds for e in _EXPERIMENTS.values()))
        assert names == certified

    def test_json_serializable_and_stable(self):
        payload = [e.as_dict() for e in catalog()]
        first = json.dumps(payload, sort_keys=True)
        second = json.dumps([e.as_dict() for e in catalog()], sort_keys=True)
        assert first == second
        assert json.loads(first) == payload
