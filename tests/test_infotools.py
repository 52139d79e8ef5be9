"""Tests for the Monte Carlo estimation layer.

Oracles: Wilson interval values recomputed from the closed form, exact
chi-square tails for the standard normal (deviations are (chi2_n - n)/2),
and the exponential's two-sided moment function

    E exp(a |X - 1|) = e^a (1 - e^-(1+a))/(1+a) + e^-1/(1-a),  0 <= a < 1,

all frozen below before the module was written.  The reductions as first
written, with two exps per MGF point and the fourth moment through pow, are
kept below as the reference for the one-buffer versions.
"""
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import chdtr, chdtrc, ndtri, polygamma
from scipy.stats import ks_2samp

import infoconc.distributions
from infoconc.bounds import (HOLDS, INCONCLUSIVE, Bound, compare,
                             entropy_power_floor, mgf_bound_nd)
from infoconc.distributions import (
    AffineMap,
    ModelND,
    ParameterError,
    Product,
    RngStream,
    exponential,
    gamma,
    gaussian1d,
    model_from_spec,
)
from infoconc.infotools import (
    BLOCK_SIZE,
    InfoSampleBatch,
    McEstimate,
    _z_value,
    deviation_mean,
    deviation_variance,
    empirical_mgf,
    empirical_tail,
    entropy_power_band,
    sample_information,
)
from infoconc.numerics import DomainError, NumericsError

# Frozen reference values.
Z_999 = 3.2905267314918945            # sqrt(2) erfinv(0.999)
WILSON_ZERO_HIGH_1E6 = 1.0827448935743123e-05
EXP_MGF_025 = 1.2234227019749624
EXP_MGF_05 = 1.5896534353620084
TYPICAL_BOUND_01_4 = -1.9925093671923801


def gaussian_abs_tail(n, thr):
    """Exact P{|dev| >= thr} for the standard normal in R^n."""
    if thr <= 0.0:
        return 1.0
    upper = chdtrc(n, n + 2.0 * thr)
    lower = chdtr(n, n - 2.0 * thr) if n - 2.0 * thr > 0.0 else 0.0
    return float(upper + lower)


class NonFiniteModel(ModelND):
    """No law part, and a log-density of inf and NaN at its draws."""

    dim, entropy, spec = 1, 0.0, {}

    def sample(self, gen, size):
        return gen.random((size, 1))

    def log_density(self, x):
        return np.where(np.arange(len(x)) % 2, np.inf, np.nan)


def standard_normal(n: int):
    """The standard normal in R^n, as the ``gaussian`` spec builds it."""
    return model_from_spec({"family": "gaussian", "params": {"dim": n}})


def make_batch(deviations, dim=1):
    deviations = np.asarray(deviations, dtype=float)
    return InfoSampleBatch(dim=dim, deviations=deviations)


class TestMcEstimate:
    def test_wilson_zero_successes(self):
        est = McEstimate.from_proportion(0, 10**6)
        assert est.value == 0.0
        assert est.ci_low == 0.0
        assert abs(est.ci_high - WILSON_ZERO_HIGH_1E6) < 1e-18

    def test_wilson_all_successes(self):
        est = McEstimate.from_proportion(10**6, 10**6)
        assert est.value == 1.0
        assert est.ci_high == 1.0
        assert est.ci_low > 1.0 - 2e-5

    def test_wilson_against_closed_form(self):
        m, k, conf = 5000, 1234, 0.99
        est = McEstimate.from_proportion(k, m, conf)
        z = float(ndtri(0.995))
        phat = k / m
        denom = 1.0 + z * z / m
        center = (phat + z * z / (2 * m)) / denom
        half = z * math.sqrt(phat * (1 - phat) / m + z * z / (4 * m * m)) / denom
        assert abs(est.ci_low - (center - half)) < 1e-15
        assert abs(est.ci_high - (center + half)) < 1e-15
        assert abs(est.value - phat) < 1e-15

    def test_wilson_coverage(self):
        # the 95 percent interval should cover the truth ~95 percent of the
        # time; 1000 replications put the failure probability far below 1e-6
        gen = RngStream(seed=77).generator()
        p_true, m = 0.3, 200
        covered = 0
        draws = gen.binomial(m, p_true, size=1000)
        for k in draws:
            est = McEstimate.from_proportion(int(k), m, confidence=0.95)
            covered += est.ci_low <= p_true <= est.ci_high
        assert covered >= 910

    def test_z_value_matches_ndtri(self):
        # the oracle is sqrt(2) erfinv(c) at the exact binary c: the float
        # level 0.5 * (1 + c) rounds away the low bits of the tail, which
        # put ndtri(0.9995) 9.4e-15 from the quantile at c = 0.999
        assert _z_value(0.999) == Z_999
        with mp.workdps(40):
            for c in [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9995,
                      0.9999, 0.99999, 0.999999, 1.0 - 1e-9, 1.0 - 1e-12]:
                want = float(mp.sqrt(2) * mp.erfinv(mp.mpf(c)))
                assert abs(_z_value(c) - want) <= 2 * math.ulp(want)

    def test_mean_interval(self):
        est = deviation_mean(make_batch([1.0, 2.0, 3.0, 4.0]), 0.999)
        assert abs(est.value - 2.5) < 1e-15
        se = np.std([1.0, 2.0, 3.0, 4.0], ddof=1) / 2.0
        assert abs(est.std_error - se) < 1e-15
        assert abs(est.ci_high - (2.5 + Z_999 * se)) < 1e-12
        assert abs(est.ci_low - (2.5 - Z_999 * se)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            McEstimate.from_proportion(1, 0)
        with pytest.raises(DomainError):
            McEstimate.from_proportion(5, 4)
        with pytest.raises(DomainError):
            McEstimate.from_proportion(1, 10, confidence=1.0)
        with pytest.raises(DomainError):
            deviation_mean(make_batch([1.0]))


AFFINE_EXP16 = {"family": "affine", "params": {
    "base": {"family": "product", "params": {
        "component": {"family": "exponential"}, "copies": 16}},
    "matrix": (np.eye(16) + 0.25 * np.tri(16, k=-1)
               - 0.125 * np.tri(16, k=-1).T).tolist(),
    "shift": np.linspace(-1.0, 1.0, 16).tolist()}}

# models with an information law, and their shapes K
LAW_MODELS = {
    "gauss64": ({"family": "gaussian", "params": {"dim": 64}}, 32.0),
    "gausscov16": ({"family": "gaussian", "params": {
        "cov_factor": (np.eye(16) + 0.5 * np.tri(16, k=-1)).tolist()}}, 8.0),
    "affine_exp16": (AFFINE_EXP16, 16.0),
    "exp64": ({"family": "product", "params": {
        "component": {"family": "exponential"}, "copies": 64}}, 64.0),
    "mixed_law": ({"family": "product", "params": {"components": [
        {"family": "exponential"},
        {"family": "gaussian1d", "params": {"mu": 1.0, "sigma": 2.0}},
        {"family": "laplace"}, {"family": "uniform", "params": {"a": -1.0, "b": 2.0}},
        {"family": "half_normal"}]}}, 3.0),
    "ball16": ({"family": "ball_uniform", "params": {"dim": 16}}, 0.0),
}
LAW_M = 4000
GAMMA2_X64 = {"family": "product", "params": {
    "component": {"family": "gamma", "params": {"p": 2.0}}, "copies": 64}}
# every 1-D family in one product
ZOO6 = {"family": "product", "params": {"components": [
    {"family": "exponential"}, {"family": "gamma", "params": {"p": 3.0}},
    {"family": "gaussian1d"}, {"family": "laplace"},
    {"family": "uniform"}, {"family": "half_normal"}]}}
MIXPROD8 = {"family": "product", "params": {"components": [
    {"family": "exponential"},
    {"family": "gamma", "params": {"p": 3.0}},
    {"family": "gaussian1d", "params": {"mu": 0.0, "sigma": 1.0}},
    {"family": "laplace"},
    {"family": "uniform", "params": {"a": 0.0, "b": 1.0}},
    {"family": "half_normal"},
    {"family": "gaussian1d", "params": {"mu": 1.0, "sigma": 2.0}},
    {"family": "uniform", "params": {"a": -1.0, "b": 2.0}}]}}
AFFINE_GAMMA2X4 = {"family": "affine", "params": {
    "base": {"family": "product", "params": {
        "component": {"family": "gamma", "params": {"p": 2.0}}, "copies": 4}},
    "matrix": (np.eye(4) + 0.5 * np.tri(4, k=-1)).tolist(),
    "shift": [1.0, -2.0, 0.5, 0.0]}}

# models whose deviations split into a Gamma(K, 1) - K law part and the
# deviations of gamma(p) columns: spec, K and the columns' shapes p
SPLIT_MODELS = {
    "zoo6": (ZOO6, 3.0, [3.0]),
    "mixprod8": (MIXPROD8, 3.5, [3.0]),
    "affine_gamma2x4": (AFFINE_GAMMA2X4, 0.0, [2.0] * 4),
}


class TestSampleInformation:
    def test_exponential_support_bound(self):
        # dev = X - 1 for the standard exponential, so dev >= -1 always
        batch = sample_information(Product([(exponential(), 1)]), 20000, RngStream(1))
        assert batch.dim == 1
        assert batch.m == 20000
        assert np.all(batch.deviations >= -1.0 - 1e-12)
        assert abs(batch.deviations.mean()) < 5.0 / math.sqrt(20000)

    def test_reproducible(self):
        model = Product([(gamma(2.0), 3)])
        a = sample_information(model, 5000, RngStream(42, stream_id=7))
        b = sample_information(model, 5000, RngStream(42, stream_id=7))
        assert np.array_equal(a.deviations, b.deviations)

    def test_streams_differ(self):
        model = Product([(exponential(), 2)])
        a = sample_information(model, 4000, RngStream(42, stream_id=0))
        b = sample_information(model, 4000, RngStream(42, stream_id=1))
        c = sample_information(model, 4000, RngStream(43, stream_id=0))
        assert not np.array_equal(a.deviations, b.deviations)
        assert not np.array_equal(a.deviations, c.deviations)

    def test_worker_count_invariance(self):
        model = standard_normal(4)
        m = 3 * BLOCK_SIZE + 17
        a = sample_information(model, m, RngStream(9), workers=1)
        b = sample_information(model, m, RngStream(9), workers=2)
        c = sample_information(model, m, RngStream(9), workers=5)
        assert np.array_equal(a.deviations, b.deviations)
        assert np.array_equal(a.deviations, c.deviations)

    @pytest.mark.parametrize("spec", [
        LAW_MODELS["exp64"][0],
        AFFINE_EXP16,
        LAW_MODELS["ball16"][0],
        ZOO6,
        GAMMA2_X64,
        MIXPROD8,
        AFFINE_GAMMA2X4,
    ], ids=["exp64", "affine_exp16", "ball16", "mixed6", "gamma2x64",
            "mixprod8", "affine_gamma2x4"])
    def test_row_chunks_keep_worker_count_invariance(self, spec):
        # a block is one Gamma draw from its own counter offset, then the
        # rest's row chunks, all of them in order from the same generator:
        # the law, split, pass-through and whole-model routes
        model = model_from_spec(spec)
        m = 2 * BLOCK_SIZE + 777
        ref = sample_information(model, m, RngStream(6), workers=1).deviations
        for workers in (2, 5):
            got = sample_information(model, m, RngStream(6), workers=workers)
            assert got.deviations.tobytes() == ref.tobytes()

    def test_block_memory_is_a_few_chunks(self):
        # a whole 65536 x 64 block of points would be 32 MB, and its
        # log-density temporaries as much again; the 2^17 deviations are 1 MB
        model = model_from_spec(GAMMA2_X64)
        tracemalloc.start()
        try:
            sample_information(model, 2 * BLOCK_SIZE, RngStream(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_wide_rest_memory_is_a_few_pieces(self):
        # a rest wider than _CHUNK_ELEMENTS columns is drawn a row at a time
        # in column pieces; one whole 2^20-column row of points is 8 MB, and
        # its log-density temporaries as much again
        model = Product([(gamma(2.0), 2**20)])
        tracemalloc.start()
        try:
            sample_information(model, 2, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_wide_rest_that_is_not_a_product(self, model_route):
        # a rest past _CHUNK_ELEMENTS columns that is not a Product draws a
        # row at a time through its own sample and log_density: the stream
        # of the product's column pieces, with only the row sums' rounding
        # moved, and one 1 MB row of points, not the block
        product = Product([(gamma(2.0), 2**17 + 3)])
        want = sample_information(product, 2, RngStream(3)).deviations
        whole = model_route(product)
        tracemalloc.start()
        try:
            got = sample_information(whole, 2, RngStream(3)).deviations
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert whole.calls["sample"] == whole.calls["log_density"] == 2
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("case", ["one_run", "two_rows_a_chunk",
                                      "two_runs", "affine_image"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rest_that_is_not_a_product_keeps_the_row_chunk_bytes(
            self, workers, case, model_route, monkeypatch):
        # ModelND's default draw_deviations takes the row chunks of a
        # Product's one loop: the same draws in the same chunks, bit for bit
        # for one run, at the default cut or at a cut of 7 values (chunks of
        # two 3-column rows); two runs are summed run by run, so only the
        # rounding moves.  An affine image draws its base's deviations
        two_runs = [(gamma(2.0), 3), (gamma(3.0), 2)]
        product = Product({"one_run": [(gamma(2.0), 16)],
                           "two_rows_a_chunk": [(gamma(2.0), 3)],
                           "two_runs": two_runs, "affine_image": two_runs}[case])
        if case == "two_rows_a_chunk":
            monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", 7)
        other = (AffineMap(product, 2.0 * np.eye(product.dim))
                 if case == "affine_image" else model_route(product))
        m = 70_000
        want = sample_information(product, m, RngStream(13), workers=workers)
        got = sample_information(other, m, RngStream(13), workers=workers)
        if case == "two_runs":
            assert np.abs(got.deviations - want.deviations).max() <= 1e-12
        else:
            assert got.deviations.tobytes() == want.deviations.tobytes()

    def test_column_pieces_of_one_run_move_only_rounding(self, monkeypatch):
        # cut into column pieces of at most 7 values, a one-run rest reads
        # the same stream in the same order as its row chunks: only the
        # rounding of the sums moves
        model = Product([(gamma(2.0), 20)])
        want = sample_information(model, 1000, RngStream(5)).deviations
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", 7)
        got = sample_information(model, 1000, RngStream(5)).deviations
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("budget", [1, 3, 8])
    def test_column_pieces_match_one_row_chunks(self, monkeypatch, budget):
        # at a budget of the rest's width each row chunk is one row, its
        # runs drawn in column order; a smaller budget cuts each run into
        # column pieces of the same stream, with the law columns' one Gamma
        # draw first either way
        model = Product([(gamma(2.0), 5), (exponential(), 3), (gamma(5.0), 4),
                         (gamma(1.5), 9)])
        assert sum(k for d, k in model.runs if d.info_shape is None) == 18
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", 18)
        want = sample_information(model, 500, RngStream(6)).deviations
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", budget)
        got = sample_information(model, 500, RngStream(6)).deviations
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("make", ["affine", "cov_factor"])
    def test_shared_linear_factors_are_thread_safe(self, make, model_route):
        # Both models share one inverted matrix between the pool threads.
        # A factorization whose solve wrote shared state (lu_solve on one
        # lu_factor pair) once made these runs differ.
        gen = np.random.default_rng(5)
        full = np.eye(16) + 0.5 * gen.standard_normal((16, 16))
        model = (AffineMap(Product([(exponential(), 16)]), full)
                 if make == "affine" else model_from_spec(
                     {"family": "gaussian", "params": {"cov_factor": full.tolist()}}))
        model = model_route(model)
        m = 2 * BLOCK_SIZE + 513
        ref = sample_information(model, m, RngStream(3), workers=1).deviations
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                got = sample_information(model, m, RngStream(3), workers=2)
                assert got.deviations.tobytes() == ref.tobytes()
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gaussian_mean_and_factor_is_the_affine_image(self, workers,
                                                          model_route):
        # one linear-map path: the gaussian spelling and the explicit affine
        # image of the standard normal give the same deviation bytes, on
        # the model route too
        gen = np.random.default_rng(7)
        t = (np.eye(5) + 0.5 * gen.standard_normal((5, 5))).tolist()
        mu = gen.standard_normal(5).tolist()
        gaussian = {"family": "gaussian", "params": {"mean": mu, "cov_factor": t}}
        affine = {"family": "affine", "params": {
            "base": {"family": "gaussian", "params": {"dim": 5}},
            "matrix": t, "shift": mu}}
        m = BLOCK_SIZE + 999
        for route in (lambda model: model, model_route):
            a = sample_information(route(model_from_spec(gaussian)), m,
                                   RngStream(4), workers=workers)
            b = sample_information(route(model_from_spec(affine)), m,
                                   RngStream(4), workers=workers)
            assert a.deviations.tobytes() == b.deviations.tobytes()

    def test_mean_only_gaussian_is_the_identity_affine_image(self):
        mu = [0.5, -1.0, 2.0]
        gaussian = {"family": "gaussian", "params": {"mean": mu}}
        affine = {"family": "affine", "params": {
            "base": {"family": "gaussian", "params": {"dim": 3}},
            "matrix": np.eye(3).tolist(), "shift": mu}}
        a = sample_information(model_from_spec(gaussian), 5000, RngStream(4))
        b = sample_information(model_from_spec(affine), 5000, RngStream(4))
        assert np.array_equal(a.deviations, b.deviations)

    # a non-finite 1-D or gaussian parameter is refused where the model is
    # built; a model whose own log-density is not finite at its draws
    # reaches the one isfinite pass of the sampler
    @pytest.mark.parametrize("build,error", [
        (lambda: model_from_spec({"family": "gaussian", "params": {
            "dim": 2, "mean": [0.0, math.nan]}}), ParameterError),
        (lambda: model_from_spec({"family": "uniform", "params": {
            "a": -math.inf, "b": 0.0}}), ParameterError),
        (lambda: model_from_spec({"family": "gaussian1d", "params": {
            "mu": math.nan}}), ParameterError),
        (NonFiniteModel, NumericsError),
    ], ids=["gaussian_nan_mean", "uniform_infinite_end", "gaussian1d_nan_mu",
            "non_finite_log_density"])
    def test_non_finite_deviations_raise(self, build, error):
        with pytest.raises(error):
            sample_information(build(), 1000, RngStream(1))

    def test_overflowing_gaussian_deviations_are_its_law(self):
        # its points overflow, but its deviations are Gamma(1, 1) - 1 in law
        # and never formed from the points
        model = model_from_spec({"family": "gaussian", "params": {
            "mean": [1.5e308, 0.0], "cov_factor": [[1e308, 0.0], [0.0, 1.0]]}})
        dev = sample_information(model, 1000, RngStream(1)).deviations
        assert np.isfinite(dev).all() and dev.min() >= -1.0

    @pytest.mark.parametrize("name", sorted(LAW_MODELS))
    def test_law_route_matches_model_route(self, name, model_route):
        # the law route against the model's own draws (KS), and both against
        # the exact mean 0 and variance K of Gamma(K, 1) - K
        spec, k = LAW_MODELS[name]
        model = model_from_spec(spec)
        assert model.info_shape == k
        law = sample_information(model, LAW_M, RngStream(61)).deviations
        points = sample_information(model_route(model), LAW_M,
                                    RngStream(61, stream_id=1)).deviations
        if k == 0.0:  # the density is constant on the support
            assert not law.any() and not points.any()
            return
        assert ks_2samp(law, points).pvalue > 1e-3
        # the sample variance of Gamma(K) has excess kurtosis 6 / K
        slack = 5.0 * k * math.sqrt((2.0 + 6.0 / k) / LAW_M)
        for dev in (law, points):
            assert abs(dev.mean()) < 5.0 * math.sqrt(k / LAW_M)
            assert abs(dev.var() - k) < slack

    @pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
    def test_split_matches_model_route(self, name, model_route):
        # the split route against the model's own draws (KS), and both
        # against mean 0 and the exact variance: K for the law part, and
        # Var(X - (p - 1) log X) = 2 - p + (p - 1)^2 psi'(p) for a gamma(p)
        # column, since Cov(X, log X) = 1 for X ~ Gamma(p, 1)
        spec, k, shapes = SPLIT_MODELS[name]
        var = k + sum(2.0 - p + (p - 1.0) ** 2 * float(polygamma(1, p))
                      for p in shapes)
        model = model_from_spec(spec)
        split = sample_information(model, LAW_M, RngStream(62)).deviations
        points = sample_information(model_route(model), LAW_M,
                                    RngStream(62, stream_id=1)).deviations
        assert ks_2samp(split, points).pvalue > 1e-3
        for dev in (split, points):
            assert abs(dev.mean()) < 5.0 * math.sqrt(var / LAW_M)
            centered = dev - dev.mean()
            s2 = float(np.mean(centered ** 2))
            se = math.sqrt((float(np.mean(centered ** 4)) - s2 * s2) / LAW_M)
            assert abs(s2 - var) < 5.0 * se

    @pytest.mark.parametrize("spec", [LAW_MODELS["gauss64"][0], AFFINE_EXP16,
                                      MIXPROD8, AFFINE_GAMMA2X4],
                             ids=["gauss64", "affine_exp16", "mixprod8",
                                  "affine_gamma2x4"])
    def test_model_route_draws_the_points(self, spec, model_route):
        # the fixture's model is sampled and evaluated, whatever law or rest
        # the model it wraps has
        whole = model_route(model_from_spec(spec))
        sample_information(whole, 1000, RngStream(63))
        assert whole.calls["sample"] > 0 and whole.calls["log_density"] > 0

    def test_affine_image_deviations_are_the_base_deviations(self):
        # -log f_Y(AX + b) - h_Y = -log f_X(X) - h_X at every point, so the
        # image draws its base and no point goes through the matrix
        base = Product([(gamma(2.0), 2)])
        image = AffineMap(base, [[2.0, 0.0], [1.0, 1.0]], [0.5, -1.0])
        m = BLOCK_SIZE + 99
        a = sample_information(image, m, RngStream(64), workers=2)
        b = sample_information(base, m, RngStream(64))
        assert a.deviations.tobytes() == b.deviations.tobytes()

    def test_law_route_pool_size(self, monkeypatch):
        # every route starts at most one worker per block, and one block
        # runs on the calling thread, with no pool
        used = []
        pool = infoconc.distributions.ThreadPoolExecutor

        def spy(max_workers):
            used.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(infoconc.distributions, "ThreadPoolExecutor", spy)
        model = standard_normal(4)
        runs = [sample_information(model, m, RngStream(71), workers=5)
                for m in (BLOCK_SIZE, 2 * BLOCK_SIZE + 5, 4 * BLOCK_SIZE)]
        sample_information(Product([(gamma(2.0), 1)]), 10, RngStream(71), workers=5)
        assert used == [3, 4]
        single = sample_information(model, 4 * BLOCK_SIZE, RngStream(71))
        assert single.deviations.tobytes() == runs[2].deviations.tobytes()

    def test_full_blocks_are_stable_across_total_size(self):
        # block b depends only on its index, so a longer run extends a
        # shorter one as long as both cover whole blocks
        model = Product([(gaussian1d(), 1), (exponential(), 1)])
        short = sample_information(model, BLOCK_SIZE, RngStream(5))
        longer = sample_information(model, 2 * BLOCK_SIZE, RngStream(5))
        assert np.array_equal(short.deviations, longer.deviations[:BLOCK_SIZE])

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_gaussian_spec_is_the_gaussian1d_product(self, n):
        # the standard normal is the product of n gaussian1d copies: both
        # spellings have the law Gamma(n/2) - n/2 and draw the same bytes
        copies = model_from_spec({"family": "product", "params": {
            "component": {"family": "gaussian1d"}, "copies": n}})
        model = standard_normal(n)
        assert model.info_shape == copies.info_shape == n / 2
        m = BLOCK_SIZE + 7
        a = sample_information(model, m, RngStream(12), workers=2)
        b = sample_information(copies, m, RngStream(12))
        assert a.deviations.tobytes() == b.deviations.tobytes()

    def test_gaussian_matches_quadratic_form(self):
        batch = sample_information(standard_normal(8), 4096, RngStream(3))
        # Var(dev) = n/2
        assert abs(batch.deviations.var() - 4.0) < 0.5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_information(standard_normal(2), 0, RngStream(1))
        with pytest.raises(DomainError):
            sample_information(standard_normal(2), 10, RngStream(1), workers=0)

    def test_metadata(self):
        batch = sample_information(standard_normal(2), 100, RngStream(11, stream_id=4))
        assert batch.dim == 2
        assert batch.m == 100
        assert batch.deviations.shape == (100,)


@pytest.fixture(scope="module")
def gauss4():
    return sample_information(standard_normal(4), 200000, RngStream(2024))


@pytest.fixture(scope="module")
def expo():
    return sample_information(Product([(exponential(), 1)]), 400000, RngStream(501))


class TestEmpiricalTail:
    def test_matches_exact_chi_square(self, gauss4):
        rows = empirical_tail(gauss4, [0.0, 0.5, 1.0, 2.0, 3.0])
        for row in rows:
            exact = gaussian_abs_tail(4, row.threshold_nats)
            assert row.estimate.ci_low - 1e-12 <= exact <= row.estimate.ci_high + 1e-12

    def test_zero_threshold_is_certain(self, gauss4):
        row = empirical_tail(gauss4, [0.0])[0]
        assert row.estimate.value == 1.0
        assert row.exceedances == gauss4.m

    def test_counts_decrease(self, gauss4):
        rows = empirical_tail(gauss4, list(np.arange(0.0, 4.5, 0.5)))
        counts = [r.exceedances for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_threshold_scaling(self, gauss4):
        rows_s = empirical_tail(gauss4, [1.0], scaling="sqrt_n")
        rows_c = empirical_tail(gauss4, [1.0], scaling="per_coordinate")
        assert abs(rows_s[0].threshold_nats - 2.0) < 1e-15
        assert abs(rows_c[0].threshold_nats - 4.0) < 1e-15
        assert rows_c[0].exceedances <= rows_s[0].exceedances

    def test_grid_validation(self, gauss4):
        with pytest.raises(DomainError):
            empirical_tail(gauss4, [])
        with pytest.raises(DomainError):
            empirical_tail(gauss4, [1.0, 0.5])
        with pytest.raises(DomainError):
            empirical_tail(gauss4, [-0.5, 1.0])
        with pytest.raises(DomainError):
            empirical_tail(gauss4, [0.5, 1.0], scaling="cube_root")


class TestEmpiricalMgf:
    def test_matches_exact_exponential(self, expo):
        alphas = [0.0, 0.25, 0.5]
        exact = {0.0: 1.0, 0.25: EXP_MGF_025, 0.5: EXP_MGF_05}
        for alpha, est in zip(alphas, empirical_mgf(expo, alphas)):
            target = exact[alpha]
            if alpha == 0.0:
                assert est.value == 1.0
                assert est.std_error == 0.0
            else:
                assert abs(est.value - target) < 5.0 * est.std_error
                assert est.std_error > 0.0

    def test_monotone_in_alpha(self, expo):
        vals = [e.value for e in
                empirical_mgf(expo, list(np.arange(0.0, 0.8, 0.1)))]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_dimensional_bound_holds(self):
        batch = sample_information(standard_normal(16), 100000, RngStream(88))
        est = empirical_mgf(batch, [1.0])[0]
        verdict = compare(est, mgf_bound_nd(1.0, 16))
        assert verdict.in_window
        assert verdict.verdict == HOLDS

    def test_one_sided_allows_negative_alpha(self, expo):
        est = empirical_mgf(expo, [-0.5, 0.5], form="one_sided")[0]
        # E exp(-a(X-1)) = e^a/(1+a) at a = 1/2
        target = math.exp(0.5) / 1.5
        assert abs(est.value - target) < 5.0 * est.std_error

    def test_overflow_yields_inconclusive_not_crash(self):
        batch = make_batch([0.0, 800.0, 1600.0])
        est = empirical_mgf(batch, [1.0])[0]
        assert math.isinf(est.value)
        verdict = compare(est, Bound(4.0))
        assert verdict.verdict == INCONCLUSIVE

    def test_validation(self, expo):
        with pytest.raises(DomainError):
            empirical_mgf(expo, [])
        with pytest.raises(DomainError):
            empirical_mgf(expo, [-0.5], form="two_sided_abs")
        with pytest.raises(DomainError):
            empirical_mgf(expo, [0.5], form="diagonal")
        # one draw has no standard error, and no sample variance either
        with pytest.raises(DomainError):
            empirical_mgf(make_batch([0.5]), [0.0, 0.5])
        with pytest.raises(DomainError):
            deviation_mean(make_batch([0.3]))
        with pytest.raises(DomainError):
            deviation_variance(make_batch([0.3]))


class TestBands:
    def test_entropy_power_band_gaussian(self):
        batch = sample_information(standard_normal(64), 100000, RngStream(4096))
        est = entropy_power_band(batch, s=1.0)
        verdict = compare(est, entropy_power_floor(1.0, 64))
        assert verdict.in_window
        assert abs(verdict.bound - (1.0 - 3.0 * math.exp(-4.0))) < 1e-15
        assert verdict.verdict == HOLDS
        # the exact coverage is 1 - 8e-15; every sample should land inside
        assert est.value > 0.999

    def test_band_window_flag(self):
        # the estimator takes any positive half-width; the window s <= 2
        # belongs to the bound
        batch = make_batch(np.zeros(100), dim=4)
        assert entropy_power_band(batch, s=2.5).value == 1.0
        assert not entropy_power_floor(2.5, 4).in_window
        assert entropy_power_floor(2.0, 4).in_window

    # the band is the entropy-typical set {|dev| < s n}
    def test_typical_set_vacuous_regime(self):
        # at s = 0.1 and n = 4 the floor is negative, so the check
        # certifies nothing and must say so
        batch = sample_information(standard_normal(4), 50000, RngStream(7))
        est = entropy_power_band(batch, 0.1)
        verdict = compare(est, entropy_power_floor(0.1, 4))
        assert abs(verdict.bound - TYPICAL_BOUND_01_4) < 1e-15
        assert verdict.vacuous
        assert verdict.verdict == INCONCLUSIVE
        # the coverage estimate itself is still a valid Wilson interval
        exact = chdtr(4, 4.8) - chdtr(4, 3.2)
        assert est.ci_low <= exact <= est.ci_high

    def test_typical_set_informative_regime(self):
        batch = sample_information(standard_normal(256), 50000, RngStream(8))
        verdict = compare(entropy_power_band(batch, 0.5),
                          entropy_power_floor(0.5, 256))
        assert not verdict.vacuous
        assert verdict.verdict == HOLDS

    def test_band_excludes_boundary(self):
        # four of ten deviations sit exactly on |dev| = s n
        batch = make_batch([2.0, -2.0, 2.0, -2.0, 0.0, 0.5, -0.5, 1.0, 3.0, -3.0],
                           dim=2)
        assert entropy_power_band(batch, s=1.0).value == 0.4

    def test_band_domain(self):
        batch = make_batch(np.zeros(10), dim=2)
        with pytest.raises(DomainError):
            entropy_power_band(batch, s=0.0)


class TestMoments:
    def test_gaussian_variance(self):
        # dev = (x^2 - 1)/2 has variance 1/2 and fourth moment 15/4
        batch = sample_information(standard_normal(1), 400000, RngStream(31))
        est = deviation_variance(batch)
        assert abs(est.value - 0.5) < 5.0 * est.std_error
        assert est.std_error < 0.01

    def test_exponential_product_variance(self):
        batch = sample_information(Product([(exponential(), 10)]), 200000,
                                   RngStream(32))
        est = deviation_variance(batch)
        assert abs(est.value - 10.0) < 5.0 * est.std_error

    def test_mean_is_centered(self):
        batch = sample_information(Product([(gamma(5.0), 4)]), 100000,
                                   RngStream(33))
        est = deviation_mean(batch)
        assert abs(est.value) < 5.0 * est.std_error

    def test_interval_width_shrinks_like_root_m(self):
        model = standard_normal(2)
        small = deviation_variance(sample_information(model, 40000, RngStream(34)))
        large = deviation_variance(sample_information(model, 160000, RngStream(34)))
        ratio = (small.ci_high - small.ci_low) / (large.ci_high - large.ci_low)
        assert 1.6 < ratio < 2.6

    def test_variance_interval_is_raised_to_zero(self):
        # one large deviation among zeros: s^2 = 10 but its normal interval
        # reaches below 0, where no variance lies
        est = deviation_variance(make_batch([0.0] * 999 + [100.0]))
        assert est.value - Z_999 * est.std_error < 0.0
        assert est.ci_low == 0.0
        assert est.ci_high == est.value + Z_999 * est.std_error


class TestMgfFloor:
    def test_interval_is_raised_to_one(self):
        # E e^(a |X - 1|) is infinite for a >= 1 on the exponential; at
        # a = 1.5, 1.75 and 2 the normal interval reaches below 1
        batch = sample_information(Product([(exponential(), 1)]), 100000,
                                   RngStream(1))
        alphas = list(np.arange(0.0, 2.01, 0.25))
        ests = empirical_mgf(batch, alphas)
        raised = [a for a, e in zip(alphas, ests)
                  if e.value - Z_999 * e.std_error < 1.0]
        assert raised == [1.5, 1.75, 2.0]
        for est in ests:
            assert est.ci_low >= 1.0
            assert est.ci_high >= est.value

    def test_one_sided_interval_below_one_is_the_floor(self):
        # the sample mean of two negative deviations puts the whole normal
        # interval of e^(a dev) just below 1
        est = empirical_mgf(make_batch([-1.0, -0.9]), [0.001],
                            form="one_sided")[0]
        assert est.value < 1.0
        assert est.ci_low == est.ci_high == 1.0


# The reductions as written before they shared one buffer: two exps per
# alpha, each through a log-sum-exp, and the fourth moment through pow, with
# the MGF and variance interval floors applied.

def _logsumexp(a):
    peak = float(np.max(a))
    return peak + math.log(float(np.sum(np.exp(a - peak))))


def reference_mgf(batch, alpha, form):
    """(value, std_error, ci_low, ci_high) of the two-exp estimate."""
    d = batch.deviations
    y = (np.abs(d) if form == "two_sided_abs" else d) / math.sqrt(batch.dim)
    m = batch.m
    z = alpha * y
    l1 = _logsumexp(z) - math.log(m)
    l2 = _logsumexp(2.0 * z) - math.log(m)
    if l1 > math.log(sys.float_info.max):
        return math.inf, math.inf, 0.0, math.inf
    mean = math.exp(l1)
    excess = max(0.0, math.expm1(l2 - 2.0 * l1))
    se = mean * math.sqrt(excess / m)
    return (mean, se, max(1.0, mean - Z_999 * se),
            max(1.0, mean + Z_999 * se))


def reference_variance(batch):
    m = batch.m
    d = batch.deviations - batch.deviations.mean()
    s2 = float(np.dot(d, d)) / (m - 1)
    mu4 = float(np.mean(d**4))
    se = math.sqrt(max(0.0, mu4 - s2 * s2) / m)
    return s2, se, max(0.0, s2 - Z_999 * se), s2 + Z_999 * se


def reference_mean(batch):
    d, m = batch.deviations, batch.m
    mean, se = float(d.mean()), float(d.std(ddof=1)) / math.sqrt(m)
    return mean, se, mean - Z_999 * se, mean + Z_999 * se


def assert_matches(est, ref):
    got = (est.value, est.std_error, est.ci_low, est.ci_high)
    for a, b in zip(got, ref):
        assert a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (
            got, ref)


def gamma_batch(k, dim, seed, m=50000):
    gen = np.random.default_rng(seed)
    return make_batch(gen.standard_gamma(k, m) - k, dim=dim)


class TestReductionsAgainstReference:
    @pytest.mark.parametrize("k,dim", [(0.5, 1), (8.0, 16), (32.0, 64)])
    def test_two_sided_gamma(self, k, dim):
        batch = gamma_batch(k, dim, seed=int(k * 10) + dim)
        alphas = [0.25, 0.5, 1.0, 1.5]
        for alpha, est in zip(alphas, empirical_mgf(batch, alphas)):
            assert_matches(est, reference_mgf(batch, alpha, "two_sided_abs"))

    @pytest.mark.parametrize("k,dim", [(1.0, 2), (8.0, 16)])
    def test_one_sided_gamma(self, k, dim):
        batch = gamma_batch(k, dim, seed=int(k) + 100)
        alphas = [-1.0, -0.5, 0.25, 0.5]
        for alpha, est in zip(alphas, empirical_mgf(batch, alphas,
                                                    form="one_sided")):
            assert_matches(est, reference_mgf(batch, alpha, "one_sided"))

    @pytest.mark.parametrize("k,dim", [(0.5, 1), (8.0, 16), (32.0, 64)])
    def test_moments_gamma(self, k, dim):
        batch = gamma_batch(k, dim, seed=int(k * 10) + dim + 7)
        assert_matches(deviation_variance(batch), reference_variance(batch))
        assert_matches(deviation_mean(batch), reference_mean(batch))

    def test_all_zero_ball(self):
        batch = sample_information(model_from_spec(LAW_MODELS["ball16"][0]),
                                   1000, RngStream(3))
        assert not batch.deviations.any()
        for form in ("two_sided_abs", "one_sided"):
            for alpha, est in zip([0.5, 1.0],
                                  empirical_mgf(batch, [0.5, 1.0], form=form)):
                assert est.value == 1.0
                assert est.std_error == 0.0
                assert_matches(est, reference_mgf(batch, alpha, form))
        assert_matches(deviation_variance(batch), (0.0, 0.0, 0.0, 0.0))
        assert_matches(deviation_mean(batch), (0.0, 0.0, 0.0, 0.0))

    def test_overflow(self):
        # the infinite estimate [0, inf] (INCONCLUSIVE, see TestEmpiricalMgf)
        batch = make_batch([0.0, 800.0, 1600.0])
        est = empirical_mgf(batch, [1.0])[0]
        assert reference_mgf(batch, 1.0, "two_sided_abs") == (
            math.inf, math.inf, 0.0, math.inf)
        assert_matches(est, reference_mgf(batch, 1.0, "two_sided_abs"))


@pytest.mark.parametrize("reduce", [
    lambda b: empirical_mgf(b, [0.25, 0.5, 0.75, 1.0]),
    lambda b: empirical_mgf(b, [-0.5, -0.25, 0.25, 0.5], form="one_sided"),
    deviation_variance,
    deviation_mean,
], ids=["mgf_two_sided", "mgf_one_sided", "variance", "mean"])
def test_reduction_holds_at_most_one_scratch_array(reduce):
    # 2^20 deviations are 8.4 MB: one scratch array of that size fits under
    # 12 MB, a second (a |dev| copy beside the buffer, or d**4) does not
    batch = gamma_batch(8.0, 16, seed=93, m=2**20)
    tracemalloc.start()
    try:
        reduce(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_reductions_do_not_depend_on_blas_threads():
    # a BLAS dot splits a long sum between its threads, so its rounding
    # follows OPENBLAS_NUM_THREADS; the estimates must not
    code = ("import numpy as np\n"
            "from infoconc.infotools import (InfoSampleBatch, deviation_mean,\n"
            "    deviation_variance, empirical_mgf)\n"
            "d = np.random.default_rng(94).standard_gamma(8.0, 2**18) - 8.0\n"
            "b = InfoSampleBatch(dim=16, deviations=d)\n"
            "print(empirical_mgf(b, [0.5, 1.0]),\n"
            "      empirical_mgf(b, [-0.5], form='one_sided'),\n"
            "      deviation_variance(b), deviation_mean(b))")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        outputs.append(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
