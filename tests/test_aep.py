"""Tests for the equipartition simulation layer.

Oracle: ``step_route_info``, trajectories drawn step by step and summed
whole: the base sampler and log_pdf for i.i.d. processes; for the
autoregression, the AR(1) recursion evaluated by the dense multivariate
Gaussian with covariance Sigma_ij = sigma1^2 rho^|i-j| (built with plain
linear algebra, a fully independent route).  ``run_trajectories`` is
checked against it in law, by two-sample KS tests, both where a grid
interval is one Gamma draw and where a base with no law is cut into pieces
(the piece budget forced small), and against the exact mean and variance
of h_n + Gamma(k n) - k n.  Byte identity is checked across worker counts
and, where no interval is cut, across piece budgets; a cut interval of a
base sampled by its quantile matches the uncut one within rounding.
Frozen entropy rates:

    sd = 1:  (1/2) log(2 pi e)            = 1.4189385332046727
    sd = 2:  (1/2) log(2 pi e) + log 2    = 2.112085713764618
    rho = 0.5 first coordinate, sd = 1:   1.562779569430563
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logit
from scipy.stats import ks_2samp

import infoconc.distributions
from infoconc.aep import (
    GaussAR1,
    IIDProcess,
    TRIAL_BLOCK,
    process_from_spec,
    run_trajectories,
)
from infoconc.bounds import HOLDS, compare, per_coordinate_tail_bound
from infoconc.distributions import (
    ParameterError,
    RngStream,
    exponential,
    from_log_density,
    gamma,
    gaussian1d,
    half_normal,
    laplace,
    uniform,
)
from infoconc.numerics import DomainError, NumericsError

RATE_SD1 = 1.4189385332046727
RATE_SD2 = 2.112085713764618
H1_RHO_05 = 1.562779569430563


def dense_gaussian_log_density(x, rho, sd):
    """Joint AR1 density through the stationary covariance matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[1]
    sigma1_sq = sd * sd / (1.0 - rho * rho)
    idx = np.arange(n)
    cov = sigma1_sq * rho ** np.abs(idx[:, None] - idx[None, :])
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = np.einsum("ij,ij->i", x, np.linalg.solve(cov, x.T).T)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


LAW_GRID = [1, 3, 10]
LAW_TRIALS = 20000


def step_route_info(process, grid, trials, gen):
    """-log f_n / n of trajectories drawn step by step: the base sampler and
    log_pdf for an i.i.d. process, the AR(1) recursion and the dense
    covariance density for the autoregression."""
    n_max = grid[-1]
    if isinstance(process, GaussAR1):
        z = gen.standard_normal((trials, n_max))
        x = np.empty_like(z)
        x[:, 0] = math.sqrt(process.sigma1_sq) * z[:, 0]
        for k in range(1, n_max):
            x[:, k] = process.rho * x[:, k - 1] + process.sd * z[:, k]
        return np.column_stack([
            -dense_gaussian_log_density(x[:, :n], process.rho, process.sd) / n
            for n in grid])
    x = process.base.sample(gen, trials * n_max).reshape(trials, n_max)
    cum = np.cumsum(-process.base.log_pdf(x), axis=1)
    return cum[:, np.asarray(grid) - 1] / np.asarray(grid)


def assert_same_law(process, seed):
    """Law-route info against the step route (KS), and against the exact
    mean h_n / n and variance k / n of (h_n + Gamma(k n) - k n) / n."""
    law = run_trajectories(process, LAW_GRID, LAW_TRIALS, RngStream(seed)).info
    steps = step_route_info(process, LAW_GRID, LAW_TRIALS,
                            RngStream(seed, stream_id=1).generator())
    k = process.base.info_shape
    for j, n in enumerate(LAW_GRID):
        mean = process.joint_entropy(n) / n
        if k == 0.0:  # no randomness: both routes give the entropy rate
            assert np.allclose(law[:, j], mean, rtol=1e-14, atol=1e-15)
            assert np.allclose(steps[:, j], mean, rtol=1e-14, atol=1e-15)
            continue
        assert ks_2samp(law[:, j], steps[:, j]).pvalue > 1e-3, n
        var = k / n
        assert abs(law[:, j].mean() - mean) < 5.0 * math.sqrt(var / LAW_TRIALS)
        # the sample variance of Gamma(k n) has excess kurtosis 6 / (k n)
        slack = 5.0 * var * math.sqrt((2.0 + 6.0 / (k * n)) / LAW_TRIALS)
        assert abs(law[:, j].var() - var) < slack, n


class TestProcessDefinitions:
    def test_iid_rates(self):
        proc = IIDProcess(exponential())
        assert proc.entropy_rate == 1.0
        assert proc.joint_entropy(7) == 7.0

    def test_ar1_stationary_variance(self):
        proc = GaussAR1(0.5, 1.0)
        assert abs(proc.sigma1_sq - 4.0 / 3.0) < 1e-15

    def test_ar1_rates_frozen(self):
        assert abs(GaussAR1(0.5, 1.0).entropy_rate - RATE_SD1) < 1e-14
        assert abs(GaussAR1(0.3, 2.0).entropy_rate - RATE_SD2) < 1e-14
        assert abs(GaussAR1(0.5, 1.0).joint_entropy(1) - H1_RHO_05) < 1e-14

    @pytest.mark.parametrize("sd", [1e-200, 1e200])
    def test_ar1_entropies_at_extreme_scales(self, sd):
        # sd^2 underflows or overflows; each entropy is log sd plus the
        # sd = 1 value
        proc = GaussAR1(0.5, sd)
        assert abs(proc.entropy_rate - (RATE_SD1 + math.log(sd))) < 1e-12
        assert abs(proc.joint_entropy(1) - (H1_RHO_05 + math.log(sd))) < 1e-12
        assert math.isfinite(proc.joint_entropy(10**6))

    def test_ar1_entropy_increments_equal_rate(self):
        proc = GaussAR1(0.7, 1.3)
        for n in (2, 3, 10, 100):
            inc = proc.joint_entropy(n) - proc.joint_entropy(n - 1)
            assert abs(inc - proc.entropy_rate) < 1e-12

    def test_step_shortcut_matches_rebuilt_trajectory(self):
        # the Gamma(1/2) law shortcut against trajectories rebuilt by the
        # recursion and evaluated by the dense covariance
        assert_same_law(GaussAR1(0.6, 1.2), 23)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            GaussAR1(1.0, 1.0)
        with pytest.raises(ParameterError):
            GaussAR1(-1.2, 1.0)
        with pytest.raises(ParameterError):
            GaussAR1(0.5, 0.0)
        for rho, sd, name in [(math.nan, 1.0, "rho"), (0.5, math.nan, "sd"),
                              (0.5, math.inf, "sd")]:
            with pytest.raises(ParameterError, match=f"{name} must be finite"):
                GaussAR1(rho, sd)

    @pytest.mark.parametrize("spec,name", [
        ({"process": "gauss_ar1", "params": {"sd": True}}, "innovation sd"),
        ({"process": "gauss_ar1", "params": {"rho": False}}, "autoregression rho"),
        ({"process": "iid", "base": {"family": "gamma", "params": {"p": True}}},
         "gamma shape p"),
        ({"process": "gauss_ar1", "params": {"rho": "0.5"}}, "autoregression rho"),
        ({"process": "iid", "base": {"family": "gamma", "params": {"p": "2"}}},
         "gamma shape p"),
    ], ids=["ar1_sd", "ar1_rho", "iid_gamma_p", "ar1_rho_string",
            "iid_gamma_p_string"])
    def test_boolean_parameters_are_refused(self, spec, name):
        # JSON true is a bool, not the number 1
        with pytest.raises(ParameterError, match=f"{name} must be a number"):
            process_from_spec(spec)

    def test_iid_process_passes_the_base_law_through(self):
        assert IIDProcess(laplace()).base.info_shape == 1.0
        assert IIDProcess(uniform()).base.info_shape == 0.0
        assert IIDProcess(gamma(2.0)).base.info_shape is None

    def test_ar1_law_constants_match_joint_entropy(self):
        # pointwise, -log f_n(x) is h_n plus the deviations z^2/2 - 1/2 of
        # the standardized innovations: the joint entropy holds every
        # constant, and a step's shape is 1/2
        proc = GaussAR1(0.7, 1.3)
        assert proc.base.info_shape == 0.5
        z = np.random.default_rng(5).standard_normal((4, 12))
        x = np.empty_like(z)
        x[:, 0] = math.sqrt(proc.sigma1_sq) * z[:, 0]
        for k in range(1, 12):
            x[:, k] = proc.rho * x[:, k - 1] + proc.sd * z[:, k]
        dev = np.cumsum(0.5 * z * z - proc.base.info_shape, axis=1)
        for n in (1, 2, 12):
            info = -dense_gaussian_log_density(x[:, :n], proc.rho, proc.sd)
            assert np.allclose(info, proc.joint_entropy(n) + dev[:, n - 1],
                               rtol=1e-12, atol=1e-12)


LAW_FAMILIES = {
    "exponential": exponential(),
    "laplace": laplace(),
    "gaussian1d": gaussian1d(0.7, 1.9),
    "half_normal": half_normal(),
    "uniform": uniform(-1.0, 2.0),
}


class TestInformationLaw:
    @pytest.mark.parametrize("name", sorted(LAW_FAMILIES))
    def test_law_route_matches_step_route(self, name):
        assert_same_law(IIDProcess(LAW_FAMILIES[name]), 61)

    @pytest.mark.parametrize("process", [
        GaussAR1(0.6, 1.2), IIDProcess(laplace()), IIDProcess(uniform(0.5, 2.5)),
    ], ids=["ar1", "laplace", "uniform"])
    def test_law_route_worker_invariant(self, process):
        trials = 3 * TRIAL_BLOCK + 17
        runs = [run_trajectories(process, [1, 3, 10, 100], trials,
                                 RngStream(67), workers=w).info.tobytes()
                for w in (1, 2, 5)]
        assert runs[0] == runs[1] == runs[2]

    def test_law_route_pool_size(self, monkeypatch):
        # one worker per started _CHUNK_ELEMENTS of draws, and one worker
        # runs on the calling thread, with no pool; the bytes are the same
        # whether the blocks run on a pool or not
        used = []
        pool = infoconc.distributions.ThreadPoolExecutor

        def spy(max_workers):
            used.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(infoconc.distributions, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", 4096)
        process = IIDProcess(laplace())
        runs = [run_trajectories(process, [1, 3, 10, 100], trials,
                                 RngStream(71), workers=5).info.tobytes()
                for trials in (TRIAL_BLOCK, 2 * TRIAL_BLOCK + 5, 4 * TRIAL_BLOCK)]
        assert used == [3, 4]
        single = run_trajectories(process, [1, 3, 10, 100], 4 * TRIAL_BLOCK,
                                  RngStream(71), workers=1)
        assert single.info.tobytes() == runs[2]


class NanLaw:
    """A process with a step shape whose joint entropy is NaN."""
    entropy_rate = 1.0
    base = laplace()

    def joint_entropy(self, n):
        return math.nan


class NanSteps:
    """A process drawn step by step whose steps are NaN."""
    entropy_rate = 1.0
    base = replace(uniform(), info_shape=None,
                   _log_pdf=lambda y: np.full(y.shape, math.nan))

    def joint_entropy(self, n):
        return float(n)


class TestRunTrajectories:
    def test_uniform_iid_information_is_zero(self):
        report = run_trajectories(IIDProcess(uniform(0.0, 1.0)),
                                  [1, 2, 8], 200, RngStream(3))
        assert np.all(report.info == 0.0)
        assert np.all(report.deviations == 0.0)

    def test_exponential_iid_info_converges_to_rate(self):
        report = run_trajectories(IIDProcess(exponential()),
                                  [64], 4000, RngStream(5))
        # info at n is the mean of 64 exponentials, so SE = 1/sqrt(64 * 4000)
        assert abs(report.info.mean() - 1.0) < 5.0 / math.sqrt(64 * 4000)

    def test_gaussian_iid_deviation_scale(self):
        report = run_trajectories(IIDProcess(gaussian1d()),
                                  [64], 4000, RngStream(6))
        sd = (report.deviations[:, 0] / 64).std()
        expected = 1.0 / math.sqrt(2.0 * 64.0)
        assert abs(sd - expected) < 0.2 * expected

    def test_ar1_deviation_scale(self):
        # the centered deviations of the autoregression are sums of
        # (z^2 - 1)/2 over the innovations, same law as the iid normal
        report = run_trajectories(GaussAR1(0.5, 1.0), [64], 4000, RngStream(7))
        sd = (report.deviations[:, 0] / 64).std()
        expected = 1.0 / math.sqrt(2.0 * 64.0)
        assert abs(sd - expected) < 0.2 * expected

    def test_reproducible_and_worker_invariant(self):
        proc = GaussAR1(0.5, 1.0)
        trials = TRIAL_BLOCK + 50
        a = run_trajectories(proc, [4, 16], trials, RngStream(11), workers=1)
        b = run_trajectories(proc, [4, 16], trials, RngStream(11), workers=2)
        c = run_trajectories(proc, [4, 16], trials, RngStream(11), workers=4)
        assert np.array_equal(a.info, b.info)
        assert np.array_equal(a.info, c.info)

    def test_streams_differ(self):
        proc = IIDProcess(exponential())
        a = run_trajectories(proc, [4], 100, RngStream(11, stream_id=0))
        b = run_trajectories(proc, [4], 100, RngStream(11, stream_id=1))
        assert not np.array_equal(a.info, b.info)

    def test_joint_entropies_column(self):
        proc = GaussAR1(0.5, 1.0)
        report = run_trajectories(proc, [1, 3], 10, RngStream(2))
        assert abs(report.joint_entropies[0] - H1_RHO_05) < 1e-12
        assert abs(report.joint_entropies[1]
                   - (H1_RHO_05 + 2.0 * RATE_SD1)) < 1e-12

    def test_grid_validation(self):
        proc = IIDProcess(exponential())
        with pytest.raises(DomainError):
            run_trajectories(proc, [], 10, RngStream(1))
        with pytest.raises(DomainError):
            run_trajectories(proc, [2.5, 4.0], 10, RngStream(1))
        with pytest.raises(DomainError):
            run_trajectories(proc, [4, 4], 10, RngStream(1))
        with pytest.raises(DomainError):
            run_trajectories(proc, [0, 4], 10, RngStream(1))
        with pytest.raises(DomainError):
            run_trajectories(proc, [4], 1, RngStream(1))
        with pytest.raises(DomainError):
            run_trajectories(proc, [4], 10, RngStream(1), workers=0)

    @pytest.mark.parametrize("build", [
        lambda: GaussAR1(0.5, math.nan),
        lambda: IIDProcess(gaussian1d(math.nan, 1.0)),
        lambda: IIDProcess(uniform(-math.inf, 0.0)),
    ], ids=["ar1_nan_sd", "gaussian1d_nan_mu", "uniform_infinite_end"])
    def test_non_finite_deviations_raise(self, build):
        # a non-finite parameter is refused where the process is built, so
        # a law that ignores it (a location) cannot hide it
        with pytest.raises(ParameterError, match="must be finite"):
            run_trajectories(build(), [4, 16], 100, RngStream(1))

    @pytest.mark.parametrize("process", [NanLaw(), NanSteps()],
                             ids=["law", "steps"])
    def test_non_finite_information_raises(self, process):
        with pytest.raises(NumericsError, match="not all finite"):
            run_trajectories(process, [4, 16], 100, RngStream(1))

    def test_non_finite_joint_entropy_raises_before_any_draw(self, monkeypatch):
        # the law draws are finite, so only the joint entropies can show it
        def no_fill(*args, **kwargs):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(RngStream, "fill", no_fill)
        with pytest.raises(NumericsError, match="joint entropies"):
            run_trajectories(NanLaw(), [4, 16], 100, RngStream(1))


def logistic():
    """The logistic density, built by ``from_log_density``."""
    return from_log_density(
        "logistic", lambda x: -np.abs(x) - 2.0 * np.log1p(np.exp(-np.abs(x))),
        (-math.inf, math.inf))


def _logistic():
    # sampled here by its closed-form inverse CDF: the rejection sampler
    # sizes its batches from the request, so its pieces could not match
    # whole blocks
    return replace(logistic(), _quantile=logit, _sampler=None)


# the first two have a step shape, the last two draw every step
PROCESSES = [GaussAR1(0.5, 1.3), IIDProcess(laplace()),
             IIDProcess(gamma(2.0)), IIDProcess(_logistic())]
PROCESS_IDS = ["ar1", "laplace", "gamma2", "custom"]


class TestStreamedBlocks:
    @pytest.mark.parametrize("process", PROCESSES, ids=PROCESS_IDS)
    @pytest.mark.parametrize("grid", [[1], [1, 5, 40], [7, 8, 14]])
    @pytest.mark.parametrize("budget", [7, 1000, "n_max + 1"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pieces_match_whole_blocks(self, monkeypatch, process, grid,
                                       budget, workers):
        # a law interval is one piece at any budget, and so is an interval
        # no wider than the budget: the bytes are those of the default
        # budget; the block routine cuts a wider interval with no law into
        # column pieces of one trial at a time, the stream in the same
        # trial-major order, so only the rounding of its sums moves
        if budget == "n_max + 1":
            budget = grid[-1] + 1
        rng = RngStream(41)
        trials = TRIAL_BLOCK + 3
        want = run_trajectories(process, grid, trials, rng).info
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", budget)
        got = run_trajectories(process, grid, trials, rng, workers=workers).info
        if process.base.info_shape is None and max(np.diff(grid, prepend=0)) > budget:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("process", [
        *PROCESSES, IIDProcess(logistic())], ids=[*PROCESS_IDS, "rejection"])
    def test_cut_pieces_are_worker_invariant(self, monkeypatch, process):
        # a budget of 7 cuts every interval of this grid but the first
        # into pieces, of two widths each
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", 7)
        runs = [run_trajectories(process, [2, 12, 30], TRIAL_BLOCK + 5,
                                 RngStream(53), workers=w).info.tobytes()
                for w in (1, 2, 5)]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("base", [gamma(2.0), logistic()],
                             ids=["gamma2", "custom"])
    def test_cut_pieces_match_step_route(self, monkeypatch, base):
        process, grid, trials = IIDProcess(base), [3, 10, 40], 4000
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", 8)
        got = run_trajectories(process, grid, trials, RngStream(59)).info
        steps = step_route_info(process, grid, trials,
                                RngStream(59, stream_id=1).generator())
        for j in range(len(grid)):
            assert ks_2samp(got[:, j], steps[:, j]).pvalue > 1e-3, grid[j]

    def test_law_interval_is_one_draw_at_any_length(self):
        # n = 10^15 steps are one Gamma draw per trial: at once, and with
        # the deviation scale sqrt(k / n) of Gamma(k n) - k n over n
        report = run_trajectories(IIDProcess(laplace()), [16, 10**15], 4000,
                                  RngStream(61))
        sd = (report.deviations / report.n_grid).std(axis=0)
        expected = 1.0 / np.sqrt(report.n_grid)
        assert np.all(abs(sd - expected) < 0.1 * expected)

    @pytest.mark.parametrize("process, trials", [
        *((process, 8) for process in PROCESSES),
        # the rejection sampler's rounds of candidates are bounded too; it
        # draws about 12 uniforms per step, so two trials keep the test short
        (IIDProcess(logistic()), 2)], ids=[*PROCESS_IDS, "rejection"])
    def test_memory_bounded_for_long_trajectories(self, process, trials):
        # a whole 8 x 2^20 step array and its cumulative sum alone are 128 MB
        tracemalloc.start()
        try:
            report = run_trajectories(process, [16, 2**20], trials,
                                      RngStream(43))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(report.info))
        assert peak < 32 * 2**20

    def test_rejection_sampled_custom_base_is_worker_invariant(self, monkeypatch):
        base = logistic()
        monkeypatch.setattr(infoconc.distributions, "_CHUNK_ELEMENTS", 7)
        runs = [run_trajectories(IIDProcess(base), [7, 8, 14], TRIAL_BLOCK + 3,
                                 RngStream(47), workers=w).info.tobytes()
                for w in (1, 2)]
        assert runs[0] == runs[1]


class TestConvergenceAndExceedance:
    def test_sup_deviation_medians_decrease(self):
        report = run_trajectories(GaussAR1(0.5, 1.0), [16, 64, 256],
                                  1500, RngStream(13))
        medians = report.sup_deviation_medians()
        assert np.all(np.diff(medians) < 0.0)

    def test_exceedance_rows(self):
        report = run_trajectories(GaussAR1(0.5, 1.0), [16, 256],
                                  2000, RngStream(14))
        rows = report.exceedance_table([0.5])
        assert len(rows) == 2
        (small_n, small), (large_n, large) = rows
        assert small_n == 16 and large_n == 256
        small_v, large_v = (
            compare(r.estimate, per_coordinate_tail_bound(r.t, n))
            for n, r in rows)
        # at n = 16 the bound exceeds one: tagged, still mechanically fine
        assert small_v.bound > 1.0
        assert small_v.vacuous
        assert small_v.verdict == HOLDS
        # at n = 256 the bound is informative and the tail is far below it
        assert abs(large_v.bound - 3.0 * math.exp(-4.0)) < 1e-15
        assert not large_v.vacuous
        assert large_v.verdict == HOLDS
        assert large.estimate.ci_low <= large_v.bound

    def test_exceedance_window_flag(self):
        report = run_trajectories(GaussAR1(0.5, 1.0), [16], 100, RngStream(15))
        # the table estimates at any positive s; the window s <= 2 belongs
        # to the bound
        rows = report.exceedance_table([0.5, 2.5])
        assert [(n, r.t) for n, r in rows] == [(16, 0.5), (16, 2.5)]
        (n, inside), (_, outside) = rows
        assert per_coordinate_tail_bound(inside.t, n).in_window
        assert not per_coordinate_tail_bound(outside.t, n).in_window

    def test_exceedance_validation(self):
        report = run_trajectories(GaussAR1(0.5, 1.0), [4], 100, RngStream(16))
        with pytest.raises(DomainError):
            report.exceedance_table([])
        with pytest.raises(DomainError):
            report.exceedance_table([0.0, 0.5])

    def test_report_fields(self):
        report = run_trajectories(GaussAR1(0.25, 1.0), [2, 4], 10,
                                  RngStream(31, stream_id=2))
        assert len(report.deviations) == 10
        assert report.n_grid.tolist() == [2, 4]
        assert report.info.shape == report.deviations.shape == (10, 2)
        # info is (deviations + h_n) / n to the byte
        assert report.info.tobytes() == (
            (report.deviations + report.joint_entropies) / [2, 4]).tobytes()
        assert abs(report.entropy_rate - RATE_SD1) < 1e-12
