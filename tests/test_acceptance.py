"""Acceptance sweep: one numbered criterion per test, one summary line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Million-sample batches are built lazily and shared, so the
whole module finishes in a few minutes; each criterion also checks its own
runtime budget.
"""
import math
import time

import numpy as np
from scipy.special import chdtr, chdtrc

import infoconc.bounds as bounds
import infoconc.distributions as dist
from infoconc.aep import GaussAR1, run_trajectories
from infoconc.bounds import HOLDS, VIOLATED
from infoconc.cli import main as cli_main
from infoconc.distributions import (AffineMap, Product, RngStream,
                                    model_from_spec)
from infoconc.infotools import (empirical_mgf, empirical_tail,
                                entropy_power_band, sample_information)
from infoconc.lyapunov import (check_convexity_direction, moment_curve,
                               order_p_variance_check,
                               quantile_density_concavity)
from infoconc.numerics import trigamma

from conftest import positive_zoo, standard_zoo

SEED = 42
M_LARGE = 10**6
GAMMA_ORDERS = (1.0, 2.0, 5.0, 10.0, 20.0)

# lazily built shared state: million-sample batches and gamma moment reports
_batches = {}
_gamma_reports = {}


def standard_normal(n: int):
    """The standard normal in R^n, as the ``gaussian`` spec builds it."""
    return model_from_spec({"family": "gaussian", "params": {"dim": n}})


def info_batch(family: str, n: int):
    key = (family, n)
    if key not in _batches:
        if family == "gaussian":
            model, stream = standard_normal(n), n
        else:
            model, stream = Product([(dist.exponential(), 1) for _ in range(n)]), 100 + n
        _batches[key] = sample_information(model, M_LARGE,
                                           RngStream(SEED, stream), workers=2)
    return _batches[key]


def gamma_report(p: float):
    if p not in _gamma_reports:
        _gamma_reports[p] = order_p_variance_check(dist.gamma(p))
    return _gamma_reports[p]


def conclude(num: int, title: str, failures: list, elapsed: float,
             budget: float = None) -> None:
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f} s exceeded budget {budget:.0f} s")
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPT] criterion {num}: {status} - {title} ({elapsed:.1f} s)")
    assert not failures, "; ".join(failures)


def exact_gaussian_tail(n: int, threshold: float) -> float:
    """P{|(chi2_n - n)/2| >= threshold} for the standard normal in R^n."""
    upper = chdtrc(n, n + 2.0 * threshold)
    lower = chdtr(n, max(n - 2.0 * threshold, 0.0))
    # the two pieces can sum to 1 + 1 ulp at threshold zero
    return min(1.0, float(upper + lower))


def test_01_gamma_log_variance_is_trigamma():
    t0 = time.perf_counter()
    fails = []
    for p in GAMMA_ORDERS:
        gap = abs(gamma_report(p).var_log - trigamma(p))
        if gap > 1e-7:
            fails.append(f"p={p:g}: |Var(log xi) - trigamma| = {gap:.2e}")
    conclude(1, "gamma family attains the trigamma cap for Var(log xi)",
             fails, time.perf_counter() - t0, budget=5.0)


def test_02_gamma_variance_ratio_is_one_over_p():
    t0 = time.perf_counter()
    fails = []
    for p in GAMMA_ORDERS:
        gap = abs(gamma_report(p).ratio - 1.0 / p)
        if gap > 1e-8:
            fails.append(f"p={p:g}: |Var/mean^2 - 1/p| = {gap:.2e}")
    conclude(2, "gamma family attains the 1/p cap for Var/mean^2",
             fails, time.perf_counter() - t0, budget=2.0)


def test_03_exponential_normalized_moments_vanish():
    t0 = time.perf_counter()
    grid = np.arange(0.5, 40.0 + 1e-9, 0.5)
    curve = moment_curve(dist.exponential(), "normalized", grid)
    worst = float(np.max(np.abs(curve.log_values)))
    fails = [] if worst <= 1e-7 else [f"max |log moment| = {worst:.2e}"]
    conclude(3, "exponential normalized moment curve is identically zero",
             fails, time.perf_counter() - t0, budget=5.0)


def test_04_reverse_lyapunov_suite():
    t0 = time.perf_counter()
    fails = []
    grid = np.arange(0.5, 8.0 + 1e-9, 0.25)
    zoo = positive_zoo()
    assert len(zoo) >= 6
    for d in zoo:
        raw = moment_curve(d, "raw", grid)
        norm = moment_curve(d, "normalized", grid)
        fwd = check_convexity_direction(raw, "convex")
        rev = check_convexity_direction(norm, "concave")
        if not fwd.ok:
            fails.append(f"{d.name}: raw convexity defect {fwd.worst_defect:.2e}")
        if not rev.ok:
            fails.append(f"{d.name}: concavity defect {rev.worst_defect:.2e}")
        # concavity across (b + delta, b, b - delta), read off the curve:
        # L(b) - (L(b + delta) + L(b - delta)) / 2 >= 0, scaled by 2 delta
        at = dict(zip(norm.grid.tolist(), norm.log_values.tolist()))
        for delta in (0.25, 0.5, 1.0, 2.0):
            for b in (2.5, 4.0):
                margin = delta * (2.0 * at[b] - at[b + delta] - at[b - delta])
                if margin < -1e-7:
                    fails.append(f"{d.name}: triple at b={b:g}, delta={delta:g} "
                                 f"margin {margin:.2e}")
    conclude(4, "normalized moment curves are concave on the positive zoo",
             fails, time.perf_counter() - t0, budget=60.0)


def test_05_universal_mgf_below_four():
    fails = []
    slowest = 0.0
    half_bound = (8.0 / 3.0) * math.sqrt(2.0)  # 2^(3/2) / ((1/2)(3/2))
    for i, d in enumerate(standard_zoo()):
        t0 = time.perf_counter()
        batch = sample_information(Product([(d, 1)]), M_LARGE,
                                   RngStream(SEED, 200 + i), workers=2)
        est = empirical_mgf(batch, [0.5], form="two_sided_abs")[0]
        if not est.ci_high < 4.0:
            fails.append(f"{d.name}: upper CI {est.ci_high:.4f} >= 4")
        if not est.ci_low <= half_bound + 3.0 * est.std_error:
            fails.append(f"{d.name}: lower CI {est.ci_low:.4f} exceeds "
                         f"(8/3) sqrt(2) + 3 SE")
        slowest = max(slowest, time.perf_counter() - t0)
    conclude(5, "E exp(|dev|/2) stays below 4 across the one-dimensional zoo",
             fails, slowest, budget=30.0)


def test_06_sqrt_n_tail_verdicts():
    t0 = time.perf_counter()
    fails = []
    t_grid = np.arange(0.0, 8.0 + 1e-9, 0.5)
    for family in ("gaussian", "exponential"):
        for n in (4, 16, 64):
            batch = info_batch(family, n)
            for row in empirical_tail(batch, t_grid, scaling="sqrt_n"):
                tag = f"{family} n={n} t={row.t:g}"
                exp_v = bounds.compare(row.estimate, bounds.exp_tail_bound(row.t))
                if exp_v.verdict != HOLDS:
                    fails.append(f"{tag}: exp-form verdict {exp_v.verdict}")
                g_v = bounds.compare(row.estimate,
                                     bounds.gaussian_tail_bound(row.t, n))
                if g_v.in_window and g_v.verdict != HOLDS:
                    fails.append(f"{tag}: gaussian-form verdict {g_v.verdict}")
                if family == "gaussian":
                    exact = exact_gaussian_tail(n, row.threshold_nats)
                    if not row.estimate.ci_low <= exact <= row.estimate.ci_high:
                        fails.append(f"{tag}: exact tail {exact:.3e} outside CI "
                                     f"[{row.estimate.ci_low:.3e}, "
                                     f"{row.estimate.ci_high:.3e}]")
    conclude(6, "sqrt-n tails hold and match the chi-square oracle",
             fails, time.perf_counter() - t0, budget=120.0)


def test_07_dimensional_mgf_verdicts():
    t0 = time.perf_counter()
    fails = []
    for family in ("gaussian", "exponential"):
        for n in (4, 16, 64):
            batch = info_batch(family, n)
            alphas = np.arange(0.0, 0.25 * math.sqrt(n) + 1e-9, 0.25)
            for alpha, est in zip(alphas, empirical_mgf(batch, alphas,
                                                        form="two_sided_abs")):
                verdict = bounds.compare(est, bounds.mgf_bound_nd(alpha, n))
                if not verdict.in_window:
                    fails.append(f"{family} n={n} alpha={alpha:g}: "
                                 "outside window")
                elif verdict.verdict != HOLDS:
                    fails.append(f"{family} n={n} alpha={alpha:g}: "
                                 f"verdict {verdict.verdict}")
    conclude(7, "dimensional MGF estimates stay below 3 exp(4 alpha^2)",
             fails, time.perf_counter() - t0, budget=120.0)


def test_08_entropy_power_band():
    t0 = time.perf_counter()
    fails = []
    floor = bounds.entropy_power_floor(1.0, 64)
    if not floor.in_window:
        fails.append("band outside window")
    for family in ("gaussian", "exponential"):
        band = entropy_power_band(info_batch(family, 64), s=1.0)
        verdict = bounds.compare(band, floor)
        if verdict.verdict != HOLDS:
            fails.append(f"{family}: coverage {band.value:.5f} vs "
                         f"floor {verdict.bound:.5f} gave {verdict.verdict}")
    conclude(8, "entropy power band covers 1 - 3 exp(-4) of the mass at n=64",
             fails, time.perf_counter() - t0, budget=60.0)


def test_09_affine_invariance_pointwise(model_route):
    # on the model route: the law route draws the same deviations for both
    # models without their points
    t0 = time.perf_counter()
    fails = []
    base = standard_normal(8)
    mat_rng = np.random.default_rng(314159)
    for k in range(3):
        matrix = mat_rng.normal(size=(8, 8))
        shift = mat_rng.normal(size=8)
        mapped = AffineMap(base, matrix, shift)
        stream = RngStream(SEED, 300 + k)
        dev_x = sample_information(model_route(base), 10**4, stream).deviations
        dev_y = sample_information(model_route(mapped), 10**4, stream).deviations
        gap = float(np.max(np.abs(dev_x - dev_y)))
        if gap > 1e-10:
            fails.append(f"map {k}: max pointwise gap {gap:.2e}")
    conclude(9, "information deviations are exactly affine invariant",
             fails, time.perf_counter() - t0, budget=5.0)


def test_10_standard_normal_decomposition():
    t0 = time.perf_counter()
    model = standard_normal(32)
    x = model.sample(RngStream(SEED, 400).generator(block=0), 10**4)
    dev = -model.log_density(x) - model.entropy
    direct = 0.5 * (np.sum(x * x, axis=1) - 32.0)
    gap = float(np.max(np.abs(dev - direct)))
    fails = [] if gap <= 1e-10 else [f"max pointwise gap {gap:.2e}"]
    conclude(10, "standard normal deviations equal sum (X_i^2 - 1)/2",
             fails, time.perf_counter() - t0, budget=5.0)


def test_11_aep_convergence():
    t0 = time.perf_counter()
    fails = []
    report = run_trajectories(GaussAR1(rho=0.5), np.array([16, 64, 256, 1024]),
                              trials=10**4, rng=RngStream(SEED, 500), workers=2)
    for n, row in report.exceedance_table([0.5]):
        verdict = bounds.compare(
            row.estimate, bounds.per_coordinate_tail_bound(row.t, n))
        bound = verdict.bound
        expected = 3.0 * math.exp(-n / 64.0)
        if abs(bound - expected) > 1e-12:
            fails.append(f"n={n}: bound {bound} != 3 exp(-n/64)")
        if row.estimate.ci_low > bound or verdict.verdict == VIOLATED:
            fails.append(f"n={n}: frequency {row.estimate.value:.2e} "
                         f"significantly above {bound:.2e}")
    medians = report.sup_deviation_medians()
    if not np.all(np.diff(medians) < 0.0):
        fails.append(f"sup-deviation medians not decreasing: {medians}")
    conclude(11, "per-coordinate information of the AR(1) chain concentrates",
             fails, time.perf_counter() - t0, budget=180.0)


def test_12_quantile_density_concavity():
    t0 = time.perf_counter()
    fails = []
    levels = np.arange(0.05, 0.95 + 1e-9, 0.05)
    for d in standard_zoo():
        rep = quantile_density_concavity(d, levels)
        if not rep.ok:
            fails.append(f"{d.name}: worst defect {rep.worst_defect:.2e}")
    conclude(12, "quantile densities are concave across the zoo",
             fails, time.perf_counter() - t0, budget=5.0)


def test_13_determinism_across_worker_counts(tmp_path):
    t0 = time.perf_counter()
    fails = []

    def run(tag, argv):
        outputs = []
        for workers in ("1", "2"):
            path = tmp_path / f"{tag}-w{workers}.csv"
            rc = cli_main(argv + ["--workers", workers, "--out-csv", str(path)])
            if rc != 0:
                fails.append(f"{tag} workers={workers}: exit {rc}")
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            fails.append(f"{tag}: CSV differs between worker counts")

    for family in ("gaussian", "exponential"):
        for n in (4, 16, 64):
            run(f"tail-{family}-{n}",
                ["tail", "--model", family, "--dim", str(n),
                 "--samples", str(M_LARGE), "--seed", str(SEED),
                 "--t-grid", "0:8:0.5"])
    run("aep", ["aep", "--model", "gauss_ar1", "--rho", "0.5",
                "--samples", "10000", "--seed", str(SEED),
                "--n-grid", "16,64,256,1024", "--s-grid", "0.5"])
    conclude(13, "tail and trajectory runs are byte-identical across workers",
             fails, time.perf_counter() - t0)
