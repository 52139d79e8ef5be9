"""The benchmark's three workloads: their ops, inputs and correctness checks.

Every op is one in-process ``infoconc.cli.main(argv)`` call that writes a
CSV and a JSON report, except the two custom-density ops, which the CLI
cannot express and which call the library directly.  All inputs derive
from the workload seed: Monte Carlo ops receive it as ``--seed``, and the
seed also draws the random matrices of the linear-algebra models and the
location and scale of the custom densities.

Each op carries ``draws``, the work it certifies: samples drawn and
evaluated for Monte Carlo ops, trajectory steps (trials x n_max) for
``aep``, and grid points (orders or probability levels) for the exact ops,
which draw no samples at all.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from infoconc import distributions, lyapunov
from infoconc.cli import parse_grid

MC_SAMPLES = 2**17
WORKERS = 2                    # pool threads of every op that takes --workers
AEP_TRIALS = 8192
AEP_N_GRID = "16,64,256,1024,4096,16384"
AEP_N_MAX = int(AEP_N_GRID.split(",")[-1])
P_GRID = "0.5:40:0.5"          # 80 orders
T_GRID = "0.05:0.95:0.05"      # 19 probability levels
T_LEVELS = parse_grid(T_GRID)
# Equality tolerance of the exact checks: the exponential's normalized
# moment curve is identically zero and gamma(2) sits on its variance caps.
EXACT_TOL = 1e-9


@dataclass
class Outcome:
    """What one op produced: exit code, output bytes and parsed report."""

    code: int
    csv: bytes = b""
    report: Optional[dict] = None   # JSON report without its "meta" key
    result: object = None           # library return value (custom ops)


@dataclass
class Op:
    name: str
    draws: int
    check: Callable[[Outcome], Optional[str]]
    argv: Optional[list] = None                 # CLI op
    call: Optional[Callable[[], object]] = None  # library op
    model: str = ""                             # label of the model sampled


# ---------------------------------------------------------------------------
# checks: each returns None when the op's output is correct, else a reason
# ---------------------------------------------------------------------------

def _counts(out: Outcome) -> dict:
    return (out.report or {}).get("verdict_counts", {})


def check_no_violation(out: Outcome) -> Optional[str]:
    if out.code != 0:
        return f"exit code {out.code}"
    if out.report is None:
        return "no JSON report"
    if _counts(out).get("VIOLATED", 0) != 0:
        return f"VIOLATED verdicts: {_counts(out)}"
    return None


def check_variance(out: Outcome) -> Optional[str]:
    err = check_no_violation(out)
    if err:
        return err
    row = out.report["results"][0]
    if not row["mean_ci_low"] <= 0.0 <= row["mean_ci_high"]:
        return (f"mean interval [{row['mean_ci_low']}, {row['mean_ci_high']}]"
                " does not cover 0")
    return None


def check_all_hold(out: Outcome) -> Optional[str]:
    err = check_no_violation(out)
    if err:
        return err
    counts = _counts(out)
    if counts.get("INCONCLUSIVE", 0) != 0 or counts.get("HOLDS", 0) == 0:
        return f"not every verdict is HOLDS: {counts}"
    return None


def check_exponential_normalized(out: Outcome) -> Optional[str]:
    err = check_all_hold(out)
    if err:
        return err
    worst = max(abs(r["log_value"]) for r in out.report["results"])
    if worst > EXACT_TOL:
        return f"normalized exponential curve deviates from 0 by {worst:.3e}"
    return None


def check_gamma2_margins(out: Outcome) -> Optional[str]:
    err = check_all_hold(out)
    if err:
        return err
    worst = min(r["margin"] for r in out.report["results"])
    if worst < -EXACT_TOL:
        return f"gamma(2) variance-cap margin {worst:.3e} below -{EXACT_TOL:g}"
    return None


def check_concave(out: Outcome) -> Optional[str]:
    if not out.result.ok:
        return (f"quantile density not concave: defect "
                f"{out.result.worst_defect:.3e} at t={out.result.worst_at:g}")
    return None


def check_aep(out: Outcome) -> Optional[str]:
    err = check_no_violation(out)
    if err:
        return err
    med = out.report["config"]["sup_deviation_medians"]
    if any(b > a for a, b in zip(med, med[1:])):
        return f"sup-deviation medians increase: {med}"
    if not med[-1] < med[0]:
        return f"last sup-deviation median {med[-1]} not below first {med[0]}"
    return None


# ---------------------------------------------------------------------------
# mc_zoo
# ---------------------------------------------------------------------------

def _well_conditioned(rng: np.random.Generator, n: int, lower: bool) -> list:
    """Identity plus a small random perturbation; condition number ~2."""
    a = np.eye(n) + 0.25 * rng.standard_normal((n, n)) / math.sqrt(n)
    if lower:
        a = np.tril(a)
    return a.tolist()


def zoo_models(seed: int) -> dict:
    """CLI model flags of the seven mc_zoo models."""
    rng = np.random.default_rng([seed, 16])
    exp16 = {"family": "product",
             "params": {"component": {"family": "exponential"}, "copies": 16}}
    affine = {"family": "affine",
              "params": {"base": exp16,
                         "matrix": _well_conditioned(rng, 16, lower=False),
                         "shift": rng.standard_normal(16).tolist()}}
    cov = {"family": "gaussian",
           "params": {"dim": 16,
                      "cov_factor": _well_conditioned(rng, 16, lower=True)}}
    mix = {"family": "product", "params": {"components": [
        {"family": "exponential"},
        {"family": "gamma", "params": {"p": 3.0}},
        {"family": "gaussian1d", "params": {"mu": 0.0, "sigma": 1.0}},
        {"family": "laplace"},
        {"family": "uniform", "params": {"a": 0.0, "b": 1.0}},
        {"family": "half_normal"},
        {"family": "gaussian1d", "params": {"mu": 1.0, "sigma": 2.0}},
        {"family": "uniform", "params": {"a": -1.0, "b": 2.0}},
    ]}}
    return {
        "gauss64": ["--model", "gaussian", "--dim", "64"],
        "exp64": ["--model", "exponential", "--dim", "64"],
        "gamma2x16": ["--model", "gamma", "--p", "2", "--dim", "16"],
        "gausscov16": ["--model", json.dumps(cov)],
        "affine_exp16": ["--model", json.dumps(affine)],
        "ball16": ["--model", json.dumps(
            {"family": "ball_uniform", "params": {"dim": 16}})],
        "mixprod8": ["--model", json.dumps(mix)],
    }


def _mc_op(experiment: str, label: str, flags: list, seed: int,
           check=check_no_violation, extra=()) -> Op:
    argv = [experiment, *flags, "--samples", str(MC_SAMPLES),
            "--seed", str(seed), "--workers", str(WORKERS), *extra]
    return Op(f"{experiment}.{label}", MC_SAMPLES, check, argv=argv,
              model=label)


def mc_zoo(seed: int) -> list:
    models = zoo_models(seed)
    ops = [_mc_op(experiment, label, flags, seed)
           for label, flags in models.items() for experiment in ("tail", "mgf")]
    # The deviations have mean 0 exactly, so the mean interval misses 0 at
    # its nominal rate: one seed in a thousand at the default 0.999 level.
    # The wider level keeps "covers 0" a check for defects, not for luck.
    ops.append(_mc_op("variance", "exp64", models["exp64"], seed,
                      check=check_variance,
                      extra=("--confidence", "0.999999")))
    ops.append(_mc_op("entropy_power", "gauss64", models["gauss64"], seed,
                      extra=("--s-grid", "0.25,0.5,1")))
    return ops


# ---------------------------------------------------------------------------
# exact_quad
# ---------------------------------------------------------------------------

_EXACT_DENSITIES = {
    "exponential": ["--model", "exponential"],
    "gamma2": ["--model", "gamma", "--p", "2"],
    "half_normal": ["--model", "half_normal"],
    "uniform": ["--model", "uniform"],
}

_QUANTILE_DENSITIES = {
    "exponential": ["--model", "exponential"],
    "gaussian": ["--model", "gaussian"],
    "laplace": ["--model", "laplace"],
    "half_normal": ["--model", "half_normal"],
    "uniform": ["--model", "uniform"],
    "gamma5": ["--model", "gamma", "--p", "5"],
}


def _logistic(loc: float, scale: float) -> Callable:
    def log_f(x):
        z = (x - loc) / scale
        return -z - 2.0 * np.logaddexp(0.0, -z)
    return log_f


def _gumbel_min(loc: float, scale: float) -> Callable:
    def log_f(x):
        z = (x - loc) / scale
        with np.errstate(over="ignore"):
            return z - np.exp(z)
    return log_f


def _custom_op(name: str, log_f: Callable) -> Op:
    def call():
        density = distributions.from_log_density(
            name, log_f, (-math.inf, math.inf))
        return lyapunov.quantile_density_concavity(density, T_LEVELS)

    return Op(f"quantile_density_concavity.{name}", len(T_LEVELS),
              check_concave, call=call)


def exact_quad(seed: int) -> list:
    ops = []
    for label, flags in _EXACT_DENSITIES.items():
        for kind in ("raw", "normalized"):
            check = (check_exponential_normalized
                     if (label, kind) == ("exponential", "normalized")
                     else check_all_hold)
            ops.append(Op(f"lyapunov.{kind}.{label}", len(parse_grid(P_GRID)),
                          check,
                          argv=["lyapunov", *flags, "--kind", kind,
                                "--p-grid", P_GRID]))
    for label, flags in _EXACT_DENSITIES.items():
        check = check_gamma2_margins if label == "gamma2" else check_all_hold
        ops.append(Op(f"order_p.{label}", 1, check,
                      argv=["order_p", *flags]))
    for label, flags in _QUANTILE_DENSITIES.items():
        ops.append(Op(f"quantile_density.{label}", len(T_LEVELS),
                      check_all_hold,
                      argv=["quantile_density", *flags, "--t-grid", T_GRID]))
    # Narrow ranges: wider ones move the quadrature work by +-15% from seed
    # to seed, which would show as spread in wall_s rather than as noise.
    rng = np.random.default_rng([seed, 1])
    loc, scale = rng.uniform(-0.25, 0.25, 2), rng.uniform(0.9, 1.1, 2)
    ops.append(_custom_op("logistic", _logistic(loc[0], scale[0])))
    ops.append(_custom_op("gumbel_min", _gumbel_min(loc[1], scale[1])))
    return ops


# ---------------------------------------------------------------------------
# aep_long
# ---------------------------------------------------------------------------

def aep_long(seed: int) -> list:
    common = ["--samples", str(AEP_TRIALS), "--seed", str(seed),
              "--n-grid", AEP_N_GRID, "--s-grid", "0.25,0.5,1",
              "--workers", str(WORKERS)]
    steps = AEP_TRIALS * AEP_N_MAX
    return [
        Op("aep.gauss_ar1", steps, check_aep,
           argv=["aep", "--model", "gauss_ar1", "--rho", "0.5", *common]),
        Op("aep.laplace", steps, check_aep,
           argv=["aep", "--model", "laplace", *common]),
    ]


WORKLOADS = {"mc_zoo": mc_zoo, "exact_quad": exact_quad, "aep_long": aep_long}

# The op of each workload rerun once with --workers 1: its CSV must match
# the --workers 2 bytes.  The rejection sampler and the i.i.d. trajectory
# blocks are where a scheduling dependence would show first.
WORKERS_CHECK = {"mc_zoo": "tail.gamma2x16", "aep_long": "aep.laplace"}
