"""Command-line experiment runner.

Each subcommand binds a model, the Monte Carlo engine, and the matching
closed-form bounds into one reproducible experiment:

    tail              deviation tails against both tail bounds
    mgf               exponential moments against the dimensional bound
    variance          deviation variance against the derived cap
    entropy_power     coverage of the entropy-power band
    quantile_density  concavity of f(F^-1(t)) for a one-dimensional density
    lyapunov          moment-curve convexity in the chosen normalization
    order_p           variance caps of an order-p density by quadrature
    aep               per-coordinate information of a stationary process
    list-bounds       the bound catalog

Outputs: a CSV of per-grid-point results (--out-csv) and a JSON summary
(--out-json).  Identical configurations produce byte-identical files; the
only time-dependent content lives under the JSON "meta" key.  Exit status
0 means no bound was violated, 2 means some verdict is VIOLATED, and 1 is
a usage or runtime error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

from . import bounds
from .aep import process_from_spec, run_trajectories
from .distributions import (
    ParameterError,
    RngStream,
    density_from_spec,
    model_from_spec,
)
from .infotools import (
    DEFAULT_CONFIDENCE,
    deviation_mean,
    deviation_variance,
    empirical_mgf,
    empirical_tail,
    entropy_power_band,
    sample_information,
)
from .lyapunov import (
    check_convexity_direction,
    moment_curve,
    order_p_variance_check,
    quantile_density_concavity,
)
from .numerics import NumericsError, check_grid
from .serialize import dump_json, write_csv

__all__ = ["main", "entrypoint", "parse_grid"]

# every grid point becomes a CSV row and a JSON result built in Python; the
# largest grid in any test, workload or doc has 80 points
_MAX_GRID_POINTS = 2 ** 16


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


def parse_grid(text: str) -> list:
    """Parse ``start:stop:step`` (inclusive), a comma list, or one number,
    into a grid that ``numerics.check_grid`` accepts."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if step <= 0.0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must not precede start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            if count > _MAX_GRID_POINTS:
                raise ValueError(f"{count} points, more than {_MAX_GRID_POINTS}")
            vals = [start + i * step for i in range(count)]
        elif "," in text:
            vals = [float(p) for p in text.split(",") if p.strip() != ""]
        else:
            vals = [float(text)]
        return check_grid(vals, "grid").tolist()
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None


def _read_spec(args, kind: str) -> dict:
    """The spec of --model-file, of inline --model JSON, or of a bare name.

    The two flags are exclusive.  A bare name is a 1-D family, with two
    exceptions by subject ``kind``: for a "batch", ``gaussian`` is the
    standard normal in --dim dimensions and other names with --dim k
    become k-fold products; for a "process", ``gauss_ar1`` takes --rho
    and --sd where they are given.  A model flag that the chosen model
    does not read is a usage error.
    """
    dim = getattr(args, "dim", None)
    if dim is not None and dim < 1:
        raise UsageError(f"--dim must be >= 1, got {dim}")
    if not (args.model or args.model_file):
        raise UsageError("--model or --model-file is required")
    name = (args.model or "").strip()
    bare = not args.model_file and not name.startswith("{")
    for flag, reads, who in (
            ("dim", bare, "a bare family name"),
            ("p", bare and name == "gamma", "--model gamma"),
            ("rho", bare and name == "gauss_ar1", "--model gauss_ar1"),
            ("sd", bare and name == "gauss_ar1", "--model gauss_ar1")):
        if getattr(args, flag, None) is not None and not reads:
            raise UsageError(f"--{flag} applies only to {who}")
    if args.model_file:
        try:
            with open(args.model_file, encoding="utf-8") as fh:
                return json.load(fh)
        except UnicodeDecodeError as exc:
            raise UsageError(f"{args.model_file}: {exc}") from None
    if not bare:
        return json.loads(name)
    dim = 1 if dim is None else dim
    if kind == "process" and name == "gauss_ar1":
        given = {"rho": args.rho, "sd": args.sd}
        return {"process": "gauss_ar1",
                "params": {k: v for k, v in given.items() if v is not None}}
    if kind == "batch" and name == "gaussian":
        return {"family": "gaussian", "params": {"dim": dim}}
    if name == "gaussian":
        name = "gaussian1d"
    if name == "gamma":
        if args.p is None:
            raise UsageError("--model gamma requires --p")
        spec = {"family": "gamma", "params": {"p": args.p}}
    elif name == "uniform":
        spec = {"family": "uniform", "params": {"a": 0.0, "b": 1.0}}
    else:  # the spec builders reject a name that is no family
        spec = {"family": name, "params": {}}
    if kind == "batch" and dim != 1:
        return {"family": "product",
                "params": {"component": spec, "copies": dim}}
    return spec


def _cells(e) -> tuple:
    return (e.value, e.std_error, e.ci_low, e.ci_high)


# Row builders: each turns its experiment's subject into CSV rows (in the
# order of the experiment's header), the config entries it adds, and an
# optional last stdout line; every verdict in them comes from bounds, and
# a Monte Carlo row reads its bound, window and vacuity off the same verdict.

def _tail_rows(batch, args):
    ts = parse_grid(args.t_grid)
    # the bounds take t in units of sqrt(n): a per-coordinate s is s sqrt(n)
    unit = math.sqrt(batch.dim) if args.scaling == "per_coordinate" else 1.0
    rows = []
    for row in empirical_tail(batch, ts, scaling=args.scaling,
                              confidence=args.confidence):
        t = row.t * unit
        exp_v = bounds.compare(row.estimate, bounds.exp_tail_bound(t))
        gauss_v = bounds.compare(row.estimate,
                                 bounds.gaussian_tail_bound(t, batch.dim))
        rows.append((row.t, row.threshold_nats, row.exceedances,
                     *_cells(row.estimate), exp_v.bound, exp_v.vacuous,
                     exp_v.verdict, gauss_v.bound, gauss_v.in_window,
                     gauss_v.verdict))
    return rows, {"t_grid": ts, "scaling": args.scaling}, None


def _mgf_rows(batch, args):
    alphas = parse_grid(args.alpha_grid)
    rows = []
    for alpha, est in zip(alphas, empirical_mgf(batch, alphas, form=args.form,
                                                confidence=args.confidence)):
        # e^(a y) <= e^(|a| |y|): a one-sided row of either sign sits under
        # the two-sided bound at |a|
        v = bounds.compare(est, bounds.mgf_bound_nd(abs(alpha), batch.dim))
        rows.append((alpha, *_cells(est), v.bound, v.in_window, v.verdict))
    return rows, {"alpha_grid": alphas, "form": args.form}, None


def _variance_rows(batch, args):
    mean = deviation_mean(batch, args.confidence)
    var = deviation_variance(batch, args.confidence)
    v = bounds.compare(var, bounds.variance_cap_nd(batch.dim))
    return [(batch.dim, batch.m, mean.value, mean.ci_low, mean.ci_high,
             *_cells(var), v.bound, var.value / batch.dim, v.verdict)], {}, None


def _entropy_power_rows(batch, args):
    svals = parse_grid(args.s_grid)
    rows = []
    for s in svals:
        est = entropy_power_band(batch, s, confidence=args.confidence)
        v = bounds.compare(est, bounds.entropy_power_floor(s, batch.dim))
        rows.append((s, *_cells(est), v.bound, v.in_window, v.vacuous,
                     v.verdict))
    return rows, {"s_grid": svals}, None


def _convexity_rows(report, *columns, converged=None) -> list:
    """x, value, the given per-point columns, then defect and verdict; the
    two end points have no chord, so their defect and verdict are empty; a
    chord through a point whose ``converged`` flag is false is INCONCLUSIVE."""
    rows = []
    last = len(report.grid) - 1
    for i, (x, y) in enumerate(zip(report.grid, report.values)):
        row = (float(x), float(y), *(float(c[i]) for c in columns))
        if 0 < i < last:
            d = float(report.defects[i - 1])
            ok = converged is None or bool(converged[i - 1:i + 2].all())
            rows.append(row + (d, bounds.exact_verdict(d, report.tol, ok)))
        else:
            rows.append(row + ("", ""))
    return rows


def _quantile_density_rows(density, args):
    ts = parse_grid(args.t_grid)
    report = quantile_density_concavity(density, ts)
    return (_convexity_rows(report), {"t_grid": ts, "tol": report.tol},
            f"worst defect {report.worst_defect:.3e} at t={report.worst_at:g}")


def _lyapunov_rows(density, args):
    grid = parse_grid(args.p_grid)
    curve = moment_curve(density, args.kind, grid)
    direction = "convex" if args.kind == "raw" else "concave"
    report = check_convexity_direction(curve, direction)
    config = {"kind": args.kind, "p_grid": grid, "direction": direction}
    return (_convexity_rows(report, curve.quad_errors,
                            converged=curve.converged), config,
            f"worst {direction} defect {report.worst_defect:.3e} at "
            f"p={report.worst_at:g}")


def _order_p_rows(density, args):
    report = order_p_variance_check(density)
    caps = bounds.order_p_variance_caps(report.p)
    converged = bool(report.converged.all())
    rows = []
    for name, (statistic, cap) in caps.items():
        observed = getattr(report, statistic)
        margin = cap - observed
        rows.append((name, cap, observed, margin,
                     bounds.exact_verdict(margin, report.tol, converged)))
    cap = caps["trigamma"][1]
    return (rows, {"p": report.p, "tol": report.tol},
            f"var_log={report.var_log:.12g} trigamma_cap={cap:.12g} "
            f"margin={cap - report.var_log:.3e}")


def _aep_rows(report, args):
    svals = parse_grid(args.s_grid)
    rows = []
    for n, row in report.exceedance_table(svals, confidence=args.confidence):
        v = bounds.compare(row.estimate,
                           bounds.per_coordinate_tail_bound(row.t, n))
        rows.append((n, row.t, row.exceedances, *_cells(row.estimate),
                     v.bound, v.in_window, v.vacuous, v.verdict))
    medians = report.sup_deviation_medians()
    config = {"s_grid": svals, "entropy_rate": report.entropy_rate,
              "sup_deviation_medians": [float(x) for x in medians]}
    return rows, config, "sup-deviation medians: " + " ".join(
        f"n>={n}:{m:.4g}" for n, m in zip(report.n_grid, medians))


def _stream(args) -> tuple:
    """The random stream (seed, --stream) and the config entries naming it."""
    return RngStream(args.seed, stream_id=args.stream), {
        "seed": args.seed, "stream_id": args.stream, "confidence": args.confidence}


# Subject builders: each reads the model flags and returns the subject of
# an experiment together with the config entries that describe it.

def _density(args) -> tuple:
    spec = _read_spec(args, "density")
    return density_from_spec(spec), {"density": spec}


def _batch(args) -> tuple:
    spec = _read_spec(args, "batch")
    model = model_from_spec(spec)
    rng, config = _stream(args)
    batch = sample_information(model, args.samples, rng, workers=args.workers)
    return batch, {**config, "model": spec, "samples": args.samples}


def _trajectories(args) -> tuple:
    spec = _read_spec(args, "process")
    process = process_from_spec(spec)
    rng, config = _stream(args)
    report = run_trajectories(process, parse_grid(args.n_grid), args.samples,
                              rng, workers=args.workers)
    return report, {**config, "process": spec,
                    "trials": args.samples, "n_grid": report.n_grid.tolist()}


@dataclass(frozen=True)
class _Experiment:
    subject: Callable   # args -> (subject, config entries)
    rows: Callable      # (subject, args) -> (rows, config entries, last line)
    header: tuple
    bounds: frozenset   # catalog entries copied into the JSON report


_MC_HEADER = ("value", "std_error", "ci_low", "ci_high")

_EXPERIMENTS = {
    "tail": _Experiment(
        _batch, _tail_rows,
        ("t", "threshold_nats", "exceedances", *_MC_HEADER, "exp_bound",
         "exp_vacuous", "exp_verdict", "gauss_bound", "gauss_in_window",
         "gauss_verdict"),
        frozenset({"information_tail_exp", "information_tail_gaussian"})),
    "mgf": _Experiment(
        _batch, _mgf_rows,
        ("alpha", *_MC_HEADER, "bound", "in_window", "verdict"),
        frozenset({"information_mgf_nd"})),
    "variance": _Experiment(
        _batch, _variance_rows,
        ("n", "m", "mean", "mean_ci_low", "mean_ci_high", "variance",
         "var_std_error", "var_ci_low", "var_ci_high", "cap",
         "variance_per_coordinate", "verdict"),
        frozenset({"information_variance_nd"})),
    "entropy_power": _Experiment(
        _batch, _entropy_power_rows,
        ("s", *_MC_HEADER, "floor_bound", "in_window", "vacuous", "verdict"),
        frozenset({"entropy_power_band"})),
    "quantile_density": _Experiment(
        _density, _quantile_density_rows,
        ("t", "value", "concavity_defect", "verdict"), frozenset()),
    "lyapunov": _Experiment(
        _density, _lyapunov_rows,
        ("p", "log_value", "quad_error", "defect", "verdict"), frozenset()),
    "order_p": _Experiment(
        _density, _order_p_rows,
        ("cap_name", "cap_value", "observed", "margin", "verdict"),
        frozenset({"order_p_var_ratio", "order_p_var_cp",
                   "order_p_var_log_trigamma", "order_p_var_log_simple"})),
    "aep": _Experiment(
        _trajectories, _aep_rows,
        ("n", "s", "exceedances", *_MC_HEADER, "bound", "in_window",
         "vacuous", "verdict"),
        frozenset({"per_coordinate_tail"})),
}


def _run(args) -> int:
    """Run one experiment: subject, rows, verdict tally, outputs, exit code.

    Every cell of a column whose name ends in "verdict" counts toward the
    tally; empty cells (no comparison at that point) do not.
    """
    exp = _EXPERIMENTS[args.experiment]
    started = time.monotonic()
    subject, config = exp.subject(args)
    rows, extra, last_line = exp.rows(subject, args)
    config.update(extra)
    counts = {bounds.HOLDS: 0, bounds.INCONCLUSIVE: 0, bounds.VIOLATED: 0}
    verdict_cols = [i for i, name in enumerate(exp.header)
                    if name.endswith("verdict")]
    for row in rows:
        for i in verdict_cols:
            if row[i]:
                counts[row[i]] += 1
    if args.out_csv:
        write_csv(args.out_csv, exp.header, rows)
    if args.out_json:
        dump_json(args.out_json, {
            "experiment": args.experiment,
            "config": config,
            "results": [dict(zip(exp.header, row)) for row in rows],
            "bounds": [e.as_dict() for e in bounds.catalog()
                       if e.name in exp.bounds],
            "verdict_counts": counts,
            "meta": {
                "runtime_seconds": time.monotonic() - started,
                "timestamp": datetime.now(timezone.utc).isoformat(),
            },
        })
    print(f"{args.experiment}: "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    if last_line is not None:
        print(last_line)
    return 2 if counts[bounds.VIOLATED] > 0 else 0


def _run_list_bounds(args) -> int:
    entries = bounds.catalog()
    widths = [max(len(e.name) for e in entries),
              max(len(e.formula) for e in entries)]
    for e in entries:
        print(f"{e.name:<{widths[0]}}  {e.formula:<{widths[1]}}  [{e.validity}]")
        print(f"{'':<{widths[0]}}  {e.statement}")
    if args.out_json:
        dump_json(args.out_json, [e.as_dict() for e in entries])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="infoconc",
                     description="information concentration experiments")
    sub = parser.add_subparsers(
        dest="experiment",
        metavar="experiment",
        help="one of: " + ", ".join([*_EXPERIMENTS, "list-bounds"]))

    model_flags = _Parser(add_help=False)
    which = model_flags.add_mutually_exclusive_group()
    which.add_argument("--model", help="family name or JSON model spec")
    which.add_argument("--model-file", help="path to a JSON model spec")
    model_flags.add_argument("--p", type=float, default=None,
                             help="gamma family parameter")
    dim_flags = _Parser(add_help=False)
    dim_flags.add_argument("--dim", type=int, default=None,
                           help="product copies for bare family names")

    mc_flags = _Parser(add_help=False)
    mc_flags.add_argument("--samples", type=int, default=100000)
    mc_flags.add_argument("--seed", type=int, default=0)
    mc_flags.add_argument("--stream", type=int, default=0)
    mc_flags.add_argument("--workers", type=int, default=1)
    mc_flags.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)

    out_flags = _Parser(add_help=False)
    out_flags.add_argument("--out-csv")
    out_flags.add_argument("--out-json")

    ps = {}
    for name, exp in _EXPERIMENTS.items():
        parents = {_density: [model_flags, out_flags],
                   _batch: [model_flags, dim_flags, mc_flags, out_flags],
                   _trajectories: [model_flags, mc_flags, out_flags]}[exp.subject]
        ps[name] = sub.add_parser(name, parents=parents)
        ps[name].set_defaults(func=_run)

    ps["tail"].add_argument("--t-grid", default="0:8:0.5")
    ps["tail"].add_argument("--scaling", choices=["sqrt_n", "per_coordinate"],
                            default="sqrt_n")
    ps["mgf"].add_argument("--alpha-grid", default="0:1:0.25")
    ps["mgf"].add_argument("--form", choices=["two_sided_abs", "one_sided"],
                           default="two_sided_abs")
    ps["entropy_power"].add_argument("--s-grid", default="1")
    ps["quantile_density"].add_argument("--t-grid", default="0.05:0.95:0.05")
    ps["lyapunov"].add_argument("--kind", choices=["raw", "normalized", "hat"],
                                default="normalized")
    ps["lyapunov"].add_argument("--p-grid", default="0.5:40:0.5")
    ps["aep"].add_argument("--rho", type=float)
    ps["aep"].add_argument("--sd", type=float)
    ps["aep"].add_argument("--n-grid", default="16,64,256,1024")
    ps["aep"].add_argument("--s-grid", default="0.5")

    p = sub.add_parser("list-bounds")  # the catalog has no CSV form
    p.add_argument("--out-json")
    p.set_defaults(func=_run_list_bounds)

    return parser


# parsing only reads the parser and fills a fresh namespace, so one serves
# every call of main in the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "experiment", None) is None:
            parser.print_usage(sys.stderr)
            print("error: an experiment subcommand is required",
                  file=sys.stderr)
            return 1
        return args.func(args)
    except (UsageError, ParameterError, NumericsError, OSError,
            json.JSONDecodeError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
