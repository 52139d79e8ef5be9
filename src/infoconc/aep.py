"""Equipartition checks for stationary processes.

For a process X_1, X_2, ... with joint densities f_n, the per-coordinate
information -log f_n(X_1..X_n)/n converges to the entropy rate, and for the
log-concave processes here the per-coordinate tail bound

    P{ |log f_n(X) + h(f_n)| >= s n } <= 3 e^(-s^2 n / 16)

quantifies the speed; ``TrajectoryReport.exceedance_table`` estimates the
left-hand side, and ``bounds`` judges it.  Two families are implemented:
products of a fixed one-dimensional density, and the stationary Gaussian
autoregression

    X_1 ~ N(0, sd^2/(1 - rho^2)),   X_k = rho X_{k-1} + sd Z_k.

By the chain rule, one conditional Gaussian per step, the information
deviation of an autoregression step is z^2/2 - 1/2 of its standardized
innovation z, Gamma(1/2, 1) - 1/2 in law; the dense covariance form
Sigma_ij = sigma1^2 rho^|i-j| exists only in the tests, as an independent
oracle for that law.

A report reads each trajectory only at its grid lengths, so each grid
interval is drawn whole by ``sample_information``'s block routine (see
``run_trajectories``).  Trajectories are simulated on ``RngStream.run_blocks``
in fixed blocks of TRIAL_BLOCK trials, block b drawing from counter offset b
of the Philox stream, so reports are byte-identical for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import distributions
from .distributions import (Density1D, LOG_2PI, ParameterError, Product,
                            RngStream, _finite, density_from_spec, spec_reader)
from .infotools import (DEFAULT_CONFIDENCE, McEstimate, _check_count,
                        _count_exceedances, _draw_deviations)
from .numerics import DomainError, NumericsError, check_grid

__all__ = [
    "TRIAL_BLOCK",
    "IIDProcess",
    "GaussAR1",
    "TrajectoryReport",
    "ExceedanceRow",
    "process_from_spec",
    "run_trajectories",
]

# Trials per RNG block; fixed so that reports do not depend on worker count.
TRIAL_BLOCK = 1024


class IIDProcess:
    """Independent copies of a fixed one-dimensional density; a step's
    ``info_shape`` is its base's."""

    def __init__(self, base: Density1D):
        self.base = base
        self.entropy_rate = float(base.entropy)
        self.spec = {"process": "iid", "base": base.spec}
        self.info_shape = base.info_shape

    def joint_entropy(self, n: int) -> float:
        return n * self.entropy_rate


class GaussAR1:
    """Stationary Gaussian autoregression of order one.  The information
    of a step is a constant plus z^2/2 ~ Gamma(1/2, 1) of its innovation z,
    so a step's ``info_shape`` is 1/2."""

    info_shape = 0.5

    def __init__(self, rho: float = 0.5, sd: float = 1.0):
        rho, sd = _finite(rho, "autoregression rho"), _finite(sd, "innovation sd")
        if not -1.0 < rho < 1.0:
            raise ParameterError(f"autoregression needs |rho| < 1, got {rho!r}")
        if sd <= 0.0:
            raise ParameterError(f"innovation scale must be positive, got {sd!r}")
        self.rho, self.sd = rho, sd
        self.sigma1_sq = sd * sd / (1.0 - rho * rho)
        self.entropy_rate = 0.5 * (LOG_2PI + 1.0) + math.log(sd)
        self.spec = {"process": "gauss_ar1", "params": {"rho": self.rho, "sd": self.sd}}

    def joint_entropy(self, n: int) -> float:
        first = self.entropy_rate - 0.5 * math.log1p(-self.rho ** 2)
        return first + (n - 1) * self.entropy_rate


@dataclass(frozen=True)
class ExceedanceRow:
    n: int
    s: float
    exceedances: int
    estimate: McEstimate


@dataclass(frozen=True)
class TrajectoryReport:
    """Per-coordinate information of simulated trajectories at grid lengths."""

    entropy_rate: float
    n_grid: np.ndarray
    joint_entropies: np.ndarray
    info: np.ndarray          # (trials, len(n_grid)), -log f_n / n
    trials: int

    def per_coord_deviations(self) -> np.ndarray:
        """info minus h_n/n, the centered per-coordinate deviations."""
        return self.info - self.joint_entropies / self.n_grid

    def sup_deviation_medians(self) -> np.ndarray:
        """Median over trials of sup_{n' >= n} |info - entropy rate|.

        The inner sup runs over the tail of the length grid, so the medians
        are non-increasing by construction; strict decrease is the
        convergence signal the equipartition property predicts.
        """
        gap = np.abs(self.info - self.entropy_rate)
        tail_sup = np.maximum.accumulate(gap[:, ::-1], axis=1)[:, ::-1]
        return np.median(tail_sup, axis=0)

    def exceedance_table(self, s_values: Sequence[float],
                         confidence: float = DEFAULT_CONFIDENCE) -> list:
        """Wilson estimates of P{|centered deviation| >= s} per length and s."""
        svals = check_grid(s_values, "s grid")
        if svals[0] <= 0.0:
            raise DomainError("tail levels s must be positive")
        dev = self.per_coord_deviations()
        rows = []
        for j, n in enumerate(self.n_grid):
            for s in svals:
                count = _count_exceedances(dev[:, j], s)
                rows.append(ExceedanceRow(
                    n=int(n), s=float(s), exceedances=count,
                    estimate=McEstimate.from_proportion(count, self.trials,
                                                        confidence)))
        return rows


@spec_reader
def process_from_spec(spec: dict):
    """Build a process from {"process": "gauss_ar1", "params": {"rho": ...,
    "sd": ...}} (GaussAR1's defaults fill what params leave out), from
    {"process": "iid", "base": <1-D density spec>}, or from a bare 1-D
    density spec, which runs i.i.d."""
    if not isinstance(spec, dict) or "process" not in spec:
        return IIDProcess(density_from_spec(spec))
    if spec["process"] == "gauss_ar1":
        return GaussAR1(**spec.get("params", {}))
    if spec["process"] == "iid":
        return IIDProcess(density_from_spec(spec["base"]))
    raise ParameterError(f"unknown process {spec['process']!r}")


def run_trajectories(process, n_grid: Sequence[int], trials: int,
                     rng: RngStream, workers: int = 1) -> TrajectoryReport:
    """Simulate ``trials`` trajectories and record -log f_n / n at each n.

    A block of trials fills one row per grid interval with the deviations
    of its steps, by ``infotools``' block routine, and -log f_n is h_n plus
    the cumulative sum of the rows up to n.  An interval of d steps,
    whatever d is, is one Gamma(k d, 1) - k d draw with a step shape k, or
    else the one-run rest ``Product([(base, d)])`` of an i.i.d. base with no
    law, which cuts itself into pieces, so a worker's memory stays bounded.
    At most one worker starts per ``distributions._CHUNK_ELEMENTS`` draws:
    thread hand-offs cost more than a few law draws.  A length, trial count
    or (trials, grid) size past ``_MAX_COUNT`` raises DomainError, a NaN or
    infinite deviation NumericsError.
    """
    grid = check_grid(n_grid, "length grid")
    if grid[0] < 1.0 or np.any(grid != np.floor(grid)):
        raise DomainError("trajectory lengths must be integers >= 1")
    _check_count(int(grid[-1]), "trajectory length")
    grid = grid.astype(np.int64)
    _check_count(trials, "trial count", least=2)
    _check_count(trials * grid.size, "trial count times grid lengths")
    k = process.info_shape
    intervals = [(k * d, None) if k is not None
                 else (0.0, Product([(process.base, d)]))
                 for d in np.diff(grid, prepend=0).tolist()]
    draws = grid.size if k is not None else int(grid[-1])
    workers = min(workers, -(-trials * draws // distributions._CHUNK_ELEMENTS))
    joint = np.array([process.joint_entropy(int(n)) for n in grid])
    info = np.empty((trials, grid.size))

    def run_block(gen: np.random.Generator, lo: int, hi: int) -> None:
        dev = np.empty((grid.size, hi - lo))
        # a NaN or infinity is reported once, below, not warned of per block
        with np.errstate(all="ignore"):
            for row, (shape, rest) in zip(dev, intervals):
                _draw_deviations(gen, shape, rest, row)
            np.cumsum(dev, axis=0, out=dev)
            dev += joint[:, None]
            dev /= grid[:, None]
        info[lo:hi] = dev.T

    rng.run_blocks(trials, TRIAL_BLOCK, run_block, workers)
    if not np.isfinite(info).all():
        raise NumericsError("per-coordinate information deviations are not "
                            "all finite; check the process parameters")
    return TrajectoryReport(entropy_rate=process.entropy_rate, n_grid=grid,
                            joint_entropies=joint, info=info, trials=trials)
