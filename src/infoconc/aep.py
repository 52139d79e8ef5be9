"""Equipartition checks for stationary processes.

For a process X_1, X_2, ... with joint densities f_n, the per-coordinate
information -log f_n(X_1..X_n)/n converges to the entropy rate, and for the
log-concave processes here the per-coordinate tail bound

    P{ |log f_n(X) + h(f_n)| >= s n } <= 3 e^(-s^2 n / 16)

quantifies the speed.  A ``TrajectoryReport`` holds the deviations
-log f_n(X) - h(f_n) themselves; its ``exceedance_table`` estimates the
left-hand side with ``infotools.empirical_tail``, as for any batch, and
``bounds`` judges it.  Two families are implemented:
products of a fixed one-dimensional density, and the stationary Gaussian
autoregression

    X_1 ~ N(0, sd^2/(1 - rho^2)),   X_k = rho X_{k-1} + sd Z_k.

By the chain rule, one conditional Gaussian per step, the information
deviation of an autoregression step is z^2/2 - 1/2 of its standardized
innovation z, Gamma(1/2, 1) - 1/2 in law; the dense covariance form
Sigma_ij = sigma1^2 rho^|i-j| exists only in the tests, as an independent
oracle for that law.

A report reads each trajectory only at its grid lengths, so each grid
interval of d steps is the product of d step densities, which draws its own
deviations (see ``run_trajectories``).  Trajectories are one
``RngStream.fill`` of the report's deviations in fixed blocks of
TRIAL_BLOCK trials, block b drawing from its own keyed SFC64 generator, so
reports are byte-identical for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import distributions
from .distributions import (Density1D, ParameterError, Product, RngStream,
                            _finite, density_from_spec, gaussian1d, spec_reader)
from .infotools import (DEFAULT_CONFIDENCE, InfoSampleBatch, _check_count,
                        empirical_tail)
from .numerics import DomainError, NumericsError, check_grid

__all__ = [
    "TRIAL_BLOCK",
    "IIDProcess",
    "GaussAR1",
    "TrajectoryReport",
    "process_from_spec",
    "run_trajectories",
]

# Trials per RNG block; fixed so that reports do not depend on worker count.
TRIAL_BLOCK = 1024


class IIDProcess:
    """Independent copies of a fixed one-dimensional density, the ``base``
    of each step."""

    def __init__(self, base: Density1D):
        self.base = base
        self.entropy_rate = float(base.entropy)

    def joint_entropy(self, n: int) -> float:
        return n * self.entropy_rate


class GaussAR1:
    """Stationary Gaussian autoregression of order one.  The information
    of a step is a constant plus z^2/2 of its innovation z, so its deviation
    has the law of its ``base`` N(0, sd^2)'s, Gamma(1/2, 1) - 1/2."""

    def __init__(self, rho: float = 0.5, sd: float = 1.0):
        rho, sd = _finite(rho, "autoregression rho"), _finite(sd, "innovation sd")
        if not -1.0 < rho < 1.0:
            raise ParameterError(f"autoregression needs |rho| < 1, got {rho!r}")
        if sd <= 0.0:
            raise ParameterError(f"innovation scale must be positive, got {sd!r}")
        self.rho, self.sd = rho, sd
        self.base = gaussian1d(0.0, sd)
        self.sigma1_sq = sd * sd / (1.0 - rho * rho)
        self.entropy_rate = self.base.entropy

    def joint_entropy(self, n: int) -> float:
        first = self.entropy_rate - 0.5 * math.log1p(-self.rho ** 2)
        return first + (n - 1) * self.entropy_rate


@dataclass(frozen=True)
class TrajectoryReport:
    """Information deviations of simulated trajectories at grid lengths."""

    entropy_rate: float
    n_grid: np.ndarray
    joint_entropies: np.ndarray
    deviations: np.ndarray    # (trials, len(n_grid)), -log f_n - h_n

    @property
    def info(self) -> np.ndarray:
        """-log f_n / n, the per-coordinate information, in a fresh array."""
        info = self.deviations + self.joint_entropies
        info /= self.n_grid
        return info

    def sup_deviation_medians(self) -> np.ndarray:
        """Median over trials of sup_{n' >= n} |info - entropy rate|.

        The inner sup runs over the tail of the length grid, so the medians
        are non-increasing by construction; strict decrease is the
        convergence signal the equipartition property predicts.
        """
        gap = self.info
        gap -= self.entropy_rate
        np.abs(gap, out=gap)
        tail_sup = np.maximum.accumulate(gap[:, ::-1], axis=1)[:, ::-1]
        return np.median(tail_sup, axis=0)

    def exceedance_table(self, s_values: Sequence[float],
                         confidence: float = DEFAULT_CONFIDENCE) -> list:
        """Wilson estimates of P{|-log f_n - h_n| >= s n} per length and s:
        (n, row) pairs, row the ``empirical_tail`` row of n's deviations,
        per coordinate, whose ``t`` is s."""
        svals = check_grid(s_values, "s grid")
        if svals[0] <= 0.0:
            raise DomainError("tail levels s must be positive")
        return [(n, row)
                for n, column in zip(self.n_grid.tolist(), self.deviations.T)
                for row in empirical_tail(InfoSampleBatch(n, column), svals,
                                          "per_coordinate", confidence)]


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
    """Simulate ``trials`` trajectories and record -log f_n - h_n at each n.

    ``rng.fill`` hands each block of TRIAL_BLOCK trials its rows of the
    deviations.  A block draws one row of step deviations per grid
    interval, and the cumulative sum of the rows up to n is -log f_n - h_n.
    An interval of d steps, whatever d is, is the one-run product
    ``Product([(process.base, d)])``, which draws its own deviations: one
    Gamma(k d, 1) - k d draw for a base of shape k, or else its steps in
    pieces, so a worker's memory stays bounded.  At most one worker starts
    per ``distributions._CHUNK_ELEMENTS`` draws: thread hand-offs cost more
    than a few law draws.  A length, trial count or (trials, grid) size past
    ``_MAX_COUNT`` raises DomainError; a NaN or infinite joint entropy
    (checked before any draw) or deviation raises NumericsError.
    """
    grid = check_grid(n_grid, "length grid")
    if grid[0] < 1.0 or np.any(grid != np.floor(grid)):
        raise DomainError("trajectory lengths must be integers >= 1")
    _check_count(int(grid[-1]), "trajectory length")
    grid = grid.astype(np.int64)
    _check_count(trials, "trial count", least=2)
    _check_count(trials * grid.size, "trial count times grid lengths")
    joint = np.array([process.joint_entropy(int(n)) for n in grid])
    if not np.isfinite(joint).all():
        raise NumericsError("joint entropies are not all finite; check the "
                            "process parameters")
    intervals = [Product([(process.base, d)])
                 for d in np.diff(grid, prepend=0).tolist()]
    draws = grid.size if process.base.info_shape is not None else int(grid[-1])
    workers = min(workers, -(-trials * draws // distributions._CHUNK_ELEMENTS))

    def draw(gen: np.random.Generator, rows: np.ndarray) -> None:
        steps = np.empty((grid.size, len(rows)))
        for row, interval in zip(steps, intervals):
            interval.draw_deviations(gen, row)
        rows[...] = np.cumsum(steps, axis=0, out=steps).T

    deviations = np.empty((trials, grid.size))
    rng.fill(deviations, TRIAL_BLOCK, draw, workers)
    return TrajectoryReport(entropy_rate=process.entropy_rate, n_grid=grid,
                            joint_entropies=joint, deviations=deviations)
