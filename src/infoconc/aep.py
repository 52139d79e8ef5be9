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

By the chain rule, one conditional Gaussian per step, the information of
an autoregression step is a constant plus z^2/2 of its standardized
innovation z; the dense covariance form Sigma_ij = sigma1^2 rho^|i-j|
exists only in the tests, as an independent oracle for that law.

A report reads each trajectory only at its grid lengths.  For most of the
zoo the information of one step is c + Gamma(k, 1) in law, so such a
process is drawn at the grid points directly, one Gamma draw per trial and
grid interval, without the base sampler or log_pdf; any other i.i.d. base
(gamma(p > 1), custom densities) draws every step, in bounded pieces (see
``run_trajectories``).  Trajectories are simulated on
``RngStream.run_blocks``, the one block schedule of the package, in fixed
blocks of TRIAL_BLOCK trials, block b drawing from counter offset b of the
Philox stream, so reports are byte-identical for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import distributions
from .distributions import (Density1D, LOG_2PI, ParameterError, RngStream,
                            _finite, density_from_spec, spec_reader)
from .infotools import McEstimate
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
    """Independent copies of a fixed one-dimensional density; ``info_law``
    is (k, c, c) for a base with information law (k, c), else None."""

    def __init__(self, base: Density1D):
        self.base = base
        self.entropy_rate = float(base.entropy)
        self.spec = {"process": "iid", "base": base.spec}
        law = base.info_law
        self.info_law = None if law is None else (law[0], law[1], law[1])

    def joint_entropy(self, n: int) -> float:
        return n * self.entropy_rate


class GaussAR1:
    """Stationary Gaussian autoregression of order one.  The information
    of a step is a constant plus z^2/2 ~ Gamma(1/2, 1) of its innovation z:
    ``info_law`` is (1/2, constant of step 1, constant of later steps)."""

    def __init__(self, rho: float = 0.5, sd: float = 1.0):
        rho, sd = _finite(rho, "autoregression rho"), _finite(sd, "innovation sd")
        if not -1.0 < rho < 1.0:
            raise ParameterError(f"autoregression needs |rho| < 1, got {rho!r}")
        if sd <= 0.0:
            raise ParameterError(f"innovation scale must be positive, got {sd!r}")
        self.rho, self.sd = rho, sd
        self.sigma1_sq = sd * sd / (1.0 - rho * rho)
        self.entropy_rate = 0.5 * (LOG_2PI + 1.0 + math.log(sd * sd))
        self.spec = {"process": "gauss_ar1", "params": {"rho": self.rho, "sd": self.sd}}
        self.info_law = (0.5, 0.5 * (LOG_2PI + math.log(self.sigma1_sq)),
                         0.5 * (LOG_2PI + math.log(sd * sd)))

    def joint_entropy(self, n: int) -> float:
        first = 0.5 * (LOG_2PI + 1.0 + math.log(self.sigma1_sq))
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
                         confidence: float = 0.999) -> list:
        """Wilson estimates of P{|centered deviation| >= s} per length and s."""
        svals = check_grid(s_values, "s grid")
        if svals[0] <= 0.0:
            raise DomainError("tail levels s must be positive")
        dev = np.abs(self.per_coord_deviations())
        rows = []
        for j, n in enumerate(self.n_grid):
            for s in svals:
                count = int(np.count_nonzero(dev[:, j] >= s))
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

    Each trajectory is one growing sample path read at the grid lengths.
    With an information law (k, c1, c), the d steps between two grid
    lengths sum to their constants plus Gamma(k d, 1), independent over
    disjoint intervals: one ``standard_gamma`` draw per trial and interval,
    a cumulative sum and the offsets c n + c1 - c have exactly the joint
    law of the path at the grid points.  Thread hand-offs cost more than a
    few such draws, so a worker starts per ``_CHUNK_ELEMENTS`` of them.

    Otherwise every step is drawn and its -log f summed.  A block of
    trials is then drawn and summed in pieces of at most
    ``distributions._CHUNK_ELEMENTS`` steps, whole trials at a time or,
    for a trial longer than that, one column piece of it at a time, in the
    trial-by-trial order of the stream.  Each piece's running sum is
    carried into the next piece's first step and only the grid columns a
    piece covers are recorded, so ``info`` holds the same bytes as the
    cumulative sum of whole trajectories while a worker's memory stays
    bounded by the budget, whatever the longest length.  A per-coordinate
    deviation that is NaN or infinite raises NumericsError.
    """
    grid = check_grid(n_grid, "length grid")
    if grid[0] < 1.0 or np.any(grid != np.floor(grid)):
        raise DomainError("trajectory lengths must be integers >= 1")
    grid = grid.astype(np.int64)
    if trials < 2:
        raise DomainError(f"need at least two trials, got {trials!r}")
    info = np.empty((trials, grid.size))
    if process.info_law is not None:
        k, first, c = process.info_law
        shapes = k * np.diff(grid, prepend=0)
        offsets = c * grid + (first - c)
        workers = min(workers, -(-trials * grid.size // distributions._CHUNK_ELEMENTS))

        def run_block(gen: np.random.Generator, lo: int, hi: int) -> None:
            g = gen.standard_gamma(shapes, (hi - lo, grid.size))
            info[lo:hi] = (np.cumsum(g, axis=1, out=g) + offsets) / grid
    else:  # only an i.i.d. process can lack an information law
        base = process.base
        length = int(grid[-1])
        cols = grid - 1
        budget = distributions._CHUNK_ELEMENTS
        rows = max(1, budget // length)
        width = min(length, budget)
        # the grid columns each column piece covers, as piece-local indices
        pieces = []
        for start in range(0, length, width):
            stop = min(start + width, length)
            sel = np.flatnonzero((cols >= start) & (cols < stop))
            pieces.append((stop - start, sel, cols[sel] - start))

        def run_block(gen: np.random.Generator, lo: int, hi: int) -> None:
            # a NaN or infinity is reported once, below, not warned of per block
            with np.errstate(all="ignore"):
                for r in range(lo, hi, rows):
                    k = min(rows, hi - r)
                    carry = None
                    for w, sel, local in pieces:
                        steps = -base.log_pdf(base.sample(gen, k * w).reshape(k, w))
                        if carry is not None:  # adding 0.0 would turn -0.0 into 0.0
                            steps[:, 0] += carry
                        cum = np.cumsum(steps, axis=1, out=steps)
                        carry = cum[:, -1].copy()
                        info[r:r + k, sel] = cum[:, local] / grid[sel]

    rng.run_blocks(trials, TRIAL_BLOCK, run_block, workers)
    joint = np.array([process.joint_entropy(int(n)) for n in grid])
    if not (np.isfinite(info).all() and np.isfinite(joint).all()):
        raise NumericsError("per-coordinate information deviations are not "
                            "all finite; check the process parameters")
    return TrajectoryReport(entropy_rate=process.entropy_rate, n_grid=grid,
                            joint_entropies=joint, info=info, trials=trials)
