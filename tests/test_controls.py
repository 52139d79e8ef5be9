"""Negative controls: the Monte Carlo pipeline must be able to fail.

The mixture 1/2 N(0, 1) + 1/2 U(-10^15, 10^15) is far from log-concave.
Its information -log f(X) sits near 1.6 + X^2/2 on the normal half and near
log(4 10^15) = 35.9 on the uniform half, so the deviation from the entropy
h = 19.02 is about +-17 on almost every draw: P{|dev| >= t} is near 1 for
t <= 16, far above the exp-form bound 2 e^(-t/16), and falls to about 0.19
at t = 17 (the normal draws with X^2 < 0.8 or X^2 > 69), below it.  The
same run on a Laplace product, which is log-concave, violates nothing.
"""
import math

import numpy as np
import pytest

from infoconc.bounds import HOLDS, VIOLATED, compare, exp_tail_bound
from infoconc.distributions import Density1D, Product, RngStream, laplace
from infoconc.infotools import empirical_tail, sample_information

WIDE = 1e15
# the mixture's entropy in nats; a 40-digit quadrature agrees to 1e-13
MIXTURE_ENTROPY = 19.018578234897596
T_GRID = [12.0, 14.0, 16.0, 17.0]
DRAWS = 2000


def normal_uniform_mixture() -> Density1D:
    """1/2 N(0, 1) + 1/2 U(-WIDE, WIDE), drawn component by component."""
    log_half_normal = -math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
    log_half_flat = -math.log(4.0 * WIDE)

    def draw(gen, size):
        normal = gen.random(size) < 0.5
        return np.where(normal, gen.standard_normal(size),
                        gen.uniform(-WIDE, WIDE, size))

    return Density1D(
        name="normal_uniform_mixture", support=(-WIDE, WIDE),
        entropy=MIXTURE_ENTROPY, mode=0.0,
        _log_pdf=lambda x: np.logaddexp(log_half_normal - 0.5 * x * x,
                                        log_half_flat),
        _sampler=draw)


def exp_form_verdicts(density, seed) -> list:
    batch = sample_information(Product([(density, 1)]), DRAWS, RngStream(seed))
    return [compare(row.estimate, exp_tail_bound(row.t)).verdict
            for row in empirical_tail(batch, T_GRID)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_non_log_concave_mixture_violates_the_exp_form(seed):
    assert exp_form_verdicts(normal_uniform_mixture(), seed) == \
        [VIOLATED, VIOLATED, VIOLATED, HOLDS]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laplace_product_violates_nothing(seed):
    assert VIOLATED not in exp_form_verdicts(laplace(), seed)
