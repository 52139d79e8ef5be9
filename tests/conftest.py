"""Shared test helpers."""
from collections import Counter

import pytest

from infoconc.distributions import (ModelND, exponential, gamma, gaussian1d,
                                    half_normal, laplace, uniform)


def standard_zoo() -> list:
    """Canonical instances exercised by the cross-family test sweeps."""
    return [exponential(), gamma(2.0), gamma(5.0), gaussian1d(), laplace(),
            uniform(0.0, 1.0), half_normal()]


def positive_zoo() -> list:
    """Zoo members supported on (0, inf) (or a positive interval)."""
    return [exponential(), gamma(1.5), gamma(2.0), gamma(5.0), half_normal(),
            uniform(0.0, 1.0), uniform(0.5, 2.5)]


class WholeModel(ModelND):
    """``model`` with no information law, and not a ``Product``, so that
    ``sample_information`` draws it by ``ModelND.draw_deviations``'s
    default: row chunks (one row, past 2^16 columns) of ``model.sample`` and
    ``model.log_density``; ``calls`` counts both."""

    def __init__(self, model):
        self.model = model
        self.dim, self.entropy = model.dim, model.entropy
        self.calls = Counter()

    def sample(self, gen, size):
        self.calls["sample"] += 1
        return self.model.sample(gen, size)

    def log_density(self, x):
        self.calls["log_density"] += 1
        return self.model.log_density(x)


@pytest.fixture
def model_route():
    return WholeModel
