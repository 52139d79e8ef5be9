"""Shared test helpers."""
from collections import Counter

import pytest

from infoconc.distributions import ModelND


class WholeModel(ModelND):
    """``model`` with neither an information law nor a rest, so that
    ``sample_information`` draws and evaluates its points through
    ``model.sample`` and ``model.log_density``; ``calls`` counts both."""

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
