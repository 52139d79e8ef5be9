"""Shared test helpers."""
import copy

import pytest


def _model_route(model):
    """A copy of ``model`` without its information law, so that
    ``sample_information`` draws and evaluates its points."""
    clone = copy.copy(model)
    clone.info_shape = None
    return clone


@pytest.fixture
def model_route():
    return _model_route
