"""The benchmark tracer (benchmarks/tracing.py) rebinds library functions
and methods by name, so a rename in the library breaks it silently; every
name it lists must resolve in infoconc."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", tracing.TRACED)
def test_traced_function_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"infoconc.{module}"),
                            function))


@pytest.mark.parametrize("module, cls, method", tracing.TRACED_METHODS)
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"infoconc.{module}"), cls)
    # the tracer reads the method from the class's own dict
    assert callable(vars(owner)[method])
