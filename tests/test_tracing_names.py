"""The benchmark tracer (benchmarks/tracing.py) rebinds library functions
and methods by name, so a rename in the library breaks it silently; every
name it lists must resolve in infoconc."""
import importlib
import importlib.util
import inspect
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


# (module, function, parameter) the tracer's hooks read by name from the
# bound arguments of a call
HOOKED_PARAMETERS = [
    ("infotools", "sample_information", "m"),
    ("aep", "run_trajectories", "n_grid"),
    ("aep", "run_trajectories", "trials"),
    ("serialize", "write_csv", "path"),
    ("serialize", "dump_json", "path"),
]


@pytest.mark.parametrize("module, function, parameter", HOOKED_PARAMETERS)
def test_hooked_parameter_resolves(module, function, parameter):
    fn = getattr(importlib.import_module(f"infoconc.{module}"), function)
    assert parameter in inspect.signature(fn).parameters


def test_custom_density_takes_two_positional_arguments():
    # the hook unpacks (name, log_density_fn, *rest) from the positional
    # arguments and swaps the second for a counting wrapper
    from infoconc.distributions import from_log_density
    first_two = list(inspect.signature(from_log_density).parameters.values())[:2]
    assert len(first_two) == 2
    assert all(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               for p in first_two)


def test_iid_process_is_built_from_one_base():
    # the tracer replaces IIDProcess with a one-argument builder
    from infoconc.aep import IIDProcess
    inspect.signature(IIDProcess).bind(object())


@pytest.mark.parametrize("module, name", [("infotools", "BLOCK_SIZE"),
                                          ("aep", "TRIAL_BLOCK")])
def test_block_constant_resolves(module, name):
    value = getattr(importlib.import_module(f"infoconc.{module}"), name)
    assert isinstance(value, int) and value >= 1
