"""Module layering: only ``bounds`` decides which bounds apply and judges
them, so the estimators, the exact checks and the layers beneath them
return values and never import it (``cli`` pairs the two).
"""
import ast
from pathlib import Path

import pytest

import infoconc

SRC = Path(infoconc.__file__).parent


def imported_modules(name: str) -> set:
    """Every module a source file imports, at any depth, relative imports
    resolved against the package."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "infoconc" + ("." + base if base else "")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("name", ["infotools", "aep", "lyapunov",
                                  "distributions", "numerics"])
def test_does_not_import_bounds(name):
    assert "infoconc.bounds" not in imported_modules(name)


def test_the_scan_sees_an_import_of_bounds():
    assert "infoconc.bounds" in imported_modules("cli")


def attributes_read(name: str) -> set:
    """Every attribute name and every bare name a source file uses."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    return ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


# a model draws its own deviations (ModelND.draw_deviations): the block
# routine reads neither a product's runs, nor the cut, nor the information
# law, and aep neither runs nor the law draw (its pool cap may read the cut
# and its base's shape)
@pytest.mark.parametrize("name,names", [
    ("infotools", {"runs", "_CHUNK_ELEMENTS", "standard_gamma", "info_shape",
                   "info_rest"}),
    ("aep", {"runs", "standard_gamma", "info_rest"}),
])
def test_the_cut_of_a_rest_stays_in_distributions(name, names):
    assert not names & attributes_read(name)


def test_the_scan_sees_the_cut_of_a_rest():
    assert ({"runs", "_CHUNK_ELEMENTS", "standard_gamma"}
            <= attributes_read("distributions"))


# RngStream.fill is the one block schedule: it alone keys the generators,
# opens the pool and turns float warnings off around the draws; aep's
# exceedance table is empirical_tail's, with no count or interval of its own
@pytest.mark.parametrize("name,names", [
    ("infotools", {"errstate", "ThreadPoolExecutor", "generator"}),
    ("aep", {"errstate", "ThreadPoolExecutor", "generator",
             "_count_exceedances", "from_proportion"}),
])
def test_the_block_schedule_stays_in_fill(name, names):
    assert not names & attributes_read(name)


def test_the_scan_sees_the_block_schedule():
    assert ({"errstate", "ThreadPoolExecutor", "generator"}
            <= attributes_read("distributions"))
    assert {"_count_exceedances", "from_proportion"} <= attributes_read("infotools")
