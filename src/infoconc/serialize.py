"""Deterministic CSV and JSON output.

Floats are rendered with 17 significant digits so a value survives a
round-trip exactly; JSON keys are sorted so identical configurations
produce byte-identical reports.  JSON has no token for a non-finite
float, so a report spells one as its CSV cell does, the string "inf",
"-inf" or "nan".  Anything time- or host-dependent belongs in the
report's "meta" block, which comparisons are expected to drop.
"""
from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["fmt17", "write_csv", "canonical_json", "dump_json"]


def fmt17(x) -> str:
    """Render a float with enough digits to round-trip (shortest %.17g)."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    return fmt17(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows with a fixed header, floats at full precision, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def _json_value(obj):
    """obj with each numpy scalar made a Python one and each non-finite
    float its CSV spelling, through dicts, lists and tuples."""
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return fmt17(obj)
    return obj


def canonical_json(obj) -> str:
    """Serialize with sorted keys and stable separators (ends with newline)."""
    return json.dumps(_json_value(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def dump_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))
