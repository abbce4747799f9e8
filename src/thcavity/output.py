"""Deterministic artifact writers: CSV at fixed precision, JSON with sorted keys.

Identical inputs must give byte-identical files, so formatting is pinned: 17
significant digits scientific for floats, LF line endings, sorted JSON keys.
A CSV body is one % operation: each distinct tuple of cell types in the rows
gets one row template, built once from the conversion table.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

__all__ = ["format_float", "write_csv", "write_json"]

# printf conversion per cell type, first match wins: strings and bools as
# text, Python ints in full, and every other number (float, numpy scalars)
# at 17 significant digits, enough to round-trip any double exactly; the
# float conversion writes nan, inf and -inf as str() does
_CONVERSIONS = ((str, "%s"), (bool, "%s"), (int, "%d"))
_FLOAT = "%.16e"


def _conversion(cell_type) -> str:
    return next((c for t, c in _CONVERSIONS if issubclass(cell_type, t)), _FLOAT)


def format_float(x) -> str:
    """17 significant digits; bools, ints and nan/inf as str() writes them."""
    return _conversion(type(x)) % (x,)


def write_csv(path, header, rows) -> Path:
    """Write rows (sequences of numbers/strings) under a comma-joined header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = list(rows)
    templates = {}

    def template(row):
        key = tuple(map(type, row))
        if key not in templates:
            templates[key] = ",".join(map(_conversion, key)) + "\n"
        return templates[key]

    # cells enter the body only as % arguments, so a % in a cell is literal text
    body = "".join(map(template, rows)) % tuple(chain.from_iterable(rows))
    path.write_text(",".join(header) + "\n" + body, newline="\n")
    return path


def _jsonable(v):
    import numpy as np

    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    path.write_text(text + "\n", newline="\n")
    return path
