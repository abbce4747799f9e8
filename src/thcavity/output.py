"""Deterministic artifact writers: CSV at fixed precision, JSON with sorted keys.

Identical inputs must give byte-identical files, so formatting is pinned: 17
significant digits scientific for floats, LF line endings, UTF-8, sorted JSON
keys.

A CSV is written from columns.  A float64 ndarray column goes through one
vectorized kernel that writes exactly the bytes of '%.16e' % x: for
1e-11 <= |x| < 1e17 it forms the 17 digits N = round-half-even(|x| 10^(16-E))
as an exact 128-bit integer product, with E = floor(log10 |x|) decided by the
exact value; 0 and -0 are written directly, and every other cell (nan, ±inf,
|x| < 1e-11, |x| >= 1e17) goes through '%'.  Any other column (strings, ints,
bools, Python or numpy scalars in a list) is formatted cell by cell from the
conversion table.  The files are byte-identical to '%' applied to every cell.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_json"]

# printf conversion per cell type, first match wins: strings and bools as
# text, Python ints in full, and every other number (float, numpy scalars)
# at 17 significant digits, enough to round-trip any double exactly; the
# float conversion writes nan, inf and -inf as str() does
_CONVERSIONS = ((str, "%s"), (bool, "%s"), (int, "%d"))
_FLOAT = "%.16e"

_PAD = 0xFF          # never a byte of UTF-8 text, so dropping it drops only padding
_CELL = 24           # the longest '%.16e' text: -1.0000000000000000e-100
_BLOCK_BYTES = 1 << 16  # slot bytes per row block: keeps every temporary small

# k = 16 - E for E in -12..16: 10^k = 5^k 2^k, and 5^28 > 2^64 is split as 5 * 5^27
_POW5 = np.array([5 ** min(k, 27) for k in range(29)], dtype=np.uint64)
_POW5_REST = np.array([5 ** max(k - 27, 0) for k in range(29)], dtype=np.uint64)
# a kernel cell is six 4-byte words: a pad byte, pad or sign, the lead digit
# and the point; four groups of four digits; the exponent.  Each table holds
# one word per entry
_HEADS = np.frombuffer(b"".join(bytes([_PAD]) + sign + b"%d." % d
                                for sign in (bytes([_PAD]), b"-") for d in range(10)), np.uint32)
_QUADS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()     # "0000".."9999"
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-12, 17)), np.uint32)


def _conversion(cell_type) -> str:
    return next((c for t, c in _CONVERSIONS if issubclass(cell_type, t)), _FLOAT)


def _scaled(mant, e2, exp10):
    """floor(v) and whether v rounds up half to even, v = mant 2^e2 10^(16 - exp10).

    mant < 2^53 and 5^k < 2^63 give an exact 128-bit product in two uint64
    limbs from 32-bit halves; the shift s = e2 + k lies in [-62, 4].
    """
    k = 16 - exp10
    mant = mant * _POW5_REST[k]
    pow5 = _POW5[k]
    m0, m1 = mant & 0xFFFFFFFF, mant >> 32
    p0, p1 = pow5 & 0xFFFFFFFF, pow5 >> 32
    low = m0 * p0
    mid = m1 * p0 + m0 * p1
    lo = low + (mid << 32)
    hi = m1 * p1 + (mid >> 32) + (lo < low)
    s = e2 + k
    r = np.maximum(-s, 0).astype(np.uint64)
    floor = ((lo >> r) | (hi << (63 - r) << 1)) << np.maximum(s, 0).astype(np.uint64)
    twice_rem, unit = (lo & ((1 << r) - 1)) << 1, 1 << r
    return floor, (twice_rem > unit) | ((twice_rem == unit) & (floor & 1 == 1))


def _divmod(n, d):
    # numpy's floor division by a scalar is several times faster than np.divmod
    q = n // d
    return q, n - q * d


def _format_floats(x, dest) -> None:
    """Write '%.16e' % v of each v in the float64 vector x into dest[:, :24].

    Unused bytes of a cell are _PAD; dest's rows start on 4-byte boundaries.
    """
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    frac, e2 = np.frexp(a)
    mant = (frac * 2.0 ** 53).astype(np.uint64)
    e2 = e2.astype(np.int64) - 53
    exp10 = np.clip(np.floor(np.log10(a)), -12, 16).astype(np.int64)
    floor, up = _scaled(mant, e2, exp10)
    # the exact value decides E: log10 may miss by one next to a power of ten,
    # and a value just below 10^E that would round up to 10^16 belongs to E - 1
    while (miss := np.flatnonzero((floor < 10 ** 16) | (floor >= 10 ** 17))).size:
        exp10[miss] += np.where(floor[miss] < 10 ** 16, -1, 1)
        floor[miss], up[miss] = _scaled(mant[miss], e2[miss], exp10[miss])
    # no double in the range lies within half a unit of the 17th digit below
    # a power of ten (the pinned tests hold each one), so N < 10^17
    digits = (floor + up).astype(np.int64)
    zero = x == 0.0
    digits[zero] = exp10[zero] = 0

    lead, rest = _divmod(digits, 10 ** 16)
    hi8, lo8 = _divmod(rest, 10 ** 8)
    quads = np.empty((len(x), 4), np.int64)
    quads[:, 0], quads[:, 1] = _divmod(hi8, 10 ** 4)
    quads[:, 2], quads[:, 3] = _divmod(lo8, 10 ** 4)
    words = dest[:, :_CELL].view(np.uint32)
    words[:, 0] = _HEADS[lead + 10 * np.signbit(x)]
    words[:, 1:5] = _QUADS[quads]
    words[:, 5] = _EXPONENTS[exp10 + 12]
    for i in np.flatnonzero(~(fast | zero)):
        text = np.frombuffer((_FLOAT % x[i]).encode(), np.uint8)
        dest[i, :_CELL] = _PAD
        dest[i, :len(text)] = text


def write_csv(path, header, columns) -> Path:
    """Write equal-length columns as rows under a comma-joined header.

    A float64 ndarray column goes through the vectorized '%.16e' kernel; any
    other column is formatted cell by cell from the conversion table.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("write_csv: columns differ in length")
    floats = [j for j, c in enumerate(columns) if isinstance(c, np.ndarray)
              and c.dtype == np.float64 and c.ndim == 1]
    # cells enter a text column only as % arguments, so a % in a cell is literal text
    texts = {j: [(_conversion(type(v)) % (v,)).encode() for v in c]
             for j, c in enumerate(columns) if j not in floats}
    # a float slot is the cell, three pad bytes and the separator: whole words
    width = max([_CELL + 3, *(len(s) for cells in texts.values() for s in cells)]) + 1
    n_cols = len(columns)
    block_rows = max(1, _BLOCK_BYTES // max(n_cols * width, 1))

    # each cell fills a slot of `width` bytes, its separator last, _PAD between
    block = np.full((min(block_rows, n_rows), n_cols, width), _PAD, np.uint8)
    block[:, :, -1] = ord(",")
    block[:, -1:, -1] = ord("\n")
    values = np.empty((len(block), len(floats)))
    pad = bytes([_PAD])
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            rows = block[:stop - start]
            if floats:
                vals = values[:len(rows)]
                for i, j in enumerate(floats):
                    vals[:, i] = columns[j][start:stop]
                if len(floats) == n_cols:
                    _format_floats(vals.ravel(), rows.reshape(-1, width))
                else:
                    slots = np.empty((vals.size, _CELL), np.uint8)
                    _format_floats(vals.ravel(), slots)
                    rows[:, floats, :_CELL] = slots.reshape(len(rows), len(floats), _CELL)
            for j, cells in texts.items():
                text = b"".join(s.ljust(width - 1, pad) for s in cells[start:stop])
                rows[:, j, :-1] = np.frombuffer(text, np.uint8).reshape(len(rows), -1)
            fh.write(rows.tobytes().translate(None, pad))
    return path


def _jsonable(v):
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
