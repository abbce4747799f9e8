import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thcavity.output import write_csv, write_json


def cell_oracle(v) -> str:
    """One cell as the writer formatted it before row templates."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool) or isinstance(v, int):
        return str(v)
    x = float(v)
    if math.isnan(x) or math.isinf(x):
        return str(x)
    return f"{x:.16e}"


def csv_oracle(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(cell_oracle(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


_TEXT = st.text(alphabet="ab %,.-e%d%s", max_size=6)
CELLS = st.one_of(
    st.floats(),                                            # nan, ±inf and -0.0 included
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    _TEXT,
)


def as_columns(width, rows, as_arrays):
    """The rows' columns as lists; with as_arrays, each column whose cells are
    all floats (Python, float64 or float32) as a float64 array instead."""
    columns = [[row[j] for row in rows] for j in range(width)]
    if as_arrays:
        columns = [np.array(c, dtype=np.float64)
                   if all(type(v) in (float, np.float64, np.float32) for v in c) else c
                   for c in columns]
    return columns


@given(header=st.lists(_TEXT, min_size=1, max_size=4),
       table=st.integers(1, 4).flatmap(
           lambda w: st.tuples(st.just(w), st.lists(st.tuples(*[CELLS] * w), max_size=8))))
def test_write_csv_is_the_cell_join(tmp_path_factory, header, table):
    # cell types change from row to row and column to column
    width, rows = table
    for as_arrays in (False, True):
        path = write_csv(tmp_path_factory.mktemp("csv") / "o.csv", header,
                         as_columns(width, rows, as_arrays))
        assert path.read_bytes() == csv_oracle(header, rows)


@pytest.mark.parametrize("rows", [[], [(0.5, "hi"), (2, "yo")],
                                  [(-0.0, float("nan")), (float("-inf"), np.float32(0.1)),
                                   (np.int64(3), np.bool_(True)), (True, "50%,x")]])
def test_write_csv_pinned_cases_are_the_cell_join(tmp_path, rows):
    path = write_csv(tmp_path / "o.csv", ("a%s", "b%%"), as_columns(2, rows, False))
    assert path.read_bytes() == csv_oracle(("a%s", "b%%"), rows)


# --- the float64 kernel against '%.16e' % x ----------------------------------

def percent_e(values) -> bytes:
    return ("x\n" + "".join("%.16e\n" % v for v in values)).encode()


def kernel_text(tmp_path_factory, values) -> bytes:
    path = tmp_path_factory.getbasetemp() / "kernel.csv"
    return write_csv(path, ("x",), [np.array(values, dtype=np.float64)]).read_bytes()


_KERNEL_BITS = st.builds(      # sign, exponent inside the kernel's range, mantissa
    lambda sign, exp, mant: (sign << 63) | (exp << 52) | mant,
    st.integers(0, 1), st.integers(1023 - 37, 1023 + 57), st.integers(0, 2**52 - 1))


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_kernel_is_percent_e_over_floats(tmp_path_factory, values):
    assert kernel_text(tmp_path_factory, values) == percent_e(values)


@given(st.lists(st.one_of(st.integers(0, 2**64 - 1), _KERNEL_BITS), min_size=1, max_size=64))
def test_kernel_is_percent_e_over_bit_patterns(tmp_path_factory, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert kernel_text(tmp_path_factory, values) == percent_e(values)


def _ulps(x, n):
    """x and its n float64 neighbours on either side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


PINNED = [
    0.0, -0.0, 5e-324, -5e-324, math.nan, -math.nan, math.inf, -math.inf,
    *_ulps(1e-11, 2), *_ulps(1e17, 2), *_ulps(-1e-11, 1), *_ulps(-1e17, 1),
    *(v for k in range(-20, 21) for v in _ulps(10.0 ** k, 1)),
    # exact 17-digit ties: J / 2^m (J odd) has 18 significant digits ending
    # in 5 when it lies in [1e(17-m), 1e(18-m)); '%' rounds them half to even
    *(j / 2.0 ** m for m in range(2, 29)
      for j in (int(10.0 ** (17 - m) * 2 ** m) | 1, int(10.0 ** (17 - m) * 2 ** m) + 3,
                int(10.0 ** (17 - m) * 2 ** (m + 1)) | 1)),
]


def test_kernel_pinned_cases(tmp_path_factory):
    values = [*PINNED, *(-v for v in PINNED)]
    assert kernel_text(tmp_path_factory, values) == percent_e(values)


def test_kernel_row_blocks_and_mixed_columns(tmp_path):
    """Tables longer than a row block, with fallback cells spread through them
    and a text column between float columns."""
    rng = np.random.default_rng(7)
    n = 3001
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    in_range = rng.uniform(1, 10, n) * 10.0 ** rng.integers(-11, 17, n) * rng.choice([-1, 1], n)
    floats = [bits.view(np.float64), in_range, np.where(rng.random(n) < 0.1, 0.0, in_range)]
    labels = [f"κ{i}" * (i % 9) for i in range(n)]      # up to 48 UTF-8 bytes
    for columns in (floats, [floats[0], labels, floats[1], floats[2]]):
        path = write_csv(tmp_path / "b.csv", ["c"] * len(columns), columns)
        assert path.read_bytes() == csv_oracle(["c"] * len(columns), list(zip(*columns)))


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "r.csv", ("a", "b"), [np.zeros(3), [1, 2]])


def test_write_csv_bytes_are_pinned(tmp_path):
    p = write_csv(tmp_path / "a.csv", ("x", "label"), [(0.5, 2), ("hi", "yo")])
    text = p.read_text()
    assert text == "x,label\n5.0000000000000000e-01,hi\n2,yo\n"
    assert "\r" not in text


def test_write_csv_rerun_identical(tmp_path):
    columns = [[i * 0.1 for i in range(20)], np.arange(20.0) ** 2]
    a = write_csv(tmp_path / "a.csv", ("t", "v"), columns)
    b = write_csv(tmp_path / "b.csv", ("t", "v"), columns)
    assert a.read_bytes() == b.read_bytes()


def test_write_json_sorted_and_coerced(tmp_path):
    payload = {
        "z": np.float64(1.5),
        "a": np.int64(3),
        "m": {"k": np.array([1.0, 2.0])},
        "s": (1, 2),
    }
    p = write_json(tmp_path / "out.json", payload)
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"m"') < text.index('"s"') < text.index('"z"')
    back = json.loads(text)
    assert back == {"z": 1.5, "a": 3, "m": {"k": [1.0, 2.0]}, "s": [1, 2]}


def test_write_json_rerun_identical(tmp_path):
    payload = {"b": [1.0, 2.5], "a": {"nested": 0.125}}
    a = write_json(tmp_path / "a.json", payload)
    b = write_json(tmp_path / "b.json", payload)
    assert a.read_bytes() == b.read_bytes()


def test_writers_create_parent_dirs(tmp_path):
    p = write_csv(tmp_path / "deep" / "down" / "c.csv", ("x",), [[1.0]])
    assert p.exists()
    q = write_json(tmp_path / "other" / "d.json", {"x": 1})
    assert q.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_floats_survive_csv(tmp_path, bad):
    # scans may legitimately produce non-finite diagnostics; they must not crash the writer
    p = write_csv(tmp_path / "n.csv", ("v", "w"), [[bad], np.array([bad])])
    assert p.read_text().splitlines()[1] == f"{bad},{bad}"
