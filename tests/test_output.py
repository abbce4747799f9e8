import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thcavity.output import format_float, write_csv, write_json


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


@given(header=st.lists(_TEXT, min_size=1, max_size=4),
       rows=st.integers(1, 4).flatmap(
           lambda w: st.lists(st.tuples(*[CELLS] * w), max_size=8)))
def test_write_csv_is_the_cell_join(tmp_path_factory, header, rows):
    # cell types change from row to row, so one file needs several templates
    path = write_csv(tmp_path_factory.mktemp("csv") / "o.csv", header, rows)
    assert path.read_bytes() == csv_oracle(header, rows)


@pytest.mark.parametrize("rows", [[], [(0.5, "hi"), (2, "yo")],
                                  [(-0.0, float("nan")), (float("-inf"), np.float32(0.1)),
                                   (np.int64(3), np.bool_(True)), (True, "50%,x")]])
def test_write_csv_pinned_cases_are_the_cell_join(tmp_path, rows):
    path = write_csv(tmp_path / "o.csv", ("a%s", "b%%"), rows)
    assert path.read_bytes() == csv_oracle(("a%s", "b%%"), rows)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_format_float_passthrough():
    assert format_float(7) == "7"
    assert format_float(True) == "True"
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"


def test_write_csv_bytes_are_pinned(tmp_path):
    p = write_csv(tmp_path / "a.csv", ("x", "label"), [(0.5, "hi"), (2, "yo")])
    text = p.read_text()
    assert text == "x,label\n5.0000000000000000e-01,hi\n2,yo\n"
    assert "\r" not in text


def test_write_csv_rerun_identical(tmp_path):
    rows = [(i * 0.1, np.float64(i) ** 2) for i in range(20)]
    a = write_csv(tmp_path / "a.csv", ("t", "v"), rows)
    b = write_csv(tmp_path / "b.csv", ("t", "v"), rows)
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
    p = write_csv(tmp_path / "deep" / "down" / "c.csv", ("x",), [(1.0,)])
    assert p.exists()
    q = write_json(tmp_path / "other" / "d.json", {"x": 1})
    assert q.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_floats_survive_csv(tmp_path, bad):
    # scans may legitimately produce non-finite diagnostics; they must not crash the writer
    p = write_csv(tmp_path / "n.csv", ("v",), [(bad,)])
    assert p.read_text().splitlines()[1] == str(bad)
