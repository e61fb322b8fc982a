"""CSV cell formatting: the bytes every artifact's cells are written as."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from observalab.reports import format_cell, write_csv


@pytest.mark.parametrize("value, text", [
    (None, ""),
    (True, "true"), (False, "false"), (np.bool_(True), "true"), (np.bool_(False), "false"),
    (0, "0"), (-7, "-7"), (2**70, "1180591620717411303424"), (np.int64(-3), "-3"),
    (0.1, "0.10000000000000001"), (1.0, "1"), (-2.5e-300, "-2.5e-300"),
    (np.float64(1) / 3, "0.33333333333333331"), (float("inf"), "inf"), (float("nan"), "nan"),
    (complex(1.0, -0.5), "1-0.5j"), (np.complex128(0.1 + 2j), "0.10000000000000001+2j"),
    ("abc|def", "abc|def"), ("", ""),
])
def test_format_cell_pins_each_type(value, text):
    assert format_cell(value) == text


@pytest.mark.parametrize("text", ["a,b", "a\nb", "a\rb"])
def test_format_cell_rejects_separators(text):
    with pytest.raises(ValueError, match="separators"):
        format_cell(text)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# few distinct floats, so that a long column repeats them (as identities.csv does)
_REPEATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1])
# the cells of one column: each type format_cell handles, and the mixed
# columns the artifacts hold (riesz's pass is None or a bool)
_CELLS = [
    _FLOATS,
    _REPEATS,
    st.one_of(_REPEATS, _REPEATS.map(np.float64)),
    _FLOATS.map(np.float64),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.none(),
    st.text(st.characters(blacklist_characters=",\n\r")),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text("ab|")),
]


@st.composite
def _columns(draw):
    """1-4 equally long columns, each of one _CELLS strategy, as a list or
    (when its cells share one type) sometimes as a numpy array; short
    columns, or ones past the length where floats go by distinct value."""
    rows = draw(st.integers(0, 8) | st.integers(65, 200))
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        values = draw(st.lists(draw(st.sampled_from(_CELLS)), min_size=rows, max_size=rows))
        if len(set(map(type, values))) == 1 and draw(st.booleans()):
            values = np.array(values)
        columns[f"c{i}"] = values
    return columns


def _refused(value) -> bool:
    try:
        format_cell(value)
    except ValueError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(columns=_columns())
@example(columns={"c0": ["\ud800"]})
@example(columns={"c0": ["ok", "\ud800"], "c1": [1.0, 2.0]})
@example(columns={"c0": np.where(np.arange(100) == 37, np.nan, np.tile([0.0, -0.0], 50)),
                  "c1": [float("nan") if i == 37 else (0.0, -0.0)[i % 2] for i in range(100)]})
def test_column_writer_matches_the_cell_formatter(tmp_path_factory, columns):
    """write_csv writes every row as ",".join of format_cell over its cells,
    for columns of each type the artifacts hold, as lists or numpy arrays;
    it raises iff format_cell refuses some cell (a lone surrogate cannot be
    encoded), and then writes no file."""
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    if any(_refused(value) for column in columns.values() for value in column):
        with pytest.raises(ValueError):
            write_csv(path, columns)
        assert not path.exists()
        return
    write_csv(path, columns)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("# generated_at: ") and lines[-1] == ""
    assert lines[1] == ",".join(columns)
    rows = len(next(iter(columns.values())))
    want = [",".join(format_cell(column[r]) for column in columns.values())
            for r in range(rows)]
    assert lines[2:-1] == want


@pytest.mark.parametrize("text", ["a,b", "a\nb", "a\rb"])
def test_column_writer_rejects_separators(tmp_path, text):
    with pytest.raises(ValueError, match="separators"):
        write_csv(tmp_path / "out.csv", {"label": ["ok", text]})
    with pytest.raises(ValueError, match="separators"):
        write_csv(tmp_path / "out.csv", {"label": np.array(["ok", text])})


def test_column_writer_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "out.csv", {"a": [1, 2], "b": [1.0]})
