"""CSV cell formatting: the bytes every artifact's cells are written as."""

import numpy as np
import pytest

from observalab.reports import format_cell


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
