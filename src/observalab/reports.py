"""Deterministic artifact writers.

CSV files are written from columns, in a fixed column order, with
17-significant-digit floats; a long float column is formatted once per
distinct value (bit pattern) and the texts gathered back into its rows.
JSON files are indented with sorted keys.
Both start life with a generation timestamp -- the one line excluded when
comparing runs for reproducibility (see strip_timestamp).
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from datetime import datetime, timezone
from pathlib import Path
from types import MappingProxyType

import numpy as np

__all__ = ["format_cell", "write_csv", "write_json", "strip_timestamp"]


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _format_text(value) -> str:
    text = str(value)
    if any(ch in text for ch in ",\n\r"):
        raise ValueError(f"CSV cell may not contain separators: {text!r}")
    text.encode("utf-8")    # refuses a lone surrogate: UnicodeEncodeError is a ValueError
    return text


def _formatter(kind: type):
    """The cell formatter for every value of type `kind`."""
    if kind is type(None):
        return lambda value: ""
    if issubclass(kind, (bool, np.bool_)):
        return lambda value: "true" if value else "false"
    if issubclass(kind, (int, np.integer)):
        return "%d".__mod__                     # the int value, as str(int(value))
    if issubclass(kind, (float, np.floating)):
        return "%.17g".__mod__
    if issubclass(kind, (complex, np.complexfloating)):
        return lambda value: "%.17g%+.17gj" % (value.real, value.imag)
    return _format_text


# the types the artifacts hold, each decided once rather than once per cell
_FORMATTERS = MappingProxyType({
    kind: _formatter(kind)
    for kind in (type(None), bool, np.bool_, int, np.int64, float, np.float64,
                 complex, np.complex128, str)
})


def format_cell(value) -> str:
    """One CSV cell: %.17g floats, re+imj complex, true/false, raw strings."""
    kind = type(value)
    return (_FORMATTERS.get(kind) or _formatter(kind))(value)


# Float columns at least this long are formatted through their distinct
# values; shorter ones do not repay the np.unique round.
_DISTINCT_CUT = 64


def _format_distinct(values: np.ndarray) -> list[str]:
    """%.17g of every cell of a 1D float64 array, each distinct bit pattern
    formatted once (so -0.0, 0.0 and each NaN keep their own text)."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(_FORMATTERS[float], bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _format_column(column) -> list[str]:
    """Every cell of one column as format_cell writes it; a column of one
    type looks its formatter up once and maps it over the whole column, a
    long float column over its distinct values."""
    if (isinstance(column, np.ndarray) and column.dtype == np.float64
            and column.ndim == 1 and len(column) >= _DISTINCT_CUT):
        return _format_distinct(column)
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, values))
    if len(values) >= _DISTINCT_CUT and kinds <= {float, np.float64}:
        return _format_distinct(np.array(values, dtype=np.float64))
    if len(kinds) != 1:
        return list(map(format_cell, values))
    (kind,) = kinds
    if issubclass(kind, str):
        text = "".join(values)
        if not any(ch in text for ch in ",\n\r"):
            text.encode("utf-8")                # as _format_text, once for the column
            return list(map(str, values))
    return list(map(_FORMATTERS.get(kind) or _formatter(kind), values))


def write_csv(path: str | Path, columns: Mapping[str, Sequence]) -> Path:
    """Columns are header -> cells, emitted in the mapping's order; the
    columns must be equally long."""
    path = Path(path)
    cells = [_format_column(column) for column in columns.values()]
    if len({len(column) for column in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    lines = [f"# generated_at: {_stamp()}", ",".join(columns), *map(",".join, zip(*cells))]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _json_default(value):
    """json's hook for what it cannot encode itself: an ndarray becomes its
    list, a complex number (numpy's too) an [re, im] pair, any other numpy
    scalar its Python value."""
    if isinstance(value, (complex, np.complexfloating)):
        return [value.real, value.imag]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path: str | Path, payload: dict) -> Path:
    """Complex numbers become [re, im] pairs, numpy scalars plain numbers
    (json's default hook, _json_default)."""
    path = Path(path)
    body = dict(payload)
    body["generated_at"] = _stamp()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, indent=2, sort_keys=True, default=_json_default)
                    + "\n", encoding="utf-8")
    return path


def strip_timestamp(text: str) -> str:
    """Drop the generation-stamp line so reruns can be compared byte-wise."""
    kept = [line for line in text.splitlines() if "generated_at" not in line]
    return "\n".join(kept) + "\n"
