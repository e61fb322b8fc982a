"""Deterministic artifact writers.

CSV files carry a fixed column order and 17-significant-digit floats; JSON
files are indented with sorted keys.  Both start life with a generation
timestamp -- the one line excluded when comparing runs for reproducibility
(see strip_timestamp).
"""

from __future__ import annotations

import json
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


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Rows are dicts; cells are emitted in the fixed header order."""
    path = Path(path)
    lines = [f"# generated_at: {_stamp()}", ",".join(header)]
    for row in rows:
        lines.append(",".join([format_cell(row.get(col)) for col in header]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _json_ready(value):
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


def write_json(path: str | Path, payload: dict) -> Path:
    """Complex numbers become [re, im] pairs; numpy scalars plain numbers."""
    path = Path(path)
    body = dict(payload)
    body["generated_at"] = _stamp()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_ready(body), indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return path


def strip_timestamp(text: str) -> str:
    """Drop the generation-stamp line so reruns can be compared byte-wise."""
    kept = [line for line in text.splitlines() if "generated_at" not in line]
    return "\n".join(kept) + "\n"
