"""Run configuration: JSON schema, validation, defaults, error taxonomy, and
the strict JSON reader of every file a run reads.

Exit-code contract (used by the CLI):
    0   every asserted check passed
    2   an asserted check failed (CheckFailure)
    64  configuration problem: bad schema, unknown keys, command-line usage,
        missing prerequisite
    70  numerical breakdown: non-convergence, under-resolved grids, NaNs
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Number
from pathlib import Path
from types import MappingProxyType


class ConfigurationError(Exception):
    """Invalid configuration, unsupported parameter, or missing prerequisite."""


class NumericalError(Exception):
    """Numerical failure: divergence, resolution breach, non-finite values."""


class CheckFailure(Exception):
    """An asserted certification check did not pass."""


# Read-only table of the policy gates' defaults; a run's config file
# overrides them, and RunConfig.tolerances holds the merged read-only table.
TOLERANCES = MappingProxyType({
    "rellich": 1e-6,            # identity residual, interval/rectangle
    "rellich_disk": 1e-5,       # relaxed on the disk (Bessel evaluation noise)
    "antisymmetry": 1e-8,
    "quasi_orthogonality": 1e-8,
    "riesz_margin": 1e-6,       # lambda_min >= c_lower - this
    "steering_rel_error": 1e-3,
    "memory_margin_factor": 1e-3,  # lambda_min >= factor * lambda_max
})

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["interval", "rectangle", "disk"]},
                "length": {"type": "number", "exclusiveMinimum": 0},
                "widths": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
        },
        "N": {"type": "integer", "minimum": 1, "maximum": 128},
        "T_values": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "T_factors": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
            "description": "horizons as multiples of 2R (used if T_values absent)",
        },
        "quadrature_q": {"type": "integer", "minimum": 4, "maximum": 128},
        "kernels": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "family": {"enum": ["exponential", "polynomial", "zero"]},
                    "M0": {"type": "number", "minimum": 0},
                    "delta": {"type": "number", "exclusiveMinimum": 0},
                    "p": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["family"],
            },
            "minItems": 1,
        },
        "draws": {"type": "integer", "minimum": 1, "maximum": 100000},
        "seed": {"type": "integer", "minimum": 0},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {key: {"type": "number", "exclusiveMinimum": 0} for key in TOLERANCES},
        },
        "out_dir": {"type": "string"},
    },
    "required": ["domain", "N"],
}


@dataclass
class RunConfig:
    """Validated run configuration with materialized defaults."""

    domain: dict
    N: int
    T_values: list[float] | None = None
    T_factors: list[float] = field(default_factory=lambda: [1.05, 1.5, 2.5])
    quadrature_q: int = 32
    kernels: list[dict] = field(
        default_factory=lambda: [
            {"family": "zero"},
            {"family": "exponential", "M0": 0.2, "delta": 1.0},
            {"family": "exponential", "M0": 0.5, "delta": 1.0},
        ]
    )
    draws: int = 200
    seed: int = 1234
    tolerances: Mapping[str, float] = field(default_factory=dict)
    out_dir: str = "observalab_out"

    def __post_init__(self):
        # JSON Schema counts an integral float such as 6.0 as an integer
        self.N, self.quadrature_q = int(self.N), int(self.quadrature_q)
        self.draws, self.seed = int(self.draws), int(self.seed)
        overrides = {name: float(value) for name, value in self.tolerances.items()}
        self.tolerances = MappingProxyType({**TOLERANCES, **overrides})

    def horizons(self, two_R: float) -> list[float]:
        if self.T_values is not None:
            return [float(t) for t in self.T_values]
        return [factor * two_R for factor in self.T_factors]


_IS_TYPE = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, Number) and not isinstance(value, bool),
    "integer": lambda value: ((isinstance(value, int) and not isinstance(value, bool))
                              or (isinstance(value, float) and value.is_integer())),
}
_BOUNDS = (("minimum", operator.lt, "less than the minimum of"),
           ("maximum", operator.gt, "greater than the maximum of"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"))


def _overflows_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


def schema_violation(raw):
    """The shallowest violation of CONFIG_SCHEMA by `raw` as (path, message), or None.

    Interprets exactly the keywords CONFIG_SCHEMA uses, as JSON Schema
    2020-12 defines them: a bool is not a number, an integral float is an
    integer, and bounds compare ints exactly, never through float().
    "$schema" and "description" are annotations.  One rule goes beyond the
    standard: every "number" field is used as a float, so an int there
    that float() cannot hold is refused ("integer" fields such as seed
    take any size).  Nodes are checked breadth first, so a violation
    nearer the root is reported first.
    """
    pending = [((), raw, CONFIG_SCHEMA)]
    for path, value, node in pending:       # the loop visits what it appends
        kind = node.get("type")
        if kind is not None and not _IS_TYPE[kind](value):
            return path, f"{value!r} is not of type {kind!r}"
        if kind == "number" and isinstance(value, int) and _overflows_float(value):
            return path, f"an integer of {len(str(abs(value)))} digits does not fit in a float"
        if "enum" in node and value not in node["enum"]:
            return path, f"{value!r} is not one of {node['enum']!r}"
        if _IS_TYPE["number"](value):
            for keyword, fails, words in _BOUNDS:
                if keyword in node and fails(value, node[keyword]):
                    return path, f"{value!r} is {words} {node[keyword]!r}"
        if isinstance(value, list):
            if len(value) < node.get("minItems", 0):
                return path, f"{value!r} is too short"
            if len(value) > node.get("maxItems", len(value)):
                return path, f"{value!r} is too long"
            if "items" in node:
                pending += [(path + (i,), item, node["items"]) for i, item in enumerate(value)]
        if isinstance(value, dict):
            properties = node.get("properties", {})
            if node.get("additionalProperties") is False:
                extra = [key for key in value if key not in properties]
                if extra:
                    return path, f"Additional properties are not allowed ({extra[0]!r} was unexpected)"
            missing = [key for key in node.get("required", ()) if key not in value]
            if missing:
                return path, f"{missing[0]!r} is a required property"
            pending += [(path + (key,), value[key], sub)
                        for key, sub in properties.items() if key in value]
    return None


def validate_config_dict(raw: dict) -> dict:
    """Schema-validate a raw config dict; unknown keys are rejected."""
    found = schema_violation(raw)
    if found is not None:
        path = "/".join(str(part) for part in found[0]) or "<root>"
        raise ConfigurationError(f"config schema violation at {path}: {found[1]}")
    kind = raw["domain"]["kind"]
    needed = {"interval": "length", "rectangle": "widths", "disk": "radius"}[kind]
    if needed not in raw["domain"]:
        raise ConfigurationError(f"domain kind '{kind}' requires field '{needed}'")
    return raw


def config_from_dict(raw: dict) -> RunConfig:
    validate_config_dict(raw)
    return RunConfig(**raw)


def _finite_float(text: str) -> float:
    """Decode a JSON number, or one of the NaN and Infinity tokens json.loads accepts."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def read_json(path: str | Path, what: str):
    """The strict JSON value in the file at `path`: the one reader of every
    file a run reads (the config, control's problem file, the riesz summary).

    The NaN, Infinity and -Infinity tokens that json.loads would accept, and
    floats that overflow, are refused.  A file that cannot be read, decoded
    or parsed, or that nests too deep to parse, is a ConfigurationError
    naming `what` and the path.
    """
    try:
        return json.loads(Path(path).read_text(), parse_constant=_finite_float,
                          parse_float=_finite_float)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"unreadable {what} {path}: {exc}") from exc


def load_config(path: str | Path | None = None, **overrides) -> RunConfig:
    """Read a JSON config file through read_json (the built-in default
    without one), merge in `overrides` such as seed or out_dir, and validate
    the result once against CONFIG_SCHEMA."""
    if path is None:
        raw = {"domain": {"kind": "interval", "length": math.pi}, "N": 20}
    else:
        raw = read_json(path, "config file")
    if isinstance(raw, dict):
        raw = {**raw, **overrides}
    return config_from_dict(raw)
