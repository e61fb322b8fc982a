"""Run configuration: JSON schema, validation, defaults, and error taxonomy.

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
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType


class ConfigurationError(Exception):
    """Invalid configuration, unsupported parameter, or missing prerequisite."""

    exit_code = 64


class NumericalError(Exception):
    """Numerical failure: divergence, resolution breach, non-finite values."""

    exit_code = 70


class CheckFailure(Exception):
    """An asserted certification check did not pass."""

    exit_code = 2


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
        },
        "draws": {"type": "integer", "minimum": 1, "maximum": 100000},
        "seed": {"type": "integer", "minimum": 0},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {key: {"type": "number", "exclusiveMinimum": 0} for key in TOLERANCES},
        },
        "out_dir": {"type": "string"},
        "cache_path": {"type": "string"},
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
    cache_path: str | None = None

    def __post_init__(self):
        overrides = {name: float(value) for name, value in self.tolerances.items()}
        self.tolerances = MappingProxyType({**TOLERANCES, **overrides})

    def horizons(self, two_R: float) -> list[float]:
        if self.T_values is not None:
            return [float(t) for t in self.T_values]
        return [factor * two_R for factor in self.T_factors]


def validate_config_dict(raw: dict) -> dict:
    """Schema-validate a raw config dict; unknown keys are rejected.

    The error reported is jsonschema's best match, as jsonschema.validate
    would raise it; the constant schema itself is checked by a unit test,
    not on every run.
    """
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    error = best_match(Draft202012Validator(CONFIG_SCHEMA).iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigurationError(f"config schema violation at {path}: {error.message}")
    kind = raw["domain"]["kind"]
    needed = {"interval": "length", "rectangle": "widths", "disk": "radius"}[kind]
    if needed not in raw["domain"]:
        raise ConfigurationError(f"domain kind '{kind}' requires field '{needed}'")
    return raw


def config_from_dict(raw: dict) -> RunConfig:
    validate_config_dict(raw)
    return RunConfig(**raw)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def default_config() -> RunConfig:
    """Built-in default: interval of length pi."""
    return RunConfig(domain={"kind": "interval", "length": math.pi}, N=20)
