"""JSON schemas for run configurations and emitted reports.

Configs use laboratory units throughout: frequencies as nu = omega/2pi in
MHz, times in microseconds, distances in micrometers.  Interaction
coefficients follow the same convention, quoted as the shift/2pi in MHz at a
separation of 1 um (so c3 in MHz um^3, c6 in MHz um^6).  The CLI converts to
SI angular units on load; nothing downstream ever sees a bare MHz.
"""

from typing import Any

import jsonschema

REPORT_SCHEMA_VERSION = "rydgate-report/1"

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_LABEL = {"type": "string", "maxLength": 120}

_ANCHOR_FIT = {
    "type": "object",
    "description": "Fit a single power-law coefficient to one (shift, radius) anchor.",
    "properties": {
        "law": {"enum": ["c3", "c6"]},
        "b_mhz": _POS,
        "r_um": _POS,
    },
    "required": ["law", "b_mhz", "r_um"],
    "additionalProperties": False,
}

_INTERACTION = {
    "type": "object",
    "description": "Pair-interaction law: explicit coefficients or a one-point fit.",
    "properties": {
        "c3_mhz_um3": _NONNEG,
        "c6_mhz_um6": _NONNEG,
        "crossover_um": _POS,
        "fit": _ANCHOR_FIT,
    },
    "additionalProperties": False,
}

_UNIFORM_SEQUENTIAL = {
    "type": "object",
    "properties": {
        "b_mhz": _POS,
        "tau_us": _POS,
        "n": {"type": "integer", "minimum": 1},
        "label": _LABEL,
    },
    "required": ["b_mhz", "tau_us"],
    "additionalProperties": False,
}

_UNIFORM_SIMULTANEOUS = {
    "type": "object",
    "properties": {
        "b_ct_mhz": _POS,
        "d_cc_mhz": _POS,
        "tau_c_us": _POS,
        "tau_t_us": _POS,
        "n": {"type": "integer", "minimum": 1},
        "label": _LABEL,
    },
    "required": ["b_ct_mhz", "d_cc_mhz", "tau_c_us", "tau_t_us"],
    "additionalProperties": False,
}

_UNIFORM_ENTRY = {"oneOf": [_UNIFORM_SEQUENTIAL, _UNIFORM_SIMULTANEOUS]}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "rydgate run configuration",
    "type": "object",
    "properties": {
        "description": {"type": "string"},
        "scheme": {"enum": ["sequential", "simultaneous", "grover", "simulate"]},
        "k": {
            "oneOf": [
                {"type": "integer", "minimum": 1},
                {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
            ]
        },
        "omega10_mhz": _POS,
        "uniform": {
            "oneOf": [
                _UNIFORM_ENTRY,
                {"type": "array", "items": _UNIFORM_ENTRY, "minItems": 1},
            ]
        },
        "lattice": {
            "type": "object",
            "properties": {
                "d_um": _POS,
                "tau_us": _POS,
                "tau_c_us": _POS,
                "tau_t_us": _POS,
            },
            "required": ["d_um"],
            "additionalProperties": False,
        },
        "interaction": _INTERACTION,
        "interaction_ct": _INTERACTION,
        "interaction_cc": _INTERACTION,
        "frequencies": {
            "type": "object",
            "properties": {
                "mode": {"enum": ["fixed", "optimize"]},
                "omega_mhz": _POS,
                "omega_c_mhz": _POS,
                "omega_t_mhz": _POS,
            },
            "required": ["mode"],
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "properties": {
                "omega_mhz": {
                    "type": "object",
                    "properties": {
                        "min": _POS,
                        "max": _POS,
                        "points": {"type": "integer", "minimum": 2},
                        "spacing": {"enum": ["log", "linear"]},
                    },
                    "required": ["min", "max", "points"],
                    "additionalProperties": False,
                }
            },
            "additionalProperties": False,
        },
        "simulate": {
            "type": "object",
            "properties": {
                "sequence": {"enum": ["sequential", "grover", "simultaneous"]},
                "gate": {"enum": ["cnot", "grover", "identity"]},
                "b_mhz": {"oneOf": [_POS, {"const": "inf"}]},
                "b_ct_mhz": {"oneOf": [_POS, {"const": "inf"}]},
                "d_cc_mhz": _NONNEG,
                "omega_mhz": _POS,
                "omega_c_mhz": _POS,
                "omega_t_mhz": _POS,
                "decay_mhz": _NONNEG,
                "check_ideal": {"type": "boolean"},
                "tolerance": _POS,
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
            "additionalProperties": False,
        },
    },
    "required": ["scheme", "k"],
    "additionalProperties": False,
}

REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "rydgate report",
    "type": "object",
    "properties": {
        "schema": {"const": REPORT_SCHEMA_VERSION},
        "command": {"enum": ["budget", "sweep-omega", "simulate", "lattice", "optimize"]},
        "config": {"type": "object"},
        "columns": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "rows": {"type": "array", "items": {"type": "object"}},
    },
    "required": ["schema", "command", "config", "columns", "rows"],
    "additionalProperties": False,
}


class ConfigError(ValueError):
    """Configuration rejected, either by schema or by cross-field rules."""


def _format_path(path: Any) -> str:
    parts = [str(p) for p in path]
    return "/".join(parts) if parts else "(top level)"


def _validate(obj: Any, schema: dict[str, Any], what: str) -> None:
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise ConfigError(f"{what} invalid at {_format_path(best.absolute_path)}: {best.message}")


def validate_config(obj: Any) -> None:
    """Validate a parsed config against CONFIG_SCHEMA.

    Raises ConfigError carrying the offending field path, so CLI users see
    "config invalid at lattice/d_um: ..." rather than a schema dump.
    """
    _validate(obj, CONFIG_SCHEMA, "config")


def validate_report(obj: Any) -> None:
    """Validate an assembled report against REPORT_SCHEMA before emission."""
    _validate(obj, REPORT_SCHEMA, "report")
