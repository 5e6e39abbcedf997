"""JSON schemas for run configurations and emitted reports, and their checks.

Configs use laboratory units throughout: frequencies as nu = omega/2pi in
MHz, times in microseconds, distances in micrometers.  Interaction
coefficients follow the same convention, quoted as the shift/2pi in MHz at a
separation of 1 um (so c3 in MHz um^3, c6 in MHz um^6).  The CLI converts to
SI angular units on load; nothing downstream ever sees a bare MHz.

``validate_config`` walks ``CONFIG_SCHEMA`` with the small draft 2020-12
subset it uses, and ``validate_report`` checks a report, column by column
of its row blocks, against its command's fixed column order; neither needs a
schema library.
"""

import math
import re
from typing import Any, NamedTuple

from .sequential import GROVER_DIAGNOSTICS, GROVER_TERMS, SEQUENTIAL_TERMS
from .simultaneous import SIMULTANEOUS_DIAGNOSTICS, SIMULTANEOUS_TERMS
from .simulator import IDEAL_GATES

REPORT_SCHEMA_VERSION = "rydgate-report/1"

_POS = {"type": "number", "exclusiveMinimum": 0}
_SHIFT_OR_INF = {"type": ["number", "string"], "exclusiveMinimum": 0, "pattern": "^inf$"}
_NONNEG = {"type": "number", "minimum": 0}
_LABEL = {"type": "string", "maxLength": 120}
_LEVEL_N = {"type": "integer", "minimum": 1,
            "description": "Rydberg principal quantum number; an annotation no budget reads."}

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


class Scheme(NamedTuple):
    """What one budget scheme reads and reports, each key tuple in its
    builder's argument order.  ``frequencies``: the drive frequencies of a
    fixed-mode config, a report row and the ``simulate`` sequence of the
    same name.  ``shifts``: the blockade shifts of a uniform entry, a
    report row's head and that sequence.  ``lifetimes``: of a uniform entry
    or the lattice block.  ``models``: the interaction models of a lattice
    run, or None where the scheme has uniform runs only.  ``terms`` and
    ``diagnostics``: the budget cells of a report row.  ``gate``: the ideal
    gate of that ``simulate`` sequence."""

    frequencies: tuple[str, ...]
    shifts: tuple[str, ...]
    lifetimes: tuple[str, ...]
    models: tuple[str, ...] | None
    terms: tuple[str, ...]
    diagnostics: tuple[str, ...]
    gate: str


SCHEMES: dict[str, Scheme] = {
    "sequential": Scheme(("omega_mhz",), ("b_mhz",), ("tau_us",), ("interaction",),
                         SEQUENTIAL_TERMS, (), "cnot"),
    "grover": Scheme(("omega_mhz",), ("b_mhz",), ("tau_us",), None,
                     GROVER_TERMS, GROVER_DIAGNOSTICS, "grover"),
    "simultaneous": Scheme(("omega_c_mhz", "omega_t_mhz"), ("b_ct_mhz", "d_cc_mhz"),
                           ("tau_c_us", "tau_t_us"), ("interaction_ct", "interaction_cc"),
                           SIMULTANEOUS_TERMS, SIMULTANEOUS_DIAGNOSTICS, "cnot"),
}

# a simulate shift's (type, default) by its place in Scheme.shifts: the
# blockade shift, positive or "inf" (perfect), then a control-control shift
SIMULATE_SHIFTS = ((_SHIFT_OR_INF, "inf"), (_NONNEG, 0.0))


def scheme_keys(columns: tuple[str, ...], *schemes: str) -> tuple[str, ...]:
    """The keys that ``columns`` of SCHEMES name for ``schemes`` (default
    every scheme), once each, in table order."""
    rows = [SCHEMES[name] for name in schemes or SCHEMES]
    return tuple(dict.fromkeys(
        key for row in rows for column in columns for key in getattr(row, column) or ()
    ))


def _positive(columns: tuple[str, ...]) -> dict[str, Any]:
    return dict.fromkeys(scheme_keys(columns), _POS)


# every scheme's shifts and lifetimes; the cross rules require the
# scheme's own and refuse the others
_UNIFORM_ENTRY = {
    "type": "object",
    "properties": {**_positive(("shifts", "lifetimes")), "n": _LEVEL_N, "label": _LABEL},
    "additionalProperties": False,
}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "rydgate run configuration",
    "type": "object",
    "properties": {
        "description": {"type": "string"},
        "scheme": {"enum": [*SCHEMES, "simulate"]},
        "k": {
            "type": ["integer", "array"],
            "minimum": 1,
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "omega10_mhz": _POS,
        "uniform": {**_UNIFORM_ENTRY, "type": ["object", "array"], "items": _UNIFORM_ENTRY,
                    "minItems": 1},
        "lattice": {
            "type": "object",
            "properties": {"d_um": _POS, **_positive(("lifetimes",))},
            "required": ["d_um"],
            "additionalProperties": False,
        },
        **dict.fromkeys(scheme_keys(("models",)), _INTERACTION),
        "frequencies": {
            "type": "object",
            "properties": {"mode": {"enum": ["fixed", "optimize"]}, **_positive(("frequencies",))},
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
                "sequence": {"enum": list(SCHEMES)},
                "gate": {"enum": list(IDEAL_GATES)},
                **{key: kind for row in SCHEMES.values()
                   for key, (kind, _) in zip(row.shifts, SIMULATE_SHIFTS)},
                **_positive(("frequencies",)),
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


# Fixed report column orders.  These are part of the CLI contract; tests pin
# them and the README documents them.  The single-frequency schemes have a
# closed-form optimum and a sweep-omega grid.
def _budget_columns(row: Scheme) -> tuple[str, ...]:
    analytic = ("omega_opt_analytic_mhz", "e_opt_analytic") if len(row.frequencies) == 1 else ()
    return ("scheme", "mode", "label", "k", *row.shifts, *row.frequencies, "duration_us",
            *row.terms, "total", *(f"diag_{name}" for name in row.diagnostics), *analytic,
            "opt_evaluations", "opt_converged")


BUDGET_COLUMNS: dict[str, tuple[str, ...]] = {
    name: _budget_columns(row) for name, row in SCHEMES.items()
}

SWEEP_COLUMNS: dict[str, tuple[str, ...]] = {
    name: ("row_type", "label", "k", *row.frequencies, "total", *row.terms)
    for name, row in SCHEMES.items() if len(row.frequencies) == 1
}

LATTICE_COLUMNS = ("k", "index", "x_um", "y_um", "role", "r_um")

# an optimize row: a budget row cut to OPTIMIZE_KEYS, each renamed to the
# OPTIMIZE_COLUMNS entry in its place
OPTIMIZE_RENAME = {
    **{key: key.replace("_mhz", "_opt_mhz") for key in scheme_keys(("frequencies",))},
    "total": "min_total", "opt_evaluations": "evaluations", "opt_converged": "converged",
}
OPTIMIZE_KEYS = ("scheme", "mode", "label", "k", *scheme_keys(("frequencies",)), "total",
                 "omega_opt_analytic_mhz", "e_opt_analytic", "opt_evaluations", "opt_converged")
OPTIMIZE_COLUMNS = tuple(OPTIMIZE_RENAME.get(key, key) for key in OPTIMIZE_KEYS)

SIMULATE_COLUMNS = ("k", "sequence", "gate", "duration_us", "input_index", "ideal_index",
                    "prob_ideal", "error", "avg_error", "ideal_check_passed")

# command -> its column order, or per scheme where the scheme sets it
_COLUMNS: dict[str, Any] = {
    "budget": BUDGET_COLUMNS,
    "sweep-omega": SWEEP_COLUMNS,
    "simulate": SIMULATE_COLUMNS,
    "lattice": LATTICE_COLUMNS,
    "optimize": OPTIMIZE_COLUMNS,
}

REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "rydgate report",
    "type": "object",
    "properties": {
        "schema": {"const": REPORT_SCHEMA_VERSION},
        "command": {"enum": list(_COLUMNS)},
        "config": {"type": "object"},
        "columns": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "rows": {"type": "array", "items": {"type": "object"}},
    },
    "required": ["schema", "command", "config", "columns", "rows"],
    "additionalProperties": False,
}


class ConfigError(ValueError):
    """Configuration rejected, either by schema or by cross-field rules."""


def _refusal(what: str, path: Any, message: str) -> ConfigError:
    where = "/".join(map(str, path)) or "(top level)"
    return ConfigError(f"{what} invalid at {where}: {message}")


# JSON type -> Python types; a bool is of type boolean only, so 2 is an
# integer and 2.0 is not
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def _first_error(value: Any, schema: dict[str, Any], path: tuple) -> tuple | None:
    """The first refusal of ``value`` by ``schema`` as (path, message), or
    None.  Keywords: type (a name or a list of names), enum, required,
    additionalProperties, properties, minItems, items, minimum,
    exclusiveMinimum, maxLength, pattern; any other key is an annotation.

    Path rule: a value is checked before its members and members in schema
    order, so the first refusal met is one at which jsonschema refuses too.
    """
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(isinstance(value, _TYPES[kind])
                         and isinstance(value, bool) == (kind == "boolean") for kind in kinds):
        return path, f"{value!r} is not of type {', '.join(map(repr, kinds))}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    members: list = []
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        missing = [name for name in schema.get("required", ()) if name not in value]
        if missing:
            return path, f"{missing[0]!r} is a required property"
        extras = sorted(key for key in value if key not in properties)
        if extras and schema.get("additionalProperties") is False:
            return path, (f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                          f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        members = [(name, sub) for name, sub in properties.items() if name in value]
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            return path, f"{value!r} {short}"
        members = [(i, schema["items"]) for i in range(len(value)) if "items" in schema]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema.get("minimum", value):
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
    elif isinstance(value, str):
        if len(value) > schema.get("maxLength", len(value)):
            return path, f"{value!r} is too long"
        if "pattern" in schema and not re.search(schema["pattern"], value):
            return path, f"{value!r} does not match {schema['pattern']!r}"
    for key, sub in members:
        found = _first_error(value[key], sub, path + (key,))
        if found:
            return found
    return None


def validate_config(obj: Any) -> None:
    """Validate a parsed config against CONFIG_SCHEMA.

    Raises ConfigError carrying the offending field path, so CLI users see
    "config invalid at lattice/d_um: ..." rather than a schema dump.
    """
    found = _first_error(obj, CONFIG_SCHEMA, ())
    if found:
        raise _refusal("config", *found)


def require_fields(obj: dict[str, Any], keys: tuple[str, ...], *path: Any) -> None:
    """Refuse, in ``validate_config``'s words, the first of ``keys`` missing
    from ``obj``, the config object at ``path``."""
    found = _first_error(obj, {"required": keys}, path)
    if found:
        raise _refusal("config", *found)


def report_columns(command: str, scheme: str) -> tuple[str, ...] | None:
    """The fixed column order of a command's report for a scheme, or None."""
    table = _COLUMNS.get(command)
    return table.get(scheme) if isinstance(table, dict) else table


_CELL_TYPES = (float, int, str, type(None))  # a bool is an int
_PLAIN = {int, bool, str, type(None)}  # the cell types that need no check per cell


def validate_report(report: dict[str, Any]) -> None:
    """Refuse all that REPORT_SCHEMA refuses of the rows the blocks stand
    for, columns other than the command's fixed order, a block that is not a
    non-empty object from those columns to lists of one non-zero length, and
    a cell that is not a finite float, an int, a bool, a str or None: each
    column is checked at once, then the first such cell in row order is
    refused, a non-finite one as a value past the float range."""
    if sorted(report) != sorted(REPORT_SCHEMA["required"]):
        raise _refusal("report", (), f"keys {sorted(report)} are not {REPORT_SCHEMA['required']}")
    if report["schema"] != REPORT_SCHEMA_VERSION:
        raise _refusal("report", ("schema",), f"{REPORT_SCHEMA_VERSION!r} was expected")
    command, config, rows = report["command"], report["config"], report["rows"]
    scheme = config.get("scheme") if isinstance(config, dict) else None
    columns = report_columns(command, scheme) if isinstance(command, str) else None
    if columns is None or report["columns"] != list(columns) or not isinstance(rows, list):
        raise _refusal("report", (), f"no {command!r} report for scheme {scheme!r} has "
                       f"columns {report['columns']!r} and rows of type {type(rows).__name__}")
    allowed = set(columns)
    for b, block in enumerate(rows):
        if not isinstance(block, dict) or not block or not allowed.issuperset(block):
            shown = f"keys {list(block)!r}" if isinstance(block, dict) else type(block).__name__
            raise _refusal("report", ("rows", b), f"a block ({shown}) is not a non-empty "
                           "object keyed by report columns")
        shapes = sorted({len(column) if isinstance(column, list) else type(column).__name__
                         for column in block.values()}, key=str)
        if len(shapes) > 1 or isinstance(shapes[0], str) or not shapes[0]:
            raise _refusal("report", ("rows", b), f"columns of lengths or types {shapes} are "
                           "not lists of one non-zero length")
        odd = [key for key, column in block.items() if not _PLAIN.issuperset(map(type, column))
               and not (set(map(type, column)) == {float} and all(map(math.isfinite, column)))]
        for i in range(shapes[0] if odd else 0):  # their cells, row by row
            for key in odd:
                if isinstance(value := block[key][i], float) and not math.isfinite(value):
                    label = f" label {block['label'][i]!r}" if "label" in block else ""
                    raise ConfigError(f"{command} row k={block['k'][i] if 'k' in block else None}"
                                      f"{label}: a config value leaves the float range: {key} "
                                      f"is {value}")
                if not isinstance(value, _CELL_TYPES):
                    raise _refusal("report", ("rows", b, key), f"{value!r} is not a finite "
                                   "float, an int, a bool, a str or None")
