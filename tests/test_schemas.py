"""The report and config boundary: rendering, the report check and the
config validator, each against an independent oracle.

``json.dumps(indent=2)`` is the byte-identity oracle for ``render_json``,
and ``jsonschema`` is the oracle for both checks: ``REPORT_SCHEMA`` over
every golden report, and ``CONFIG_SCHEMA`` over mutated presets and golden
configs.
"""

import copy
import gzip
import json
import math
import os
import re

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from rydgate.cli import cmd_sweep_omega, load_config, preset_path, render_json
from rydgate.schemas import (
    CONFIG_SCHEMA,
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    SWEEP_COLUMNS,
    ConfigError,
    validate_config,
    validate_report,
)

BUNDLE = os.path.join(os.path.dirname(__file__), "golden", "reports.json.gz")

with gzip.open(BUNDLE, "rt", encoding="utf-8") as _handle:
    CASES = json.load(_handle)

JSON_CASES = [case for case in CASES if case["format"] == "json"]

PRESETS = [
    "sequential_uniform",
    "sequential_lattice_crossover",
    "simultaneous_lattice_room_temp",
    "grover_uniform",
]


def _case_id(case):
    return f"{case['name']}.{case['command']}"


def _dumps(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ------------------------------------------------------------------ render

@pytest.mark.parametrize("case", JSON_CASES, ids=_case_id)
def test_render_json_is_byte_identical_on_golden_reports(case):
    report = json.loads(case["report"])
    assert render_json(report) == _dumps(report) == case["report"]


def test_render_json_is_byte_identical_on_a_large_sweep(tmp_path):
    cfg = {
        "scheme": "sequential",
        "k": [1, 2, 8, 33, 64, 5, 12, 40, 50],
        "omega10_mhz": 9200.0,
        "uniform": {"b_mhz": 9.0, "tau_us": 540.0, "label": "Cs 125s"},
        "sweep": {"omega_mhz": {"min": 0.01, "max": 10000.0, "points": 500}},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    report = cmd_sweep_omega(load_config(str(path), "sweep-omega"))
    assert len(report["rows"]) >= 4000
    assert render_json(report) == _dumps(report)


# text that would break a splice done on the rendered text instead of
# on separators: braces, quotes, newlines, a whole row boundary, the rows
# key itself and non-ASCII
HOSTILE = st.sampled_from(
    ["{", "}", '"', "\n", "},\n      {", '\n  "rows": []', "\\", "Cs 150s", "Ω ≈ 2π", " "]
)
TEXT = st.lists(st.one_of(HOSTILE, st.text(max_size=4)), max_size=4).map("".join)
CELLS = st.one_of(
    TEXT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
)


@given(
    rows=st.lists(st.dictionaries(TEXT, CELLS, min_size=1, max_size=5), max_size=6),
    description=TEXT,
)
def test_render_json_is_byte_identical_on_hostile_rows(rows, description):
    report = {
        "schema": REPORT_SCHEMA_VERSION,
        "command": "sweep-omega",
        "config": {"description": description, "scheme": "sequential"},
        "columns": list(SWEEP_COLUMNS["sequential"]),
        "rows": rows,
    }
    assert render_json(report) == _dumps(report)


def test_render_json_refuses_a_non_finite_row_cell():
    report = json.loads(JSON_CASES[0]["report"])
    report["rows"][-1]["k"] = math.nan
    with pytest.raises(ValueError):
        render_json(report)


# ------------------------------------------------------------ report check

@pytest.mark.parametrize("case", JSON_CASES, ids=_case_id)
def test_golden_reports_pass_both_report_checks(case):
    report = json.loads(case["report"])
    jsonschema.Draft202012Validator(REPORT_SCHEMA).validate(report)
    validate_report(report)


def _budget_report():
    case = next(c for c in JSON_CASES if c["command"] == "budget")
    return json.loads(case["report"])


def _stray_key(report):
    report["rows"][1]["bogus"] = 1.0


def _nan_cell(report):
    report["rows"][1]["total"] = math.nan


def _list_cell(report):
    report["rows"][1]["total"] = [1.0]


def _dict_cell(report):
    report["rows"][1]["label"] = {"a": 1}


def _wrong_columns(report):
    report["columns"] = report["columns"][::-1]


def _other_scheme_columns(report):
    report["config"]["scheme"] = "grover"


def _empty_row(report):
    report["rows"][1] = {}


def _row_not_object(report):
    report["rows"][1] = [1, 2]


def _stray_top_level_key(report):
    report["extra"] = 1


def _missing_rows(report):
    del report["rows"]


def _wrong_version(report):
    report["schema"] = "rydgate-report/0"


def _unknown_command(report):
    report["command"] = "plot"


MUTATIONS = {
    "stray-key": (_stray_key, "report invalid at rows/1"),
    "nan": (_nan_cell, "total is nan"),
    "list-cell": (_list_cell, "report invalid at rows/1/total"),
    "dict-cell": (_dict_cell, "report invalid at rows/1/label"),
    "wrong-columns": (_wrong_columns, "report invalid"),
    "other-scheme-columns": (_other_scheme_columns, "report invalid"),
    "empty-row": (_empty_row, "report invalid at rows/1"),
    "row-not-object": (_row_not_object, "report invalid at rows/1"),
    "stray-top-level-key": (_stray_top_level_key, "report invalid at (top level)"),
    "missing-rows": (_missing_rows, "report invalid at (top level)"),
    "wrong-version": (_wrong_version, "report invalid at schema"),
    "unknown-command": (_unknown_command, "report invalid"),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_reports_are_refused(mutation):
    report = _budget_report()
    validate_report(report)
    mutate, match = MUTATIONS[mutation]
    mutate(report)
    with pytest.raises(ConfigError, match=re.escape(match)):
        validate_report(report)


def test_non_finite_cell_is_refused_in_lab_units():
    report = _budget_report()
    row = report["rows"][0]
    row["r_c_2"] = math.inf
    with pytest.raises(ConfigError) as refused:
        validate_report(report)
    omega10 = report["config"]["omega10_mhz"]
    assert str(refused.value).startswith(
        f"budget row k={row['k']} label {row['label']!r}: r_c_2 is inf: a blockade shift "
        f"meets omega10_mhz = {omega10} MHz"
    )


# --------------------------------------------------------- config validator

STOCK = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
# jsonschema counts 2.0 as an integer; the in-repo validator does not,
# since a float count crashes the budgets.  This oracle shares that rule.
STRICT = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)(CONFIG_SCHEMA)


def _base_configs():
    configs = []
    for name in PRESETS:
        with open(preset_path(name), encoding="utf-8") as handle:
            configs.append(json.load(handle))
    for case in CASES:
        if "config" in case and case["config"] not in configs:
            configs.append(case["config"])
    return configs


BASES = _base_configs()
NEW_VALUES = ["x", 1, 2.0, 1.5, -3, True, None, [], {}, [1], {"mode": "fixed"}]
NEW_KEYS = ["bogus", "n", "label", "b_mhz", "tau_us", "mode", "k", "fit"]


def _nodes(obj, path=()):
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _nodes(value, path + (index,))


def _parent(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@st.composite
def mutated_configs(draw):
    """A preset or golden config after one to three mutations: drop a key,
    add one, retype a value (an integer often to its integral float) or
    negate a number."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        nodes = list(_nodes(cfg))
        op = draw(st.sampled_from(["drop", "add", "retype", "negate"]))
        if op in ("drop", "add"):
            objects = [node for _, node in nodes if isinstance(node, dict)]
            node = draw(st.sampled_from([obj for obj in objects if obj or op == "add"]))
            if op == "drop":
                del node[draw(st.sampled_from(sorted(node)))]
            else:
                value = draw(st.sampled_from(NEW_VALUES))
                node[draw(st.sampled_from(NEW_KEYS))] = copy.deepcopy(value)
            continue
        if op == "retype":
            paths = [path for path, _ in nodes if path]
        else:
            paths = [path for path, node in nodes if path and isinstance(node, (int, float))
                     and not isinstance(node, bool)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, value = _parent(cfg, path), _parent(cfg, path)[path[-1]]
        if op == "negate":
            parent[path[-1]] = -value
        elif isinstance(value, int) and not isinstance(value, bool) and draw(st.booleans()):
            parent[path[-1]] = float(value)
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(NEW_VALUES)))
    return cfg


def _integral_floats_to_ints(obj):
    if isinstance(obj, dict):
        return {key: _integral_floats_to_ints(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_integral_floats_to_ints(value) for value in obj]
    if isinstance(obj, float) and obj.is_integer():
        return int(obj)
    return obj


def _error_paths(errors):
    """Every path at which jsonschema refuses, inside each oneOf too."""
    for error in errors:
        yield "/".join(map(str, error.absolute_path)) or "(top level)"
        yield from _error_paths(error.context)


@settings(max_examples=400)
@given(mutated_configs())
def test_config_validator_agrees_with_jsonschema(cfg):
    errors = list(STRICT.iter_errors(cfg))
    try:
        validate_config(cfg)
        refusal = None
    except ConfigError as exc:
        refusal = str(exc)
    assert (refusal is None) == (not errors)
    if STOCK.is_valid(cfg) != (not errors):
        # the one intended disagreement with stock jsonschema: an integral
        # float on an integer field, which stock jsonschema accepts
        assert STOCK.is_valid(cfg) and STRICT.is_valid(_integral_floats_to_ints(cfg))
    if refusal is not None:
        # the path rule of the validator's docstring
        assert refusal.startswith("config invalid at ")
        path = refusal.removeprefix("config invalid at ").split(": ", 1)[0]
        assert path in set(_error_paths(errors)), (refusal, cfg)


# the keywords validate_config's walker checks, and the annotations it skips
WALKED = {"type", "enum", "required", "additionalProperties", "properties", "minItems", "items",
          "minimum", "exclusiveMinimum", "maxLength", "pattern"}
ANNOTATIONS = {"$schema", "title", "description"}


def _subschemas(schema, path=()):
    yield path, schema
    for name, sub in schema.get("properties", {}).items():
        yield from _subschemas(sub, path + (name,))
    if "items" in schema:
        yield from _subschemas(schema["items"], path + ("items",))


def test_config_schema_uses_only_walked_keywords():
    # the walker skips any other key as an annotation: a oneOf or a const
    # would pass every config it should refuse
    for path, schema in _subschemas(CONFIG_SCHEMA):
        assert set(schema) <= WALKED | ANNOTATIONS, (path, set(schema) - WALKED - ANNOTATIONS)


# (field, bad value, refusal); jsonschema's best_match gives the same path
SINGLE_DEFECTS = [
    ("scheme", "bogus", "scheme: 'bogus' is not one of "
     "['sequential', 'simultaneous', 'grover', 'simulate']"),
    ("k", [], "k: [] should be non-empty"),
    ("k", [1, 0], "k/1: 0 is less than the minimum of 1"),
    ("k", -2, "k: -2 is less than the minimum of 1"),
    ("k", "2", "k: '2' is not of type 'integer', 'array'"),
    ("omega10_mhz", -1.0, "omega10_mhz: -1.0 is less than or equal to the minimum of 0"),
    ("frequencies", {"mode": "slow"}, "frequencies/mode: 'slow' is not one of "
     "['fixed', 'optimize']"),
    ("frequencies", {"omega_mhz": 1.0}, "frequencies: 'mode' is a required property"),
    ("uniform", [{"b_mhz": -9.0, "tau_us": 540.0}],
     "uniform/0/b_mhz: -9.0 is less than or equal to the minimum of 0"),
    ("uniform", {"b_mhz": -9.0, "tau_us": 540.0},
     "uniform/b_mhz: -9.0 is less than or equal to the minimum of 0"),
    ("simulate", {"b_mhz": -1.0},
     "simulate/b_mhz: -1.0 is less than or equal to the minimum of 0"),
    ("simulate", {"b_mhz": "infinite"}, "simulate/b_mhz: 'infinite' does not match '^inf$'"),
    ("description", 3, "description: 3 is not of type 'string'"),
    ("bogus", 1, "(top level): Additional properties are not allowed ('bogus' was unexpected)"),
]


@pytest.mark.parametrize("key, value, refusal", SINGLE_DEFECTS,
                         ids=[refusal.split(": ")[0] for _, _, refusal in SINGLE_DEFECTS])
def test_config_refusal_on_single_defects(key, value, refusal):
    cfg = dict(copy.deepcopy(BASES[0]), **{key: value})
    with pytest.raises(ConfigError) as refused:
        validate_config(cfg)
    assert str(refused.value) == f"config invalid at {refusal}"
    best = jsonschema.exceptions.best_match(STOCK.iter_errors(cfg))
    assert ("/".join(map(str, best.absolute_path)) or "(top level)") == refusal.split(": ")[0]
