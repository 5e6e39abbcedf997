"""Golden CLI reports: every command on the presets and on configs that
reach the simultaneous-uniform, lattice-sweep, grover-optimize,
fit-anchored and simulate paths must reproduce the committed reports.

Columns, row order and every non-float cell must match exactly; floats
match to 1e-12 relative, so other CPUs and numpy builds do not flake.  The
simulator's probabilities and errors (``ABS_TOL_COLUMNS``) match to 1e-12
absolute instead: in the ideal limit they are roundoff near 0.
Rebuild the bundle with ``tests/golden/regenerate.py`` only for an
intended report change.
"""

import csv
import gzip
import io
import json
import math
import os

import pytest

from rydgate.cli import main, preset_path

REL_TOL = 1.0e-12
ABS_TOL = 1.0e-12
ABS_TOL_COLUMNS = frozenset({"prob_ideal", "error", "avg_error"})
BUNDLE = os.path.join(os.path.dirname(__file__), "golden", "reports.json.gz")

with gzip.open(BUNDLE, "rt", encoding="utf-8") as _handle:
    CASES = json.load(_handle)


def _case_id(case):
    return f"{case['name']}.{case['command']}.{case['format']}"


def _close(actual, expected, column):
    abs_tol = ABS_TOL if column in ABS_TOL_COLUMNS else 0.0
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=abs_tol)


def _same_value(expected, actual, column, where):
    if isinstance(expected, float) and isinstance(actual, float):
        assert _close(actual, expected, column), where
    else:
        assert type(actual) is type(expected) and actual == expected, where


def _float_cell(cell):
    """The float a CSV cell holds, or None for integers and text."""
    for parse in (int, float):
        try:
            value = parse(cell)
        except ValueError:
            continue
        return value if parse is float else None
    return None


def _same_cell(expected, actual, column, where):
    want, got = _float_cell(expected), _float_cell(actual)
    if want is None or got is None:
        assert actual == expected, where
    else:
        assert _close(got, want, column), where


def _compare_json(expected_text, actual_text):
    expected, actual = json.loads(expected_text), json.loads(actual_text)
    assert set(actual) == set(expected)
    for key in ("schema", "command", "config", "columns"):
        assert actual[key] == expected[key], key
    assert len(actual["rows"]) == len(expected["rows"])
    for i, (want, got) in enumerate(zip(expected["rows"], actual["rows"])):
        assert set(got) == set(want), f"row {i} keys"
        for key, value in want.items():
            _same_value(value, got[key], key, f"row {i} {key}")


def _compare_csv(expected_text, actual_text):
    expected = list(csv.reader(io.StringIO(expected_text)))
    actual = list(csv.reader(io.StringIO(actual_text)))
    assert actual[0] == expected[0], "header"
    assert len(actual) == len(expected)
    for i, (want, got) in enumerate(zip(expected[1:], actual[1:])):
        assert len(got) == len(want), f"row {i} width"
        for column, cell_want, cell_got in zip(expected[0], want, got):
            _same_cell(cell_want, cell_got, column, f"row {i} {column}")


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_matches_golden(case, tmp_path):
    if "preset" in case:
        config_path = preset_path(case["preset"])
    else:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(case["config"]), encoding="utf-8")
    out = tmp_path / "report"
    argv = [case["command"], "--config", str(config_path), "--format",
            case["format"], "--out", str(out)]
    assert main(argv) == 0
    actual = out.read_text(encoding="utf-8")
    if case["format"] == "json":
        _compare_json(case["report"], actual)
    else:
        _compare_csv(case["report"], actual)
