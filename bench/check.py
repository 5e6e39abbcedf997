"""Checks on the reports one pass wrote.

Every op gets the seed-independent checks: expected exit code, strict and
finite JSON (or a CSV with finite numbers), a schema-valid report,
passing ideal-limit checks, and no numeric minimum of a sweep above the
lowest grid value of its k.  Where a reference report exists for the
workload and seed, the report must also match it:

* only the reference's columns are compared, so added columns are ignored;
* row count, row order and every non-float cell match exactly;
* float cells match to 1e-12 relative, except
  - simulator errors (``prob_ideal``, ``error``, ``avg_error``): 1e-9 absolute;
  - rows whose frequency was optimized: the minimum (``total`` or
    ``min_total``) may not exceed the reference by more than 1e-8 relative,
    the argmin stays within the optimizer's 1e-4 log tolerance, and cells
    that follow the argmin (terms, duration) match to 1e-3 relative;
  - evaluation counts are not compared.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path
from typing import Any

import jsonschema

REL_TOL = 1.0e-12
SIM_ABS_TOL = 1.0e-9
MIN_REL_TOL = 1.0e-8
ARGMIN_LOG_TOL = 1.0e-4
FOLLOWS_ARGMIN_REL_TOL = 1.0e-3

EXCLUDED = frozenset({"opt_evaluations", "evaluations"})
SIM_ERROR_COLUMNS = frozenset({"prob_ideal", "error", "avg_error"})
MIN_COLUMNS = frozenset({"total", "min_total"})
ARGMIN_COLUMNS = frozenset({
    "omega_mhz", "omega_c_mhz", "omega_t_mhz",
    "omega_opt_mhz", "omega_c_opt_mhz", "omega_t_opt_mhz",
})
# cells of an optimized row that do not depend on the optimized frequency
FREQ_INDEPENDENT = frozenset({
    "b_mhz", "b_ct_mhz", "d_cc_mhz", "omega_opt_analytic_mhz", "e_opt_analytic",
})

_INT = re.compile(r"-?\d+\Z")


class ReportError(ValueError):
    """A report that cannot be read as strict JSON or CSV."""


def _reject_constant(name: str) -> Any:
    raise ReportError(f"non-finite JSON constant {name}")


def strict_json(text: str) -> Any:
    """Parse JSON that holds only finite numbers."""
    return json.loads(text, parse_constant=_reject_constant)


def csv_cell(text: str) -> Any:
    """A CSV cell as the value the JSON report would hold."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def load_report(path: Path, fmt: str) -> tuple[dict | None, list[str], list[dict]]:
    """(JSON report or None for CSV, columns, rows keyed by column)."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        report = strict_json(text)
        if not isinstance(report, dict):
            raise ReportError("report is not a JSON object")
        return report, list(report.get("columns", [])), list(report.get("rows", []))
    table = list(csv.reader(io.StringIO(text)))
    if not table:
        raise ReportError("empty CSV")
    columns = table[0]
    rows = [dict(zip(columns, (csv_cell(c) for c in line))) for line in table[1:]]
    return None, columns, rows


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(got), abs(want))


def is_optimized(command: str, row: dict) -> bool:
    if command == "optimize":
        return True
    if command == "budget":
        return row.get("opt_evaluations") is not None
    if command == "sweep-omega":
        return row.get("row_type") == "numeric_opt"
    return False


def cell_problem(command: str, optimized: bool, column: str, want: Any, got: Any) -> str | None:
    """Why ``got`` does not match the reference value ``want``, or None."""
    if column in EXCLUDED:
        return None
    if not isinstance(want, float):
        if got == want and type(got) is type(want):
            return None
        return f"{got!r} != reference {want!r}"
    if not _is_number(got):
        return f"{got!r} is not a number (reference {want!r})"
    got = float(got)
    if command == "simulate" and column in SIM_ERROR_COLUMNS:
        ok = abs(got - want) <= SIM_ABS_TOL
    elif optimized and column in MIN_COLUMNS:
        ok = got - want <= MIN_REL_TOL * abs(want)
    elif optimized and column in ARGMIN_COLUMNS:
        ok = got > 0.0 and want > 0.0 and abs(math.log(got / want)) <= ARGMIN_LOG_TOL
    elif optimized and column not in FREQ_INDEPENDENT:
        ok = _rel_close(got, want, FOLLOWS_ARGMIN_REL_TOL)
    else:
        ok = _rel_close(got, want, REL_TOL)
    return None if ok else f"{got!r} != reference {want!r}"


def compare(command: str, reference: dict, columns: list[str], rows: list[dict]) -> list[str]:
    """Mismatches of one report against its reference (at most 10 listed)."""
    ref_columns = reference["columns"]
    missing = [c for c in ref_columns if c not in columns]
    if missing:
        return [f"missing columns {missing}"]
    if len(rows) != len(reference["rows"]):
        return [f"{len(rows)} rows, reference has {len(reference['rows'])}"]
    problems = []
    for i, (ref_cells, row) in enumerate(zip(reference["rows"], rows)):
        ref_row = dict(zip(ref_columns, ref_cells))
        optimized = is_optimized(command, ref_row)
        for column, want in ref_row.items():
            problem = cell_problem(command, optimized, column, want, row.get(column))
            if problem:
                problems.append(f"row {i} {column}: {problem}")
                if len(problems) >= 10:
                    return problems
    return problems


def _nonfinite_cells(rows: list[dict]) -> list[str]:
    return [f"{col}={val!r}" for row in rows for col, val in row.items()
            if isinstance(val, float) and not math.isfinite(val)]


def sweep_minimum_problems(rows: list[dict]) -> list[str]:
    """A numeric minimum may not lie above the lowest grid value of its k
    (beyond the optimizer's 1e-8 relative slack)."""
    lowest: dict[tuple, float] = {}
    for row in rows:
        if row.get("row_type") == "grid":
            key = (row.get("label"), row.get("k"))
            lowest[key] = min(lowest.get(key, math.inf), row["total"])
    problems = []
    for row in rows:
        if row.get("row_type") == "numeric_opt":
            key = (row.get("label"), row.get("k"))
            floor = lowest.get(key)
            if floor is None or row["total"] - floor > MIN_REL_TOL * abs(floor):
                problems.append(f"numeric minimum {row['total']!r} above grid minimum "
                                f"{floor!r} for label={key[0]!r} k={key[1]}")
    return problems


def check_op(op: dict, outcome: dict, out_path: Path, reference: dict | None,
             report_schema: dict) -> list[str]:
    """Problems with one op's outcome; empty when it passes."""
    code = outcome["exit"]
    if outcome.get("error"):
        return [f"raised: {outcome['error'].strip().splitlines()[-1]}"]
    if op["check"] == "finite_or_exit2":
        if code == 2:
            return []
        if code != 0:
            return [f"exit {code}, expected 0 with finite JSON or 2"]
    elif code != 0:
        return [f"exit {code}, expected 0"]
    try:
        report, columns, rows = load_report(out_path, op["format"])
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if report is not None:
        errors = list(jsonschema.Draft202012Validator(report_schema).iter_errors(report))
        problems += [f"schema: {e.message}" for e in errors[:3]]
        if report.get("command") != op["command"]:
            problems.append(f"report command {report.get('command')!r}")
    elif not columns:
        problems.append("CSV without header")
    bad = _nonfinite_cells(rows)
    if bad:
        problems.append(f"non-finite cells: {bad[:3]}")
    if op["check"] == "ideal":
        if not rows or not all(row.get("ideal_check_passed") is True for row in rows):
            problems.append("ideal-limit check did not pass")
    if op["check"] == "sweep":
        problems += sweep_minimum_problems(rows)
    if reference is not None and not problems:
        problems += compare(op["command"], reference, columns, rows)
    return problems


def reference_entry(columns: list[str], rows: list[dict]) -> dict:
    """Reference form of a report: its columns and one cell list per row."""
    return {"columns": columns, "rows": [[row.get(c) for c in columns] for row in rows]}
