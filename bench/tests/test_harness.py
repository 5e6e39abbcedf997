"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

The last two tests run real passes of the ``presets`` workload (about
20 s together).
"""

from __future__ import annotations

import copy
import gzip
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------- self time

def test_self_time_subtracts_children_once():
    # 0: [0, 10] root; 1: [1, 4] child; 2: [2, 3] grandchild;
    # 3: [3.5, 6] child overlapping child 1; 4: [9, 12] child running past
    # the end of its parent
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.5, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    selfs = tracing.self_times(parent, start, end)
    # root covered by [1, 6] and [9, 10]: 10 - 5 - 1
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_self_time_of_tracer_spans():
    clock = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer()
    tracing.time.perf_counter, saved = (lambda: next(clock)), tracing.time.perf_counter
    try:
        leaf = tracer.wrap("leaf", lambda: None)
        outer = tracer.wrap("outer", lambda: (leaf(), leaf()))
        outer()
    finally:
        tracing.time.perf_counter = saved
    totals = tracing.span_totals(tracer)
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 8.0}
    assert totals["leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


# ---------------------------------------------------------------- wrapper

def test_wrapper_patches_every_binding_and_restores():
    import rydgate
    import rydgate.cli as cli
    import rydgate.lattice as lattice
    import rydgate.sequential as sequential
    import rydgate.simultaneous as simultaneous

    originals = {"pair_sets": lattice.pair_sets, "budget": cli._COMMANDS["budget"]}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for module in (rydgate, lattice, cli, sequential, simultaneous):
            assert module.pair_sets is not originals["pair_sets"]
            assert module.pair_sets.__wrapped__ is originals["pair_sets"]
        assert cli._COMMANDS["budget"] is cli.cmd_budget
        assert cli._COMMANDS["budget"] is not originals["budget"]
        # the lru_cache wrapper calls the public function through the module
        simultaneous._cached_subset_expectations.cache_clear()
        simultaneous._cached_subset_expectations((1.0, 2.0), 3.0)
    for module in (rydgate, lattice, cli, sequential, simultaneous):
        assert module.pair_sets is originals["pair_sets"]
    assert cli._COMMANDS["budget"] is originals["budget"]
    assert tracing.span_totals(tracer)["simultaneous.subset_expect"]["calls"] == 1


# ---------------------------------------------------------------- checker

def _reference(workload: str) -> dict:
    path = BENCH / "reference" / f"{workload}.json.gz"
    return json.loads(gzip.decompress(path.read_bytes()))["ops"]


def _rows(entry: dict) -> tuple[list[str], list[dict]]:
    columns = list(entry["columns"])
    return columns, [dict(zip(columns, cells)) for cells in entry["rows"]]


def test_checker_accepts_reference_and_extra_column():
    entry = _reference("presets")["budget.simultaneous_lattice_room_temp"]
    columns, rows = _rows(entry)
    assert check.compare("budget", entry, columns, rows) == []
    for row in rows:
        row["new_column"] = 1.0
    assert check.compare("budget", entry, columns + ["new_column"], rows) == []


def test_checker_rejects_term_perturbed_by_1e9_relative():
    entry = _reference("presets")["budget.simultaneous_lattice_room_temp"]
    columns, rows = _rows(entry)
    rows[2]["r_t"] *= 1.0 + 1.0e-9
    problems = check.compare("budget", entry, columns, rows)
    assert len(problems) == 1 and "r_t" in problems[0]


def test_checker_rejects_changed_rows_and_labels():
    entry = _reference("presets")["budget.sequential_uniform"]
    columns, rows = _rows(entry)
    assert check.compare("budget", entry, columns, rows[:-1])
    rows = copy.deepcopy(rows)
    rows[0]["label"] = "other"
    assert check.compare("budget", entry, columns, rows)


def test_checker_optimized_rows():
    entry = _reference("presets")["optimize.sequential_uniform"]
    columns, rows = _rows(entry)
    lower = copy.deepcopy(rows)
    lower[0]["min_total"] *= 1.0 - 1.0e-6  # a better minimum is fine
    lower[0]["omega_opt_mhz"] *= math.exp(0.5e-4)
    lower[0]["evaluations"] = 1  # evaluation counts are not compared
    assert check.compare("optimize", entry, columns, lower) == []
    higher = copy.deepcopy(rows)
    higher[0]["min_total"] *= 1.0 + 2.0e-8
    assert check.compare("optimize", entry, columns, higher)
    moved = copy.deepcopy(rows)
    moved[0]["omega_opt_mhz"] *= math.exp(2.0e-4)
    assert check.compare("optimize", entry, columns, moved)


def test_checker_simulator_errors_absolute():
    entry = _reference("simulate")["simulate.sequential_k3"]
    columns, rows = _rows(entry)
    rows[0]["error"] += 0.5e-9
    assert check.compare("simulate", entry, columns, rows) == []
    rows[0]["error"] += 1.0e-9
    assert check.compare("simulate", entry, columns, rows)


def test_strict_json_and_csv_cells():
    with pytest.raises(check.ReportError):
        check.strict_json('{"total": Infinity}')
    assert [check.csv_cell(c) for c in ("", "true", "3", "0.5", "inf", "Cs 100s")] == [
        None, True, 3, 0.5, math.inf, "Cs 100s"]


def test_boundary_probe_passes_on_exit_2_or_finite_json(tmp_path):
    op = workloads.make_op("probe", "budget", "json", check="finite_or_exit2", probe=True)
    out = tmp_path / "probe.json"
    assert check.check_op(op, {"exit": 2}, out, None, {}) == []
    out.write_text('{"rows": [{"total": Infinity}]}')
    assert check.check_op(op, {"exit": 0}, out, None, {})
    assert check.check_op(op, {"exit": 1}, out, None, {})


def test_sweep_minimum_check():
    grid = [{"row_type": "grid", "label": "", "k": 8, "total": t} for t in (3.0, 1.0, 2.0)]
    assert check.sweep_minimum_problems(
        grid + [{"row_type": "numeric_opt", "label": "", "k": 8, "total": 0.9}]) == []
    assert check.sweep_minimum_problems(
        grid + [{"row_type": "numeric_opt", "label": "", "k": 8, "total": 1.1}])


# ------------------------------------------------------------ import time

def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     scipy.linalg",
        "import time:         1 |          6 |   helper",
        "import time:        40 |        100 | rydgate",
        "import time:         7 |          7 |   jsonschema",
        "import time:         3 |         10 | rydgate.cli",
    ])
    parsed = tracing.parse_importtime(text)
    assert parsed == pytest.approx({
        "import.total_s": 110e-6,
        "import.scipy_s": 35e-6,
        "import.jsonschema_s": 7e-6,
        "import.rydgate_self_s": 43e-6,
    })


# ------------------------------------------------------------ real passes

@pytest.fixture(scope="module")
def presets_passes(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    ops = workloads.build("presets", 0, work / "configs")
    passes = {}
    for tag, trace in (("plain", False), ("traced", True), ("again", True)):
        p = run.Pass(work, ops, 0, tag)
        passes[tag] = (p, p.run(trace=trace))
    return ops, passes


def test_traced_reports_identical_to_untraced(presets_passes):
    ops, passes = presets_passes
    plain = passes["plain"][0].outputs()
    assert len(plain) == len(ops)
    assert passes["traced"][0].outputs() == plain


def test_seed_counts_repeat_exactly(presets_passes):
    ops, passes = presets_passes
    traced, again = passes["traced"][1], passes["again"][1]
    assert traced["counts"] == again["counts"]
    assert traced["counts"]["optimize.minimize_error.evals"] == 28565
    names = [op["name"] for op in ops]
    at = names.index("optimize.simultaneous_lattice_room_temp")
    evals = [c["optimize.minimize_error.evals"] for c in traced["op_counts"]]
    assert evals[at] - evals[at - 1] == 1685


def test_seed_presets_fail_fraction(presets_passes):
    ops, passes = presets_passes
    p, result = passes["plain"]
    checker = run.Checker("presets", 0, ops)
    checker.check(result, p.out)
    assert (checker.failed, checker.attempted) == (1, 11)
    assert list(checker.probe_failures) == ["budget.b_equals_omega10"]
    assert checker.correct
