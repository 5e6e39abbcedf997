"""End-to-end CLI tests: config validation, reports, determinism.

Configs are built as temp files because the CLI contract is file-based;
the bundled presets are exercised as-is.
"""

import copy
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from typing import NamedTuple

import pytest

import rydgate
from rydgate import (BlockadeRegimeWarning, OptimizerEdgeWarning, cli, lattice, sequential,
                     simultaneous)
from rydgate.cli import (
    cmd_budget,
    cmd_lattice,
    cmd_simulate,
    cmd_sweep_omega,
    load_config,
    main,
    preset_path,
    render_csv,
    render_json,
)
from rydgate.lattice import build_layout, pair_sets
from rydgate.schemas import (
    BUDGET_COLUMNS,
    LATTICE_COLUMNS,
    SCHEMES,
    SWEEP_COLUMNS,
    ConfigError,
    scheme_keys,
    validate_config,
    validate_report,
)
from rydgate.simulator import _MAX_K_TABLE
from rydgate.units import angular_from_mhz, meters_from_um

from rowform import expand, in_blocks

PRESETS = [
    "sequential_uniform",
    "sequential_lattice_crossover",
    "simultaneous_lattice_room_temp",
    "grover_uniform",
]


def write_config(tmp_path, payload, name="config.json"):
    """Write a config object, or a config's JSON text as it is."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                    encoding="utf-8")
    return str(path)


def uniform_cfg(**overrides):
    cfg = {
        "scheme": "sequential",
        "k": [2, 5],
        "omega10_mhz": 9200.0,
        "uniform": {"b_mhz": 52.0, "tau_us": 820.0, "label": "Cs 150s"},
        "frequencies": {"mode": "optimize"},
    }
    cfg.update(overrides)
    return cfg


# ----------------------------------------------------------------- presets

@pytest.mark.parametrize("name", PRESETS)
def test_bundled_presets_validate(name):
    cfg = load_config(preset_path(name), "budget")
    assert cfg["k"], name


def test_room_temp_preset_budget_rows():
    cfg = load_config(preset_path("simultaneous_lattice_room_temp"), "budget")
    report = cmd_budget(cfg)
    rows = expand(report["rows"])
    assert [row["k"] for row in rows] == [3, 8, 15, 24, 35]
    assert report["columns"] == list(BUDGET_COLUMNS["simultaneous"])
    k35 = rows[-1]
    assert k35["duration_us"] == pytest.approx(0.9400641, rel=1e-6, abs=0.0)
    assert k35["total"] == pytest.approx(0.14588604151728835, rel=1e-10, abs=0.0)


# ------------------------------------------------------------- validation

def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"scheme": "sequential",\n "k": [1,]\n}', encoding="utf-8")
    code = main(["budget", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2 column" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literal_refused_at_parse(tmp_path, capsys, literal):
    # json.loads takes these by default; past the parse, the builders would
    # blame the blockade shift or omega10 instead of the literal
    path = tmp_path / "literal.json"
    path.write_text(
        '{"scheme": "sequential", "k": 2, "omega10_mhz": 9200.0, '
        f'"uniform": {{"b_mhz": {literal}, "tau_us": 820.0}}}}',
        encoding="utf-8",
    )
    assert main(["budget", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: config parse error in {path}: {literal} is not a JSON number; "
        "write a finite number\n"
    )


@pytest.mark.parametrize("name, code", [("missing.json", errno.ENOENT),
                                        ("a-directory", errno.EISDIR)])
def test_unreadable_config_exits_2(tmp_path, capsys, name, code):
    path = tmp_path / name
    if code == errno.EISDIR:
        path.mkdir()
    refusal = f"cannot read config {path}: {os.strerror(code)}"
    with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
        load_config(str(path), "budget")
    out = tmp_path / "out.json"
    assert main(["budget", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", f"error: {refusal}\n")


def test_empty_k_rejected(tmp_path, capsys):
    path = write_config(tmp_path, uniform_cfg(k=[]))
    assert main(["budget", "--config", str(path)]) == 2
    assert "k" in capsys.readouterr().err


def test_single_point_sweep_rejected(tmp_path, capsys):
    cfg = uniform_cfg(sweep={"omega_mhz": {"min": 1.0, "max": 2.0, "points": 1}})
    path = write_config(tmp_path, cfg)
    assert main(["sweep-omega", "--config", str(path)]) == 2
    assert "points" in capsys.readouterr().err


def test_uniform_and_lattice_together_rejected(tmp_path):
    cfg = uniform_cfg(
        lattice={"d_um": 1.0, "tau_us": 170.0},
        interaction={"c6_mhz_um6": 100.0},
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_config(tmp_path, cfg), "budget")


def test_scheme_command_mismatches(tmp_path):
    sim_cfg = {
        "scheme": "simulate",
        "k": 1,
        "simulate": {"omega_mhz": 1.0},
    }
    with pytest.raises(ConfigError, match="simulate"):
        load_config(write_config(tmp_path, sim_cfg), "budget")
    with pytest.raises(ConfigError, match="simulate"):
        load_config(write_config(tmp_path, uniform_cfg()), "simulate")


def test_grover_lattice_rejected(tmp_path):
    cfg = {
        "scheme": "grover",
        "k": 3,
        "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1.0, "tau_us": 170.0},
        "interaction": {"c6_mhz_um6": 100.0},
    }
    with pytest.raises(ConfigError, match="uniform"):
        load_config(write_config(tmp_path, cfg), "budget")


SIMULTANEOUS_UNIFORM = {"b_ct_mhz": 50.0, "d_cc_mhz": 2.0, "tau_c_us": 148.0, "tau_t_us": 97.0}


# ----------------------------------------------- cross rules, per scheme

def scheme_cfg(scheme, lattice=False):
    """A valid fixed-mode config of a budget scheme, built from what
    ``schemas.SCHEMES`` says the scheme reads; it carries a sweep grid too."""
    row = SCHEMES[scheme]
    taus = {key: 500.0 for key in row.lifetimes}
    cfg = {
        "scheme": scheme,
        "k": [2],
        "omega10_mhz": 9200.0,
        "frequencies": {"mode": "fixed", **{key: 50.0 for key in row.frequencies}},
        "sweep": {"omega_mhz": {"min": 0.5, "max": 50.0, "points": 5}},
    }
    if lattice:
        cfg["lattice"] = {"d_um": 4.0, **taus}
        cfg.update((key, {"c6_mhz_um6": 1.0e6}) for key in row.models)
    else:
        # b_mhz, or b_ct_mhz well above d_cc_mhz
        cfg["uniform"] = [dict(zip(row.shifts, (50.0, 2.0)), **taus)]
    return cfg


def _simulate_cfg(sequence):
    frequencies = SCHEMES[sequence].frequencies
    return {"scheme": "simulate", "k": 1,
            "simulate": {"sequence": sequence, **{key: 1.0 for key in frequencies}}}


def _drop_cases():
    """(config, command, path of the dropped key) for every key the scheme
    table names: shifts and lifetimes of a uniform entry, lifetimes of the
    lattice block, interaction models, fixed-mode and simulate drive
    frequencies, and the sweep grid of a single-frequency scheme."""
    for scheme, row in SCHEMES.items():
        cases = [(scheme_cfg(scheme), "budget", ("uniform", 0, key))
                 for key in row.shifts + row.lifetimes]
        if row.models:
            lattice = scheme_cfg(scheme, lattice=True)
            cases += [(lattice, "budget", ("lattice", key)) for key in row.lifetimes]
            cases += [(lattice, "optimize", (key,)) for key in row.models]
        cases += [(scheme_cfg(scheme), "budget", ("frequencies", key)) for key in row.frequencies]
        cases += [(_simulate_cfg(scheme), "simulate", ("simulate", key))
                  for key in row.frequencies]
        if len(row.frequencies) == 1:
            cases += [(scheme_cfg(scheme), "sweep-omega", ("sweep", key))
                      for key in row.frequencies]
        for cfg, command, path in cases:
            yield pytest.param(copy.deepcopy(cfg), command, path,
                               id=f"{scheme}-{command}-{'/'.join(map(str, path))}")


def _run(tmp_path, cfg, command):
    out = tmp_path / "out.json"
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    return code, out.exists()


# (scheme, lattice run) for every input mode a scheme has
RUNS = [(scheme, lattice) for scheme, row in SCHEMES.items()
        for lattice in (False, True)[: 1 + (row.models is not None)]]
RUN_IDS = [f"{scheme}-{'lattice' if lattice else 'uniform'}" for scheme, lattice in RUNS]


@pytest.mark.parametrize("scheme, lattice", RUNS, ids=RUN_IDS)
def test_scheme_table_configs_run(tmp_path, scheme, lattice):
    cfg = scheme_cfg(scheme, lattice)
    commands = ["budget", "optimize"]
    commands += ["sweep-omega"] if len(SCHEMES[scheme].frequencies) == 1 else []
    commands += ["lattice"] if lattice else []
    for command in commands:
        assert _run(tmp_path, cfg, command) == (0, True), command
    for sequence in SCHEMES:
        assert _run(tmp_path, _simulate_cfg(sequence), "simulate") == (0, True), sequence


@pytest.mark.parametrize("cfg, command, path", list(_drop_cases()))
def test_dropped_table_key_refused_at_its_path(tmp_path, capsys, cfg, command, path):
    *parents, key = path
    holder = cfg
    for part in parents:
        holder = holder[part]
    del holder[key]
    assert _run(tmp_path, cfg, command) == (2, False)
    where = "/".join(map(str, parents)) or "(top level)"
    assert capsys.readouterr().err == (
        f"error: config invalid at {where}: {key!r} is a required property\n"
    )


def test_uniform_entry_without_lifetime_refused_at_its_path(tmp_path, capsys):
    # a single uniform object is refused at uniform, its path in the file:
    # the cross rules run before it is wrapped in a list
    cfg = uniform_cfg(uniform={"b_mhz": 9.0})
    assert _run(tmp_path, cfg, "budget") == (2, False)
    assert capsys.readouterr().err == (
        "error: config invalid at uniform: 'tau_us' is a required property\n"
    )


@pytest.mark.parametrize(
    "scheme, entry_scheme",
    [(a, b) for a in SCHEMES for b in SCHEMES
     if SCHEMES[a].lifetimes != SCHEMES[b].lifetimes],
)
def test_uniform_entry_of_another_scheme_refused(tmp_path, capsys, scheme, entry_scheme):
    cfg = dict(scheme_cfg(scheme), uniform=scheme_cfg(entry_scheme)["uniform"])
    assert _run(tmp_path, cfg, "budget") == (2, False)
    assert capsys.readouterr().err == (
        f"error: config invalid at uniform/0: {SCHEMES[scheme].shifts[0]!r} is a required "
        "property\n"
    )


def _foreign_cases():
    """(config, command, path of an added key) for every key that the
    scheme table names for another scheme only, in each block that reads
    such keys: a uniform entry, the lattice block, the fixed frequencies
    and the simulate block."""
    def foreign(scheme, *columns):
        own = set(scheme_keys(columns, scheme))
        return [key for key in scheme_keys(columns) if key not in own]

    for scheme, row in SCHEMES.items():
        cases = [(scheme_cfg(scheme), "budget", ("uniform", 0, key))
                 for key in foreign(scheme, "shifts", "lifetimes")]
        if row.models:
            cases += [(scheme_cfg(scheme, lattice=True), "budget", ("lattice", key))
                      for key in foreign(scheme, "lifetimes")]
        cases += [(scheme_cfg(scheme), "budget", ("frequencies", key))
                  for key in foreign(scheme, "frequencies")]
        cases += [(_simulate_cfg(scheme), "simulate", ("simulate", key))
                  for key in foreign(scheme, "shifts", "frequencies")]
        for cfg, command, path in cases:
            yield pytest.param(cfg, command, path,
                               id=f"{scheme}-{command}-{'/'.join(map(str, path))}")


@pytest.mark.parametrize("cfg, command, path", list(_foreign_cases()))
def test_key_of_another_scheme_refused_at_its_path(tmp_path, capsys, cfg, command, path):
    # such a key used to be ignored: a simultaneous simulate run with b_mhz
    # ran without any blockade
    *parents, key = path
    holder = cfg
    for part in parents:
        holder = holder[part]
    holder[key] = 5.0
    assert _run(tmp_path, cfg, command) == (2, False)
    scheme = cfg["simulate"]["sequence"] if command == "simulate" else cfg["scheme"]
    assert capsys.readouterr().err.startswith(
        f"error: config invalid at {'/'.join(map(str, path))}: another scheme's key; "
        f"a {scheme} run reads "
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_own_frequency_in_optimize_mode_refused(tmp_path, capsys, scheme):
    # optimize mode would drop a written drive frequency without a word
    # and report the optimum in its place
    own = SCHEMES[scheme].frequencies
    cfg = scheme_cfg(scheme)
    cfg["frequencies"]["mode"] = "optimize"
    for command in ("budget", "optimize"):
        assert _run(tmp_path, cfg, command) == (2, False), command
        assert capsys.readouterr().err == (
            f"error: config invalid at frequencies/{own[0]}: mode 'optimize' finds the drive "
            "frequencies; give them with mode 'fixed'\n"
        )
    # a key of another scheme is named first
    foreign = next(key for key in scheme_keys(("frequencies",)) if key not in own)
    cfg["frequencies"][foreign] = 5.0
    assert _run(tmp_path, cfg, "budget") == (2, False)
    assert capsys.readouterr().err.startswith(
        f"error: config invalid at frequencies/{foreign}: another scheme's key; "
    )


@pytest.mark.parametrize("scheme, lattice", RUNS, ids=RUN_IDS)
def test_model_the_run_does_not_read_refused(tmp_path, capsys, scheme, lattice):
    models = SCHEMES[scheme].models
    for key in [key for key in scheme_keys(("models",)) if not lattice or key not in models]:
        cfg = dict(scheme_cfg(scheme, lattice), **{key: {"c6_mhz_um6": 1.0e6}})
        assert _run(tmp_path, cfg, "budget") == (2, False), key
        reason = (f"another scheme's key; a {scheme} run reads {', '.join(models)} here"
                  if lattice else f"a {scheme} uniform run reads no interaction model")
        assert capsys.readouterr().err == f"error: config invalid at {key}: {reason}\n"


@pytest.mark.parametrize(
    "key, block, reason",
    [
        pytest.param("interaction", {},
                     "neither a fit block nor explicit coefficients; give exactly one",
                     id="neither"),
        pytest.param("interaction_ct",
                     {"c3_mhz_um3": 640.0, "fit": {"law": "c3", "b_mhz": 10.0, "r_um": 4.0}},
                     "both a fit block and explicit coefficients; give exactly one",
                     id="both"),
        pytest.param("interaction_cc",
                     {"c3_mhz_um3": 2800.0, "c6_mhz_um6": 50000.0, "crossover_um": 2.5},
                     "laws disagree by more than 1% at the crossover radius: ",
                     id="crossover-discontinuous"),
    ],
)
def test_interaction_block_refused_at_load(tmp_path, key, block, reason):
    # a block the run reads is built by the cross rules: its refusal names
    # its path, before any case is built
    scheme = "sequential" if key == "interaction" else "simultaneous"
    cfg = dict(scheme_cfg(scheme, lattice=True), **{key: block})
    with pytest.raises(ConfigError) as refusal:
        load_config(write_config(tmp_path, cfg), "budget")
    assert str(refusal.value).startswith(f"config invalid at {key}: {reason}")


def test_two_frequency_scheme_has_no_sweep(tmp_path, capsys):
    for scheme, row in SCHEMES.items():
        if len(row.frequencies) > 1:
            assert _run(tmp_path, scheme_cfg(scheme), "sweep-omega") == (2, False)
            assert "single-frequency" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["budget", "optimize", "sweep-omega", "lattice"])
def test_simulate_block_on_budget_scheme_refused(tmp_path, capsys, command):
    # the budget report used to be written, and the ideal-limit check then
    # looked for simulate cells in it; the lattice command returned early
    cfg = {"scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
           "uniform": {"b_mhz": 9.0, "tau_us": 540.0},
           "lattice": {"d_um": 2.0, "tau_us": 540.0},
           "sweep": {"omega_mhz": {"min": 0.5, "max": 50.0, "points": 5}},
           "simulate": {"omega_mhz": 1.0, "check_ideal": True}}
    if command != "lattice":
        del cfg["lattice"]
    assert _run(tmp_path, cfg, command) == (2, False)
    assert capsys.readouterr().err == (
        "error: config invalid at simulate: a simulate block goes only with scheme 'simulate'\n"
    )


@pytest.mark.parametrize("key, block", [
    ("omega10_mhz", 9200.0),
    ("frequencies", {"mode": "optimize"}),
    ("sweep", {"omega_mhz": {"min": 0.5, "max": 50.0, "points": 5}}),
    *((key, {"c6_mhz_um6": 100.0}) for key in scheme_keys(("models",))),
])
def test_budget_key_in_simulate_config_refused(tmp_path, capsys, key, block):
    # no simulate run reads these
    cfg = dict(_simulate_cfg("sequential"), **{key: block})
    assert _run(tmp_path, cfg, "simulate") == (2, False)
    assert capsys.readouterr().err == (
        f"error: config invalid at {key}: the simulate block carries all inputs\n"
    )


@pytest.mark.parametrize("sequence", list(SCHEMES))
def test_simulate_defaults_are_the_sequence_shifts(tmp_path, sequence):
    # the echo holds the shifts its sequence reads and no budget default
    cfg = load_config(write_config(tmp_path, _simulate_cfg(sequence)), "simulate")
    assert "frequencies" not in cfg
    sim, shifts = cfg["simulate"], SCHEMES[sequence].shifts
    assert [key for key in scheme_keys(("shifts",)) if key in sim] == list(shifts)
    assert [sim[key] for key in shifts] == ["inf", 0.0][: len(shifts)]
    # the default gate is the one the sequence performs at a perfect blockade
    assert sim["gate"] == ("grover" if sequence == "grover" else "cnot")
    assert max(row["avg_error"] for row in expand(cmd_simulate(cfg)["rows"])) < 1.0e-12


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(uniform_cfg(frequencies={"mode": "fixed", "omega_mhz": 1.0e160}),
                     id="fixed-omega-overflows"),
        pytest.param({"scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
                      "lattice": {"d_um": 1.0e120, "tau_us": 540.0},
                      "interaction": {"c6_mhz_um6": 100.0}}, id="lattice-c6-overflows"),
        pytest.param({"scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
                      "lattice": {"d_um": 1.0e-150, "tau_us": 540.0},
                      "interaction": {"c3_mhz_um3": 100.0}}, id="lattice-c3-underflows"),
    ],
)
def test_magnitude_out_of_float_range_exits_2(tmp_path, capsys, cfg):
    assert _run(tmp_path, cfg, "budget") == (2, False)
    captured = capsys.readouterr()
    assert captured.out == ""
    # the first row refuses, and names itself
    assert captured.err.startswith("error: budget row k=2 label ")
    assert ": a config value leaves the float range: " in captured.err
    assert captured.err.count("\n") == 1


def _preset_cfg(name, **overrides):
    with open(preset_path(name), encoding="utf-8") as handle:
        cfg = json.load(handle)
    cfg.pop("output")
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize(
    "case",
    ["sequential", "grover", "simultaneous", "sequential-lattice", "simultaneous-lattice"],
)
def test_budget_k_cap(tmp_path, capsys, case):
    if case == "sequential-lattice":
        cfg = _preset_cfg("sequential_lattice_crossover", k=65)
    elif case == "simultaneous-lattice":
        cfg = _preset_cfg("simultaneous_lattice_room_temp", k=65)
    elif case == "simultaneous":
        cfg = uniform_cfg(scheme=case, k=65, uniform=SIMULTANEOUS_UNIFORM)
    else:
        cfg = uniform_cfg(scheme=case, k=65)
    assert main(["optimize", "--config", write_config(tmp_path, cfg)]) == 2
    assert "k = 65 exceeds the supported maximum of 64" in capsys.readouterr().err


def _count_calls(monkeypatch, modules, names):
    """Wrap each of ``names`` found in ``modules`` to count its calls."""
    calls = Counter()

    def counted(fn_name, fn):
        def wrapper(*args):
            calls[fn_name] += 1
            return fn(*args)

        return wrapper

    for module in modules:
        for fn_name in names:
            if hasattr(module, fn_name):
                monkeypatch.setattr(module, fn_name, counted(fn_name, getattr(module, fn_name)))
    return calls


@pytest.mark.parametrize("command", ["lattice", "budget", "optimize"])
@pytest.mark.parametrize(
    "name", ["sequential_lattice_crossover", "simultaneous_lattice_room_temp"]
)
def test_lattice_k_cap_refused_before_layout(monkeypatch, tmp_path, capsys, command, name):
    # layouts and pair sets grow as k and k^2, so an oversized k is refused
    # from the config before any of them is built
    calls = _count_calls(monkeypatch, (cli, sequential, simultaneous),
                         ("build_layout", "pair_sets"))
    cfg = _preset_cfg(name, k=[3, 65])
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert "k = 65 exceeds the supported maximum of 64" in capsys.readouterr().err
    assert not calls


@pytest.mark.parametrize("scheme", ["sequential", "simultaneous"])
def test_lattice_builder_refuses_k_cap_before_pair_work(monkeypatch, scheme):
    # a library caller with an oversized geometry is refused before the
    # O(k^2) pair sets and pair shifts are computed
    calls = _count_calls(monkeypatch, (sequential, simultaneous), ("pair_sets", "pair_shift"))
    geom = rydgate.build_layout(1.0e-6, 1000)
    model = rydgate.InteractionModel(c3=1.0e-50)
    omega10 = angular_from_mhz(9200.0)
    with pytest.raises(ValueError, match="exceeds the supported maximum of 64"):
        if scheme == "sequential":
            sequential.budget_sequential_lattice(model, geom, 1.0e-4, omega10)
        else:
            simultaneous.budget_simultaneous_lattice(model, model, geom, 1.0e-4, 1.0e-4, omega10)
    assert not calls


def test_simulate_k_cap(tmp_path, capsys):
    cfg = {"scheme": "simulate", "k": 9, "simulate": {"omega_mhz": 1.0}}
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert "k <= 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme, command, mode",
    [
        pytest.param("sequential", "budget", "fixed", id="budget-fixed"),
        pytest.param("sequential", "budget", "optimize", id="budget-optimize"),
        pytest.param("sequential", "optimize", "fixed", id="optimize-fixed"),
        pytest.param("sequential", "optimize", "optimize", id="optimize-optimize"),
        pytest.param("sequential", "sweep-omega", "fixed", id="sweep-omega-fixed"),
        pytest.param("sequential", "sweep-omega", "optimize", id="sweep-omega-optimize"),
        pytest.param("grover", "optimize", "optimize", id="grover-optimize"),
    ],
)
def test_non_finite_budget_exits_2_with_lab_units(tmp_path, capsys, scheme, command, mode):
    # B equal to the qubit splitting puts the leakage detuned by
    # omega10 - B on resonance; the builder refuses it, so every command and
    # mode gives the same refusal at the row, in lab units
    frequencies = {"mode": mode}
    if mode == "fixed":
        frequencies["omega_mhz"] = 10.0
    cfg = uniform_cfg(
        scheme=scheme,
        k=[2, 8],
        uniform={"b_mhz": 9200.0, "tau_us": 540.0, "label": "b equals omega10"},
        frequencies=frequencies,
        sweep={"omega_mhz": {"min": 0.5, "max": 50.0, "points": 10}},
    )
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {command} row k=2 label 'b equals omega10': a blockade shift meets "
        "omega10_mhz = 9200.0 MHz, so the leakage term detuned by omega10 - B diverges\n")
    assert "np.float64" not in captured.err
    assert "62831" not in captured.err  # the bracket's 2 pi x 10 kHz in rad/s
    with pytest.raises(ValueError):
        render_json({"total": math.inf})


@pytest.mark.parametrize(
    "lattice, frequencies, expected",
    [
        pytest.param(False, {"mode": "optimize"}, [], id="optimize-reports-inside-regime"),
        pytest.param(
            False, {"mode": "fixed", "omega_c_mhz": 1.0, "omega_t_mhz": 4.5}, [4],
            id="fixed-omega_c-below-d_cc",
        ),
        # the largest control-control pair shift of the room-temperature
        # lattice grows from 0.28 MHz at k = 3 to 2.25 MHz from k = 8 on
        pytest.param(
            True, {"mode": "fixed", "omega_c_mhz": 1.0, "omega_t_mhz": 1.6}, [8, 15, 24, 35],
            id="lattice-fixed-omega_c-below-largest-d_cc",
        ),
    ],
)
def test_regime_warning_only_for_reported_frequencies(tmp_path, lattice, frequencies, expected):
    # only a reported row outside the regime warns, in lab units, and the
    # warning names a real source line
    if lattice:
        cfg = _preset_cfg("simultaneous_lattice_room_temp", frequencies=frequencies)
    else:
        cfg = {
            "scheme": "simultaneous",
            "k": 4,
            "omega10_mhz": 9200.0,
            "uniform": SIMULTANEOUS_UNIFORM,
            "frequencies": frequencies,
        }
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["budget", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    regime = [w for w in caught if issubclass(w.category, BlockadeRegimeWarning)]
    assert len(regime) == len(expected)
    for w, k in zip(regime, expected):
        assert w.filename != "<string>" and os.path.isfile(w.filename), w.filename
        message = str(w.message)
        assert message.startswith(f"budget row k={k} label ")
        assert "d_cc_mhz = " in message and "omega_c_mhz = 1 MHz" in message
    row = json.loads(out.read_text(encoding="utf-8"))["rows"][0]
    if frequencies["mode"] == "optimize":
        assert row["omega_c_mhz"] == pytest.approx(151.7, rel=1e-3, abs=0.0)


@pytest.mark.parametrize(
    "name", ["sequential_lattice_crossover", "simultaneous_lattice_room_temp"]
)
def test_lattice_case_shifts_pairs_once(monkeypatch, name):
    # a batch computes its pair shifts when it is built, one per distinct
    # separation of each layout and model, grouped by squared separation
    # rather than read from ``pair_sets``; budget evaluations and the whole
    # optimizer run never go back to the geometry
    calls = _count_calls(monkeypatch, (cli, lattice, sequential, simultaneous),
                         ("pair_sets", "pair_shift"))
    cfg = load_config(preset_path(name), "budget")
    distinct = 0
    for k in cfg["k"]:
        ps = pair_sets(build_layout(meters_from_um(cfg["lattice"]["d_um"]), k))
        control_control = [sep for _, _, sep in ps.control_control_ordered]
        if name.startswith("sequential"):  # one law for every pair
            distinct += len({*ps.control_target, *control_control})
        else:  # one law per pair kind
            distinct += len(set(ps.control_target)) + len(set(control_control))
    calls.clear()
    batch = cli._Batch(cfg, None, cfg["k"])
    batch.laurent.at(*[angular_from_mhz(10.0)] * batch.laurent.dims)
    after_one = dict(calls)
    assert after_one == {"pair_shift": distinct}
    assert distinct < sum(k + k * (k - 1) // 2 for k in cfg["k"])
    batch.optimize("optimize")
    assert dict(calls) == after_one


def test_uniform_entry_is_one_batch(monkeypatch):
    # the 50 k of one uniform entry make one budget and one optimizer call
    # over its 50 cases
    calls = Counter()
    builder = cli._UNIFORM_BUILDERS["sequential"]
    optimizer = cli.minimize_errors

    def build(*args):
        calls["builder"] += 1
        return builder(*args)

    def minimize(budget):
        calls["minimize_errors"] += 1
        assert budget.cases == (50,)
        return optimizer(budget)

    monkeypatch.setitem(cli._UNIFORM_BUILDERS, "sequential", build)
    monkeypatch.setattr(cli, "minimize_errors", minimize)
    cfg = load_config(preset_path("sequential_uniform"), "budget")
    report = cmd_budget(dict(cfg, uniform=cfg["uniform"][:1]))
    assert calls == {"builder": 1, "minimize_errors": 1}
    assert report["rows"][0]["k"] == list(range(1, 51))


@pytest.mark.parametrize("command, cfg, refusal", [
    # the k = 64 row's se_c_2 cell passes the float range, the k = 2 row's
    # cells do not
    pytest.param("budget", {
        "scheme": "sequential", "k": [2, 64], "omega10_mhz": 9200.0,
        "uniform": {"b_mhz": 2e-156, "tau_us": 540.0},
        "frequencies": {"mode": "fixed", "omega_mhz": 0.01}},
        "error: budget row k=64 label '': a config value leaves the float range: "
        "finite coefficients overflow at these frequencies\n", id="overflow"),
    # omega10^2 past the float range leaves k = 1 no term that grows with
    # omega; k = 2 keeps its control-pair rotation term
    pytest.param("optimize", {
        "scheme": "grover", "k": [2, 1], "omega10_mhz": 9.2e153,
        "uniform": {"b_mhz": 9.0, "tau_us": 540.0}},
        "error: optimize row k=1 label '': the total error has no interior minimum for "
        "coefficients {-2: 0.0, -1: 2908.882086657216, 1: 0.0, 2: 0.0}\n", id="no-minimum"),
])
def test_later_row_refused_by_name(tmp_path, capsys, command, cfg, refusal):
    # the batch of every k raises; the rows run again one k at a time, and
    # the refusal names the later k, as a run of that k alone does
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == refusal


def test_lattice_warnings_in_row_order(tmp_path):
    # each row of a batch warns of its clamped optimum, then of its
    # control-control shift above omega_c, before the next row does
    cfg = _preset_cfg("simultaneous_lattice_room_temp", k=[3, 8, 15],
                      interaction_cc={"c6_mhz_um6": 9.2e9}, frequencies={"mode": "optimize"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["budget", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out.json")]) == 0
    seen = [(w.category, str(w.message).split(":")[0]) for w in caught]
    assert seen == [(category, f"budget row k={k} label ''") for k in (3, 8, 15)
                    for category in (OptimizerEdgeWarning, BlockadeRegimeWarning)]


@pytest.mark.parametrize(
    "command, overrides, refusal",
    [
        pytest.param("budget", {"k": 2.0}, "k: 2.0 is not", id="k"),
        pytest.param("budget", {"k": [2.0, 3]}, "k/0: 2.0 is not", id="k-list"),
        pytest.param(
            "sweep-omega",
            {"sweep": {"omega_mhz": {"min": 1.0, "max": 2.0, "points": 5.0}}},
            "sweep/omega_mhz/points: 5.0 is not",
            id="points",
        ),
    ],
)
def test_integral_float_on_integer_field_exits_2(tmp_path, capsys, command, overrides, refusal):
    # a float count passed the schema once and then crashed a builder with
    # a traceback; it is now refused at its field like any other bad value
    assert main([command, "--config", write_config(tmp_path, uniform_cfg(**overrides))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config invalid at {refusal}" in captured.err


def test_schema_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="scheme"):
        validate_config({"k": 1})
    with pytest.raises(ConfigError):
        validate_config({"scheme": "sequential", "k": 1, "bogus": True})


# ---------------------------------------------------------------- reports

def test_budget_report_validates_and_is_deterministic(tmp_path):
    cfg = load_config(write_config(tmp_path, uniform_cfg()), "budget")
    first = render_json(cmd_budget(cfg))
    second = render_json(cmd_budget(load_config(write_config(tmp_path, uniform_cfg()), "budget")))
    assert first == second
    report = json.loads(first)
    validate_report(in_blocks(report))
    assert report["schema"] == "rydgate-report/1"
    assert report["columns"] == list(BUDGET_COLUMNS["sequential"])
    for row in report["rows"]:
        assert set(row) <= set(report["columns"])


def test_csv_has_fixed_header_and_plain_decimals(tmp_path):
    cfg = load_config(write_config(tmp_path, uniform_cfg()), "budget")
    text = render_csv(cmd_budget(cfg))
    lines = text.splitlines()
    assert lines[0] == ",".join(BUDGET_COLUMNS["sequential"])
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 1 + 2  # header + one row per k
    for row in parsed[1:]:
        for column, cell in zip(parsed[0], row):
            if column in ("scheme", "mode", "label", "opt_converged"):
                continue
            if cell:
                float(cell)  # '.' decimal, no locale formatting


def test_csv_cells_are_pinned():
    # README "Reports": floats use repr, booleans are true/false, missing
    # cells are empty; the int 1 stays 1, and a label holding a comma and a
    # quote is quoted
    report = {"columns": ["label", "small", "tiny", "k", "yes", "no", "none", "missing"],
              "rows": [{"label": ['Cs, "100s"'], "small": [0.1], "tiny": [1e-300], "k": [1],
                        "yes": [True], "no": [False], "none": [None]}]}
    assert render_csv(report) == ('label,small,tiny,k,yes,no,none,missing\n'
                                  '"Cs, ""100s""",0.1,1e-300,1,true,false,,\n')


def test_main_writes_output_file(tmp_path):
    cfg = uniform_cfg(output={"format": "json"})
    out = tmp_path / "report.json"
    code = main(
        ["budget", "--config", write_config(tmp_path, cfg), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    validate_report(in_blocks(report))
    ks = [row["k"] for row in report["rows"]]
    assert ks == [2, 5]


def test_config_output_path_used_when_flag_absent(tmp_path):
    out = tmp_path / "from_config.csv"
    cfg = uniform_cfg(output={"format": "csv", "path": str(out)})
    assert main(["budget", "--config", write_config(tmp_path, cfg)]) == 0
    assert out.read_text(encoding="utf-8").startswith("scheme,")


def test_repeated_main_calls_stay_independent(tmp_path, capsys):
    # main reuses one argument parser per process: a good run after an
    # argparse refusal and a refused config writes what a run of its own
    # in a new interpreter writes, although the first good run asked for
    # another format
    config = write_config(tmp_path, uniform_cfg())
    argv = ["budget", "--config", config, "--out", str(tmp_path / "later.json")]
    proc = _python("import sys\nfrom rydgate.cli import main\nsys.exit(main(sys.argv[1:]))",
                   *argv[:-1], str(tmp_path / "alone.json"))
    assert proc.returncode == 0, proc.stderr
    assert main(["budget", "--config", config, "--format", "csv",
                 "--out", str(tmp_path / "first.csv")]) == 0
    with pytest.raises(SystemExit) as refusal:
        main(["budget", "--config", config, "--format", "xml"])
    assert refusal.value.code == 2
    refused = write_config(tmp_path, uniform_cfg(k="2"), "refused.json")
    assert main(["budget", "--config", refused, "--out", str(tmp_path / "refused.out")]) == 2
    assert not (tmp_path / "refused.out").exists()
    assert main(argv) == 0
    alone = (tmp_path / "alone.json").read_bytes()
    assert (tmp_path / "later.json").read_bytes() == alone
    assert alone.startswith(b"{")
    err = capsys.readouterr().err
    assert "invalid choice: 'xml'" in err and "error: config invalid" in err


@pytest.mark.parametrize(
    "where, name, reason",
    [
        ("flag", "missing/report.json", "No such file or directory"),
        ("config", "missing/report.json", "No such file or directory"),
        ("flag", ".", "Is a directory"),
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, where, name, reason):
    # this used to end in a traceback and exit 1
    out = tmp_path / name
    cfg = uniform_cfg(output={"path": str(out)}) if where == "config" else uniform_cfg()
    argv = ["budget", "--config", write_config(tmp_path, cfg)]
    argv += ["--out", str(out)] if where == "flag" else []
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write report to {out}: {reason}\n"
    assert not (tmp_path / "missing").exists()


# ------------------------------------------------------------------ sweep

def sweep_cfg():
    return {
        "scheme": "sequential",
        "k": 24,
        "omega10_mhz": 9200.0,
        "uniform": {"b_mhz": 52.0, "tau_us": 820.0, "label": "Cs 150s"},
        "sweep": {"omega_mhz": {"min": 0.4, "max": 4.0, "points": 41}},
    }


def test_sweep_minimum_close_to_numeric_minimum(tmp_path):
    report = cmd_sweep_omega(load_config(write_config(tmp_path, sweep_cfg()), "sweep-omega"))
    assert report["columns"] == list(SWEEP_COLUMNS["sequential"])
    rows = expand(report["rows"])
    grid = [row for row in rows if row["row_type"] == "grid"]
    numeric = [row for row in rows if row["row_type"] == "numeric_opt"]
    analytic = [row for row in rows if row["row_type"] == "analytic_opt"]
    assert len(numeric) == 1 and len(analytic) == 1
    swept_best = min(row["total"] for row in grid)
    assert numeric[0]["total"] <= swept_best
    assert swept_best <= 1.10 * numeric[0]["total"]


def test_sweep_row_cap(monkeypatch, tmp_path, capsys):
    # grid points x k values x uniform entries may reach 100 000; one more
    # row is refused before any budget is built
    entries = [{"b_mhz": 9.0, "tau_us": 540.0}, {"b_mhz": 52.0, "tau_us": 820.0}]
    grid = {"min": 0.4, "max": 4.0, "points": 25_000}
    cfg = dict(sweep_cfg(), k=[2, 8], uniform=entries, sweep={"omega_mhz": grid})
    load_config(write_config(tmp_path, cfg), "sweep-omega")
    grid["points"] += 1
    monkeypatch.setattr(cli, "_Batch", lambda *args: pytest.fail("a sweep batch was built"))
    assert _run(tmp_path, cfg, "sweep-omega") == (2, False)
    assert capsys.readouterr().err == (
        "error: config invalid: sweep-omega would build 100004 grid rows "
        "(sweep/omega_mhz/points x k values x uniform entries), above the cap of 100000\n"
    )


def test_sweep_single_interior_minimum(tmp_path):
    report = cmd_sweep_omega(load_config(write_config(tmp_path, sweep_cfg()), "sweep-omega"))
    totals = [row["total"] for row in expand(report["rows"]) if row["row_type"] == "grid"]
    drops = [b < a for a, b in zip(totals, totals[1:])]
    # strictly decreasing then strictly increasing: exactly one run flip
    assert drops[0] and not drops[-1]
    flips = sum(1 for a, b in zip(drops, drops[1:]) if a != b)
    assert flips == 1


# --------------------------------------------------------------- simulate

def test_simulate_ideal_cnot(tmp_path, capsys):
    cfg = {
        "scheme": "simulate",
        "k": 1,
        "simulate": {"omega_mhz": 1.0, "check_ideal": True},
        "output": {"format": "json"},
    }
    code = main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    validate_report(in_blocks(report))
    by_input = {row["input_index"]: row for row in report["rows"]}
    assert by_input[2]["ideal_index"] == 3
    assert by_input[3]["ideal_index"] == 2
    assert all(row["prob_ideal"] == pytest.approx(1.0, abs=1e-12) for row in report["rows"])


def test_simulate_finite_blockade_fails_ideal_check(tmp_path, capsys):
    cfg = {
        "scheme": "simulate",
        "k": 2,
        "simulate": {"omega_mhz": 1.0, "b_mhz": 10.0, "check_ideal": True},
    }
    code = main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert code == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    # input 0 of k = 2 loses the most population to the finite blockade
    worst = max(report["rows"], key=lambda row: row["error"])
    assert worst["input_index"] == 0
    assert captured.err == (
        f"ideal-limit check failed at k=2, tolerance 1e-06: worst input 0 population error "
        f"{worst['error']:.3g} (over), phase-sensitive avg_error {worst['avg_error']:.3g} (over)\n")
    assert report["rows"][0]["avg_error"] > 0.0


def test_simulate_wrong_phase_fails_ideal_check(tmp_path, capsys):
    # the grover sequence maps every input to itself but flips phases, so
    # each input's population is ideal under the identity gate while the
    # phase-sensitive average gate error is 2/3 at k = 2
    cfg = {
        "scheme": "simulate",
        "k": 2,
        "simulate": {"sequence": "grover", "gate": "identity", "omega_mhz": 1.0,
                     "check_ideal": True},
    }
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    assert max(row["error"] for row in rows) < 1e-6
    assert rows[0]["avg_error"] == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert not any(row["ideal_check_passed"] for row in rows)
    assert "ideal-limit check failed at k=2" in captured.err
    assert "(within), phase-sensitive avg_error 0.667 (over)" in captured.err


def test_simulate_report_without_check_exits_zero(tmp_path):
    cfg = {
        "scheme": "simulate",
        "k": 2,
        "simulate": {"omega_mhz": 1.0, "b_mhz": 10.0},
    }
    path = write_config(tmp_path, cfg)
    rows = expand(cmd_simulate(load_config(path, "simulate"))["rows"])
    assert not any(row["ideal_check_passed"] for row in rows)
    assert rows[0]["avg_error"] > 0.0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out.json")]) == 0


# ------------------------------------------------- a runtime-only install

# the environment variables that set OpenBLAS's thread count
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _python(script, *args, flags=(), blas_threads=None):
    """Run ``script`` with ``args`` in a new interpreter, started with the
    command-line ``flags``, that imports the rydgate under test.  With
    ``blas_threads``, a dict, the interpreter's _BLAS_THREADS variables are
    exactly those it sets."""
    path = [os.path.dirname(os.path.dirname(rydgate.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    if blas_threads is not None:
        env = {key: value for key, value in env.items() if key not in _BLAS_THREADS}
        env.update(blas_threads)
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)


# runs each (argv, warning categories raised as errors) of its argument and
# prints, per run, the exit code (None where an exception escaped), the
# run's stderr and its wall time in seconds, then whether numpy.ma was ever
# imported and the process's thread count (None without /proc).  Any import
# outside the standard library, numpy and rydgate fails.  The first run goes
# through ``python -m rydgate.cli``'s ``__main__`` guard; the others call
# ``main``, which is imported under the interpreter's own -W
# error::UserWarning, so a UserWarning raised while rydgate.cli is imported
# fails the table.  Each run sets its own filters:
# UserWarning back to "default", then its ``errors``.
_CONTRACT = """
import builtins, contextlib, io, json, os, runpy, sys, time, traceback, warnings

class RuntimeOnly:
    allowed = sys.stdlib_module_names | {"numpy", "rydgate"}

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name.partition(".")[0] not in cls.allowed:
            raise ModuleNotFoundError(f"{name} is not in a runtime-only install", name=name)
        return None

sys.meta_path.insert(0, RuntimeOnly)

def module_main(argv):
    sys.argv[1:] = argv
    try:
        runpy.run_module("rydgate.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code

def run(entry, argv, errors):
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default", UserWarning)
        for name in errors:
            warnings.simplefilter("error", getattr(builtins, name))
        start = time.perf_counter()
        try:
            code = entry(argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return [code, stderr.getvalue(), seconds]

first, *rest = json.loads(sys.argv[1])
runs = [run(module_main, *first)]
from rydgate.cli import main
runs += [run(main, *argv_errors) for argv_errors in rest]
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"runs": runs, "numpy.ma": "numpy.ma" in sys.modules, "threads": threads}))
"""


class _Run(NamedTuple):
    """One CLI run of the contract table: ``command --config <config> --out
    <out>``, where ``config`` is a preset name, a config object, or the
    JSON text of a config."""

    name: str  # the config's file name; the report's too, unless ``out`` is set
    command: str
    config: str | dict
    code: int = 0
    stderr: tuple[str, ...] = ()  # fragments the run's stderr holds
    absent: tuple[str, ...] = ()  # fragments it must not hold
    report: bool = True  # whether the report file is written
    errors: tuple[str, ...] = ("UserWarning",)  # warning categories raised as errors
    out: str = ""
    limit_s: float | None = None  # a bound on the run's wall time


def _refused(name, command, config, *stderr, absent=(), out=""):
    """A run refused with exit 2: one ``error:`` line and no report."""
    return _Run(name, command, config, 2, stderr, absent, report=False, out=out)


_SEQUENTIAL_K2 = {"scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
                  "uniform": {"b_mhz": 9.0, "tau_us": 540.0}}
_CROSSOVER_LATTICE = {"lattice": {"d_um": 1.0, "tau_us": 170.0},
                      "interaction": {"c3_mhz_um3": 2800.0, "c6_mhz_um6": 43750.0,
                                      "crossover_um": 2.5}}


def _simultaneous_uniform(b_ct_mhz: float) -> dict:
    """A uniform collective-gate budget at fixed frequencies over k = 1, 8, 64."""
    return {"scheme": "simultaneous", "k": [1, 8, 64], "omega10_mhz": 9200.0,
            "uniform": {"b_ct_mhz": b_ct_mhz, "d_cc_mhz": 2.0, "tau_c_us": 148.0,
                        "tau_t_us": 97.0},
            "frequencies": {"mode": "fixed", "omega_c_mhz": 100.0, "omega_t_mhz": 1.0}}


_BRACKET_SWEEP = {"omega_mhz": {"min": 0.01, "max": 10000.0, "points": 500}}
_FLOAT_RANGE = ": a config value leaves the float range: "
# text of a refusal that blames another cause than the float range
_MISBLAMED = ("label None", "omega10", "RuntimeWarning")

# every shipped preset under budget and optimize comes first, and the very
# first run goes through python -m rydgate.cli
CONTRACT_RUNS = [
    *(_Run(f"{command}.{name}", command, name)
      for name in PRESETS for command in ("budget", "optimize")),
    _Run("lattice.sequential", "lattice", "sequential_lattice_crossover"),
    _Run("lattice.simultaneous", "lattice", "simultaneous_lattice_room_temp"),
    _Run("sweep", "sweep-omega", sweep_cfg()),
    *(_Run(f"simulate.{sequence}", "simulate",
           {"scheme": "simulate", "k": 2, "simulate": {"sequence": sequence, **extra}})
      for sequence, extra in [
          ("sequential", {"omega_mhz": 1.0, "b_mhz": 10.0, "decay_mhz": 0.01}),
          ("grover", {"gate": "grover", "omega_mhz": 1.0, "b_mhz": 10.0}),
          ("simultaneous", {"omega_c_mhz": 50.0, "omega_t_mhz": 2.0,
                            "b_ct_mhz": 300.0, "d_cc_mhz": 1.0, "decay_mhz": 0.01}),
      ]),
    _Run("simulate.k123", "simulate", {"scheme": "simulate", "k": [1, 2, 3], "simulate": {
        "omega_mhz": 1.0, "b_mhz": 20.0, "decay_mhz": 0.01}}),
    # lossy truth tables at the largest k simulate accepts, each well inside
    # the time limit: the sequential one over the reachable basis, the
    # simultaneous one, with a control-control shift, in the class basis
    _Run("simulate.cap.sequential", "simulate", {
        "scheme": "simulate", "k": _MAX_K_TABLE,
        "simulate": {"omega_mhz": 1.0, "b_mhz": 50.0, "decay_mhz": 3.0e-4}}, limit_s=30.0),
    _Run("simulate.cap.simultaneous", "simulate", {
        "scheme": "simulate", "k": _MAX_K_TABLE,
        "simulate": {"sequence": "simultaneous", "omega_c_mhz": 5.0, "omega_t_mhz": 1.0,
                     "b_ct_mhz": 50.0, "d_cc_mhz": 0.1, "decay_mhz": 3.0e-4}}, limit_s=30.0),
    # each sweep grid is one array evaluation of the budget over the whole
    # optimizer bracket up to k = 64: an overflow, which the grid raises, or
    # a divide warning from numpy fails, and so does an optimum clamped to
    # the bracket edge
    _Run("sweep.uniform", "sweep-omega",
         dict(_SEQUENTIAL_K2, k=[1, 2, 8, 33, 64], sweep=_BRACKET_SWEEP,
              uniform=[{"b_mhz": 9.0, "tau_us": 540.0}, {"b_mhz": 52.0, "tau_us": 820.0}]),
         errors=("UserWarning", "RuntimeWarning")),
    _Run("sweep.lattice", "sweep-omega",
         dict(_CROSSOVER_LATTICE, scheme="sequential", k=[1, 8, 35, 64], omega10_mhz=9200.0,
              sweep=_BRACKET_SWEEP),
         errors=("UserWarning", "RuntimeWarning")),
    # a grid of exactly the advertised cap, 5 000 points x 20 k x 1 entry
    _Run("sweep.cap", "sweep-omega",
         dict(_SEQUENTIAL_K2, k=list(range(1, 21)), sweep={"omega_mhz": dict(
             _BRACKET_SWEEP["omega_mhz"], points=cli._MAX_SWEEP_ROWS // 20)}),
         limit_s=30.0),
    # omega_c below d_cc lies outside the perturbative regime: the run
    # still writes its report, and warns in lab units
    _Run("regime", "budget", {"scheme": "simultaneous", "k": [2, 4], "omega10_mhz": 9200.0,
                              "uniform": SIMULTANEOUS_UNIFORM, "frequencies": {
                                  "mode": "fixed", "omega_c_mhz": 1.0, "omega_t_mhz": 4.5}},
         stderr=("BlockadeRegimeWarning", "MHz"), errors=()),
    # a failed ideal-limit check writes its report, then exits 1
    _Run("ideal.finite", "simulate", {"scheme": "simulate", "k": [1, 2], "simulate": {
        "omega_mhz": 1.0, "b_mhz": 10.0, "check_ideal": True}},
         code=1, stderr=("ideal-limit check failed",)),
    _Run("ideal.infinite", "simulate", {"scheme": "simulate", "k": [1, 2], "simulate": {
        "omega_mhz": 1.0, "b_mhz": "inf", "check_ideal": True}}),
    # the grover sequence keeps each input's population but flips phases
    _Run("ideal.phase", "simulate", {"scheme": "simulate", "k": 2, "simulate": {
        "sequence": "grover", "gate": "identity", "omega_mhz": 1.0, "check_ideal": True}},
         code=1, stderr=("phase",)),
    # about 5e9 pair shifts, refused from the config before any layout
    _refused("k_cap", "budget", dict(_CROSSOVER_LATTICE, scheme="sequential", k=100000,
                                     omega10_mhz=9200.0),
             "exceeds the supported maximum of 64"),
    _refused("stray_simulate", "budget",
             dict(_SEQUENTIAL_K2, simulate={"omega_mhz": 1.0, "check_ideal": True})),
    # a value past the float range is refused at the row or the block that
    # meets it; its one line is that refusal, not a blockade shift meeting
    # omega10
    _refused("omega_overflow", "budget",
             dict(_SEQUENTIAL_K2, frequencies={"mode": "fixed", "omega_mhz": 1e160}),
             "error: budget row k=2 label ''" + _FLOAT_RANGE),
    _refused("lattice_overflow", "budget", {
        "scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1e120, "tau_us": 540.0}, "interaction": {"c6_mhz_um6": 100.0}},
             "error: budget row k=2 label ''" + _FLOAT_RANGE),
    _refused("sweep_overflow", "sweep-omega", dict(_SEQUENTIAL_K2, sweep={
        "omega_mhz": {"min": 0.01, "max": 1e160, "points": 50}}),
             "error: sweep-omega row k=2 label ''" + _FLOAT_RANGE),
    # a log grid whose max/min ratio is inf is refused at the grid, in MHz,
    # not at the first row that meets an infinite point
    _refused("sweep_log_overflow", "sweep-omega", dict(_SEQUENTIAL_K2, sweep={
        "omega_mhz": {"min": 1e-322, "max": 1000.0, "points": 50}}),
             "error: config invalid at sweep/omega_mhz" + _FLOAT_RANGE, "1e-322 to 1000.0 MHz",
             absent=(*_MISBLAMED, "row k=")),
    _refused("fit_overflow", "budget", {
        "scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1.0, "tau_us": 540.0},
        "interaction": {"fit": {"law": "c6", "b_mhz": 1e300, "r_um": 1e100}}},
             "error: config invalid at interaction/fit" + _FLOAT_RANGE),
    # a frequency that becomes infinite in SI units, a fitted coefficient
    # and a lattice pair shift that become 0, each refused where it is formed
    _refused("omega10_overflow", "budget", dict(_SEQUENTIAL_K2, omega10_mhz=1e303),
             "error: budget row k=2 label ''" + _FLOAT_RANGE, "1e+303 MHz is inf",
             absent=_MISBLAMED),
    _refused("fit_underflow", "budget", {
        "scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1.0, "tau_us": 540.0},
        "interaction": {"fit": {"law": "c6", "b_mhz": 1e-320, "r_um": 1.0}}},
             "error: config invalid at interaction/fit" + _FLOAT_RANGE, "c6 = b r^6 is 0.0",
             absent=_MISBLAMED),
    _refused("pair_shift_underflow", "budget", {
        "scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1e20, "tau_us": 540.0}, "interaction": {"c6_mhz_um6": 1e-250}},
             "error: budget row k=2 label ''" + _FLOAT_RANGE,
             "the blockade shift at 1e+20 um is 0.0 MHz", absent=_MISBLAMED),
    # omega10^2 past the float range leaves a k = 1 Grover budget no term
    # that grows with omega: the optimizer's refusal names its row
    _refused("no_interior_minimum", "optimize", {
        "scheme": "grover", "k": 1, "omega10_mhz": 9.2e153,
        "uniform": {"b_mhz": 9.0, "tau_us": 540.0}},
             "error: optimize row k=1 label '': the total error has no interior minimum"),
    # a truth table, a budget cell of finite coefficients, and a number as
    # written in the file, each past the float range
    _refused("simulate_overflow", "simulate", {"scheme": "simulate", "k": 2, "simulate": {
        "omega_mhz": 1.0, "b_mhz": 10.0, "decay_mhz": 1e300}},
             "error: simulate row k=2" + _FLOAT_RANGE, absent=_MISBLAMED),
    _refused("simulate_overflow_simultaneous", "simulate", {
        "scheme": "simulate", "k": 2, "simulate": {
            "sequence": "simultaneous", "omega_c_mhz": 5.0, "omega_t_mhz": 1.0,
            "decay_mhz": 1e300}},
             "error: simulate row k=2" + _FLOAT_RANGE, absent=_MISBLAMED),
    # a rate that is infinite in SI units is refused before any table
    _refused("simulate_unit_overflow", "simulate", {"scheme": "simulate", "k": 2, "simulate": {
        "omega_mhz": 1.0, "b_mhz": 10.0, "decay_mhz": 1e307}},
             "error: config invalid at simulate" + _FLOAT_RANGE, "1e+307 MHz is inf",
             absent=_MISBLAMED),
    _refused("cell_overflow", "budget",
             dict(_SEQUENTIAL_K2, uniform={"b_mhz": 1e-150, "tau_us": 540.0},
                  frequencies={"mode": "fixed", "omega_mhz": 1e10}),
             "error: budget row k=2 label ''" + _FLOAT_RANGE, absent=_MISBLAMED),
    _refused("parse_overflow", "budget",
             json.dumps(dict(_SEQUENTIAL_K2, uniform={"b_mhz": 1e300, "tau_us": 540.0}))
             .replace("1e+300", "1e400"),
             "config parse error in", "1e400", "write a finite number", absent=_MISBLAMED),
    # an integer literal past the float range, refused as 1e400 is, with
    # its first 20 characters and its length
    _refused("parse_int_overflow", "budget",
             json.dumps(dict(_SEQUENTIAL_K2, uniform={"b_mhz": 1, "tau_us": 540.0}))
             .replace('"b_mhz": 1,', f'"b_mhz": 1{"0" * 400},'),
             "config parse error in", f"1{'0' * 19}... (401 characters) leaves the float range",
             "write a finite number", absent=(*_MISBLAMED, "0" * 21)),
    # a simulate run reads its simulate block alone
    _refused("simulate_omega10", "simulate", {"scheme": "simulate", "k": 2, "omega10_mhz": 9200.0,
                                              "simulate": {"omega_mhz": 1.0}},
             "error: config invalid at omega10_mhz: "),
    # a budget whose coefficients overflow, and a report cell past the float
    # range, are refused as such, not as a blockade shift meeting omega10
    _refused("coefficient_overflow", "optimize",
             dict(_SEQUENTIAL_K2, k=64, uniform={"b_mhz": 1e-160, "tau_us": 540.0}),
             "error: optimize row k=64 label ''" + _FLOAT_RANGE, absent=_MISBLAMED),
    _refused("lattice_cell_overflow", "lattice",
             {"scheme": "sequential", "k": 9, "lattice": {"d_um": 1e308}},
             "error: lattice row k=9" + _FLOAT_RANGE, absent=_MISBLAMED),
    # a positive value that becomes 0 in SI units is refused at its row or
    # block, in lab units
    _refused("tau_underflow", "budget",
             dict(_SEQUENTIAL_K2, uniform={"b_mhz": 9.0, "tau_us": 1e-320}),
             "error: budget row k=2 label ''" + _FLOAT_RANGE, "1e-320 us", absent=_MISBLAMED),
    _refused("d_underflow", "budget", dict(_CROSSOVER_LATTICE, scheme="sequential", k=2,
                                           omega10_mhz=9200.0, lattice={"d_um": 1e-320,
                                                                        "tau_us": 540.0}),
             "error: budget row k=2 label ''" + _FLOAT_RANGE, "1e-320 um", absent=_MISBLAMED),
    _refused("lattice_d_underflow", "lattice",
             {"scheme": "sequential", "k": 2, "lattice": {"d_um": 1e-320}},
             "error: lattice row k=2" + _FLOAT_RANGE, "1e-320 um", absent=_MISBLAMED),
    _refused("c6_underflow", "budget", {
        "scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1.0, "tau_us": 540.0}, "interaction": {"c6_mhz_um6": 1e-300}},
             "error: config invalid at interaction" + _FLOAT_RANGE, "1e-300 MHz um^6",
             absent=_MISBLAMED),
    # a c3 whose SI value, 6.3e290, is finite: its conversion never passes
    # through inf, and the shifts it gives at a 1e50 um spacing are finite
    _Run("c3_large", "budget", {
        "scheme": "sequential", "k": [2, 8], "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1e50, "tau_us": 540.0}, "interaction": {"c3_mhz_um3": 1e302}},
         absent=("MHz um^3 is inf",)),
    # at a 1000 um spacing that c3 gives b tau near 3e296, whose 4/3 power is
    # past the float range; e_opt_analytic squares k / (b tau)^(2/3) instead
    _Run("c3_large_e_opt", "budget", {
        "scheme": "sequential", "k": [2, 8], "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1000.0, "tau_us": 540.0}, "interaction": {"c3_mhz_um3": 1e302}}),
    # a shift whose square is subnormal: 1/B^2 is inf, and the sums over the
    # separations without pairs of a kind stay 0, not 0 * inf
    _refused("c3_tiny", "budget", dict(_CROSSOVER_LATTICE, scheme="sequential", k=2,
                                       omega10_mhz=9200.0, interaction={"c3_mhz_um3": 1e-166},
                                       frequencies={"mode": "fixed", "omega_mhz": 1.0}),
             "error: budget row k=2 label ''" + _FLOAT_RANGE,
             "the coefficients of se_c_2 are (0.0, inf, 0.0)", absent=("nan",)),
    # a control-control shift whose square overflows: refused by name, with
    # no numpy float warning on the way and no inf - inf in the moment
    _refused("d_cc_overflow", "budget", {
        "scheme": "simultaneous", "k": 3, "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1.0, "tau_c_us": 148.0, "tau_t_us": 97.0},
        "interaction_ct": {"c3_mhz_um3": 640.0}, "interaction_cc": {"c3_mhz_um3": 1e200}},
             "error: budget row k=3 label ''" + _FLOAT_RANGE,
             "the coefficients of r_c_1 are (0.0, inf, 0.0, 0.0, 0.0)",
             absent=("RuntimeWarning", "nan")),
    # a control-target shift whose square is past the float range gives a
    # finite 1/X^2, and one whose inverse square is past it is refused by the
    # coefficient that holds it
    _Run("b_ct_large", "budget", _simultaneous_uniform(1e150)),
    _refused("b_ct_tiny", "budget", _simultaneous_uniform(1e-170),
             "error: budget row k=1 label ''" + _FLOAT_RANGE,
             "the coefficients of r_t are (0.0, 0.0, 0.0, 0.0, inf)", absent=("nan",)),
    _refused("simulate_frequencies", "simulate", {
        "scheme": "simulate", "k": 2, "frequencies": {"mode": "fixed", "omega_mhz": 3.0},
        "simulate": {"omega_mhz": 1.0}}, "error: config invalid at frequencies: "),
    _refused("foreign_simulate", "simulate", {"scheme": "simulate", "k": 2, "simulate": {
        "sequence": "simultaneous", "omega_c_mhz": 10.0, "omega_t_mhz": 1.0, "b_mhz": 20.0}}),
    _refused("foreign_frequency", "budget", dict(_SEQUENTIAL_K2, frequencies={
        "mode": "fixed", "omega_mhz": 1.0, "omega_c_mhz": 1.0})),
    _refused("sweep_cap", "sweep-omega", dict(_SEQUENTIAL_K2, sweep={
        "omega_mhz": {"min": 0.01, "max": 1000.0, "points": 200000}})),
    _refused("missing_dir", "budget", _SEQUENTIAL_K2, out="no/such/dir/report.json"),
    _refused("uniform_no_tau", "budget", dict(_SEQUENTIAL_K2, uniform={"b_mhz": 9.0}),
             "config invalid at uniform: 'tau_us'"),
    _refused("optimize_omega", "budget",
             dict(_SEQUENTIAL_K2, frequencies={"mode": "optimize", "omega_mhz": 3.0}),
             "config invalid at frequencies/omega_mhz: mode 'optimize'"),
    _refused("k_string", "budget", dict(_SEQUENTIAL_K2, k="2"), "is not of type"),
]


@pytest.fixture(scope="module")
def contract(tmp_path_factory):
    """Each row of the table with its exit code, stderr and wall time, the
    report directory, and the script's whole result: a runtime-only install
    has numpy alone, so every run goes through one interpreter, run with -W
    error::UserWarning, -W error::RuntimeWarning (no numpy float warning
    leaks from a command) and no OpenBLAS thread variable set, in which
    importing anything else fails."""
    tmp_path = tmp_path_factory.mktemp("contract")
    out = tmp_path / "out"
    out.mkdir()
    argvs = []
    for run in CONTRACT_RUNS:
        config = (preset_path(run.config) if isinstance(run.config, str)
                  and not run.config.startswith("{")
                  else write_config(tmp_path, run.config, f"{run.name}.json"))
        report = out / (run.out or f"{run.name}.json")
        argvs.append([[run.command, "--config", config, "--out", str(report)], run.errors])
    proc = _python(_CONTRACT, json.dumps(argvs),
                   flags=("-W", "error::UserWarning", "-W", "error::RuntimeWarning"),
                   blas_threads={})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return list(zip(CONTRACT_RUNS, result["runs"], strict=True)), out, result


def test_every_command_runs_without_scipy(contract):
    runs, out, _ = contract
    passing = [(run, code, err) for run, (code, err, _) in runs if run.code == 0]
    assert {run.command for run, _, _ in passing} == set(cli._COMMANDS)
    for run, code, err in passing:
        assert code == 0, (run.name, err)
        assert "Traceback" not in err, (run.name, err)
        assert (out / f"{run.name}.json").is_file(), run.name


def test_cli_contract_without_scipy_or_jsonschema(contract):
    runs, out, _ = contract
    for run, (code, err, seconds) in runs:
        assert code == run.code, (run.name, err)
        assert "Traceback" not in err, (run.name, err)
        assert all(fragment in err for fragment in run.stderr), (run.name, err)
        assert not any(fragment in err for fragment in run.absent), (run.name, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (run.name, err)
        if run.limit_s is not None:
            assert seconds <= run.limit_s, (run.name, seconds)
    # only the reports of the runs that write one; a refused report path's
    # missing directory is not made either
    assert sorted(os.listdir(out)) == sorted(f"{run.name}.json" for run in CONTRACT_RUNS
                                             if run.report)


def test_simulate_loads_no_numpy_ma(contract):
    # numpy.ma costs about 15 ms to import, and some np.unique call forms
    # load it lazily: it stays unloaded across every run of the table
    _, out, result = contract
    assert result["numpy.ma"] is False
    assert len(json.loads((out / "simulate.k123.json").read_text())["rows"]) == 4 + 8 + 16


def test_sweep_at_the_row_cap_writes_every_row(contract):
    _, out, _ = contract
    text = (out / "sweep.cap.json").read_text(encoding="utf-8")
    assert text.count('"row_type": "grid"') == cli._MAX_SWEEP_ROWS == 100_000
    assert text.count('"row_type": "numeric_opt"') == 20


def test_large_control_target_shift_keeps_its_target_term(contract):
    # at k = 1 the blocked target errs by 3/8 (omega_t / b_ct)^2, here
    # 3.75e-301: 1/b_ct^2 is subnormal, not the overflow of b_ct^2
    _, out, _ = contract
    rows = json.loads((out / "b_ct_large.json").read_text(encoding="utf-8"))["rows"]
    assert [row["k"] for row in rows] == [1, 8, 64]
    assert rows[0]["diag_r_t_blockade_part"] == pytest.approx(3.75e-301, rel=1e-6, abs=0.0)


def test_parse_refusal_line_stays_short(contract):
    # a literal past the float range is echoed up to 20 characters, so a
    # 401-digit integer gives a short line for a config at a short path
    runs, out, _ = contract
    err = next(err for run, (_, err, _) in runs if run.name == "parse_int_overflow")
    line = err.replace(str(out.parent / "parse_int_overflow.json"), "/tmp/config.json")
    assert len(line.encode()) < 200, line


def test_cli_runs_one_thread(contract):
    # numpy's OpenBLAS would start one worker per extra core that spins
    # about 0.1 s; no command gains from it, so the CLI starts none
    threads = contract[2]["threads"]
    if threads is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == 1


# prints the OpenBLAS thread variables after ``import rydgate.cli``, then the
# process's thread count (None without /proc)
_BLAS_ENV = """
import json, os, sys, rydgate.cli
task = "/proc/self/task"
print(json.dumps([{key: os.environ.get(key) for key in sys.argv[1:]},
                  len(os.listdir(task)) if os.path.isdir(task) else None]))
"""


@pytest.mark.parametrize("blas_threads, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}),
    ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
])
def test_cli_leaves_a_set_thread_count(blas_threads, expected):
    proc = _python(_BLAS_ENV, *_BLAS_THREADS, blas_threads=blas_threads)
    assert proc.returncode == 0, proc.stderr
    environ, threads = json.loads(proc.stdout)
    assert environ == expected
    if threads is not None and len(os.sched_getaffinity(0)) >= 2:
        assert threads == (2 if blas_threads else 1)


def test_simulate_reports_do_not_depend_on_thread_count(contract, tmp_path):
    # the k = 8 tables hold the largest matrix products of any command
    _, out, _ = contract
    names = ["simulate.cap.sequential", "simulate.cap.simultaneous"]
    script = ("import sys\nfrom rydgate.cli import main\n"
              "sys.exit(max(main(['simulate', '--config', config, '--out', out])"
              " for config, out in zip(sys.argv[1::2], sys.argv[2::2])))")
    argv = [str(path) for name in names
            for path in (out.parent / f"{name}.json", tmp_path / f"{name}.json")]
    proc = _python(script, *argv, blas_threads={"OPENBLAS_NUM_THREADS": "4"})
    assert proc.returncode == 0, proc.stderr
    for name in names:
        assert (tmp_path / f"{name}.json").read_bytes() == (out / f"{name}.json").read_bytes()


# prints what ``import rydgate`` loads, then how each exported name resolves
_EXPORTS = """
import json, sys
import rydgate
numpy_loaded, listed = "numpy" in sys.modules, dir(rydgate)
value_of = {name: getattr(rydgate, name) for name in rydgate.__all__}
defined = [name for name, value in value_of.items()
           if value.__module__.startswith("rydgate.")
           and getattr(sys.modules[value.__module__], name) is value]
try:
    rydgate.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
from rydgate import cli, simulator
print(json.dumps({"numpy": numpy_loaded, "all": rydgate.__all__, "dir": listed,
                  "defined": defined, "unknown": unknown,
                  "submodules": [cli.__name__, simulator.__name__]}))
"""


def test_package_exports_resolve_on_first_use():
    # importing the package alone loads no numpy, so ``rydgate.cli`` can
    # choose OpenBLAS's thread count before numpy loads
    proc = _python(_EXPORTS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["numpy"] is False
    assert len(result["all"]) == 33 and result["all"] == sorted(result["all"])
    assert set(result["all"]) <= set(result["dir"])
    assert result["defined"] == result["all"]
    assert result["unknown"] == "module 'rydgate' has no attribute 'no_such_name'"
    assert result["submodules"] == ["rydgate.cli", "rydgate.simulator"]


_EDGE_WARNINGS = """
import sys, warnings
from rydgate.cli import main
from rydgate.optimize import OptimizerEdgeWarning
action, config, out_dir = sys.argv[1:]
warnings.simplefilter(action, OptimizerEdgeWarning)
codes = [main([command, "--config", config, "--out", f"{out_dir}/{action}.{command}.json"])
         for command in ("budget", "optimize", "sweep-omega")]
codes.append(main(["optimize", "--config", config]))
sys.exit(max(codes))
"""


def test_optimizer_edge_warning_leaves_reports_unchanged(tmp_path):
    # B = 100 Hz and tau = 10 ms put the optimum near 1e-4 MHz, below the
    # optimizer bracket's 0.01 MHz: every optimized row is clamped
    cfg = dict(sweep_cfg(), k=[2], uniform={"b_mhz": 1.0e-4, "tau_us": 1.0e4, "label": "slow"})
    config = write_config(tmp_path, cfg)
    runs = {action: _python(_EDGE_WARNINGS, action, config, str(tmp_path))
            for action in ("default", "ignore")}
    assert [run.returncode for run in runs.values()] == [0, 0], runs["default"].stderr
    assert runs["ignore"].stderr == ""
    assert runs["default"].stdout == runs["ignore"].stdout
    assert json.loads(runs["default"].stdout)["rows"][0]["converged"] is False
    for command in ("budget", "optimize", "sweep-omega"):
        reports = [(tmp_path / f"{action}.{command}.json").read_bytes() for action in runs]
        assert reports[0] == reports[1], command
        assert (
            f"OptimizerEdgeWarning: {command} row k=2 label 'slow': omega_mhz = 0.01 MHz "
            "is clamped to the edge of the optimizer bracket (0.01 .. 10000 MHz)"
        ) in runs["default"].stderr


# ---------------------------------------------------------------- lattice

def test_lattice_export(tmp_path):
    cfg = {"scheme": "sequential", "k": 4, "lattice": {"d_um": 2.0}}
    report = cmd_lattice(load_config(write_config(tmp_path, cfg), "lattice"))
    assert report["columns"] == list(LATTICE_COLUMNS)
    rows = expand(report["rows"])
    assert rows[0] == {"k": 4, "index": 0, "x_um": 0.0, "y_um": 0.0, "role": "target", "r_um": 0.0}
    coords = [(row["x_um"], row["y_um"]) for row in rows[1:]]
    assert coords == [(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)]


# --------------------------------------------------------------- optimize

def test_optimize_command_close_to_analytic(tmp_path):
    cfg = uniform_cfg(k=[50])
    code = main(
        ["optimize", "--config", write_config(tmp_path, cfg), "--out",
         str(tmp_path / "opt.json")]
    )
    assert code == 0
    report = json.loads((tmp_path / "opt.json").read_text(encoding="utf-8"))
    row = report["rows"][0]
    assert row["omega_opt_mhz"] == pytest.approx(row["omega_opt_analytic_mhz"], rel=0.10, abs=0.0)
    assert row["min_total"] == pytest.approx(0.0614507, rel=1e-4, abs=0.0)
    assert row["converged"] is True
