"""End-to-end CLI tests: config validation, reports, determinism.

Configs are built as temp files because the CLI contract is file-based;
the bundled presets are exercised as-is.
"""

import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from typing import NamedTuple

import pytest

import rydgate
from rydgate import BlockadeRegimeWarning, cli, sequential, simultaneous
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
from rydgate.units import angular_from_mhz

PRESETS = [
    "sequential_uniform",
    "sequential_lattice_crossover",
    "simultaneous_lattice_room_temp",
    "grover_uniform",
]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
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
    assert [row["k"] for row in report["rows"]] == [3, 8, 15, 24, 35]
    assert report["columns"] == list(BUDGET_COLUMNS["simultaneous"])
    k35 = report["rows"][-1]
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
    assert captured.err.startswith("error: a config value leaves the float range: ")
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
    # omega10 - B on resonance; no report with inf in it may be written,
    # and the optimizer's refusal names the row in lab units too
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
    # only fixed-frequency budget rows get as far as the report's cell check
    fixed_budget = (command, mode) == ("budget", "fixed")
    cause = "r_c_2 is inf" if fixed_budget else "the optimized total is inf"
    assert f"{command} row k=2 label 'b equals omega10': {cause}" in captured.err
    assert "omega10_mhz = 9200.0 MHz" in captured.err
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
    # a case computes its pair shifts when it is built; budget evaluations
    # and the whole optimizer run never go back to the geometry
    calls = _count_calls(monkeypatch, (cli, sequential, simultaneous),
                         ("pair_sets", "pair_shift"))
    cfg = load_config(preset_path(name), "budget")
    for k in cfg["k"]:
        before = dict(calls)
        case = cli._Case(cfg, None, k)
        case.laurent.at(*[angular_from_mhz(10.0)] * case.laurent.dims)
        after_one = dict(calls)
        assert after_one["pair_sets"] - before.get("pair_sets", 0) == 1
        assert after_one["pair_shift"] - before.get("pair_shift", 0) == k + k * (k - 1) // 2
        case.optimize("optimize")
        assert dict(calls) == after_one


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
    validate_report(report)
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


def test_main_writes_output_file(tmp_path):
    cfg = uniform_cfg(output={"format": "json"})
    out = tmp_path / "report.json"
    code = main(
        ["budget", "--config", write_config(tmp_path, cfg), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    validate_report(report)
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
    grid = [row for row in report["rows"] if row["row_type"] == "grid"]
    numeric = [row for row in report["rows"] if row["row_type"] == "numeric_opt"]
    analytic = [row for row in report["rows"] if row["row_type"] == "analytic_opt"]
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
    monkeypatch.setattr(cli, "_Case", lambda *args: pytest.fail("a sweep case was built"))
    assert _run(tmp_path, cfg, "sweep-omega") == (2, False)
    assert capsys.readouterr().err == (
        "error: config invalid: sweep-omega would build 100004 grid rows "
        "(sweep/omega_mhz/points x k values x uniform entries), above the cap of 100000\n"
    )


def test_sweep_single_interior_minimum(tmp_path):
    report = cmd_sweep_omega(load_config(write_config(tmp_path, sweep_cfg()), "sweep-omega"))
    totals = [row["total"] for row in report["rows"] if row["row_type"] == "grid"]
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
    validate_report(report)
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
    report = cmd_simulate(load_config(path, "simulate"))
    assert not any(row["ideal_check_passed"] for row in report["rows"])
    assert report["rows"][0]["avg_error"] > 0.0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out.json")]) == 0


# ------------------------------------------------- no scipy, no jsonschema

def _python(script, *args):
    """Run ``script`` with ``args`` in a new interpreter that imports the
    rydgate under test."""
    path = [os.path.dirname(os.path.dirname(rydgate.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)


# runs each (argv, warning categories raised as errors) of its argument and
# prints, per run, the exit code (None where an exception escaped main) and
# the run's stderr, then whether numpy.ma was ever imported
_CONTRACT = """
import builtins, contextlib, io, json, sys, traceback, warnings
sys.modules["scipy"] = None  # any scipy import now raises ImportError
sys.modules["jsonschema"] = None  # and so does any jsonschema import
from rydgate.cli import main
runs = []
for argv, errors in json.loads(sys.argv[1]):
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        for name in errors:
            warnings.simplefilter("error", getattr(builtins, name))
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    runs.append([code, stderr.getvalue()])
print(json.dumps({"runs": runs, "numpy.ma": "numpy.ma" in sys.modules}))
"""


class _Run(NamedTuple):
    """One CLI run of the contract table: ``command --config <config> --out
    <out>``, where ``config`` is a preset name or a config object."""

    name: str  # the config's file name; the report's too, unless ``out`` is set
    command: str
    config: str | dict
    code: int = 0
    stderr: tuple[str, ...] = ()  # fragments the run's stderr holds
    report: bool = True  # whether the report file is written
    errors: tuple[str, ...] = ("UserWarning",)  # warning categories raised as errors
    out: str = ""


def _refused(name, command, config, *stderr, out=""):
    """A run refused with exit 2: one ``error:`` line and no report."""
    return _Run(name, command, config, 2, stderr, report=False, out=out)


_SEQUENTIAL_K2 = {"scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
                  "uniform": {"b_mhz": 9.0, "tau_us": 540.0}}
_CROSSOVER_LATTICE = {"lattice": {"d_um": 1.0, "tau_us": 170.0},
                      "interaction": {"c3_mhz_um3": 2800.0, "c6_mhz_um6": 43750.0,
                                      "crossover_um": 2.5}}
_BRACKET_SWEEP = {"omega_mhz": {"min": 0.01, "max": 10000.0, "points": 500}}

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
    # each sweep grid is one array evaluation of the budget over the whole
    # optimizer bracket up to k = 64: an overflow or divide warning from
    # numpy fails, and so does an optimum clamped to the bracket edge
    _Run("sweep.uniform", "sweep-omega",
         dict(_SEQUENTIAL_K2, k=[1, 2, 8, 33, 64], sweep=_BRACKET_SWEEP,
              uniform=[{"b_mhz": 9.0, "tau_us": 540.0}, {"b_mhz": 52.0, "tau_us": 820.0}]),
         errors=("UserWarning", "RuntimeWarning")),
    _Run("sweep.lattice", "sweep-omega",
         dict(_CROSSOVER_LATTICE, scheme="sequential", k=[1, 8, 35, 64], omega10_mhz=9200.0,
              sweep=_BRACKET_SWEEP),
         errors=("UserWarning", "RuntimeWarning")),
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
    _refused("omega_overflow", "budget",
             dict(_SEQUENTIAL_K2, frequencies={"mode": "fixed", "omega_mhz": 1e160})),
    _refused("lattice_overflow", "budget", {
        "scheme": "sequential", "k": 2, "omega10_mhz": 9200.0,
        "lattice": {"d_um": 1e120, "tau_us": 540.0}, "interaction": {"c6_mhz_um6": 100.0}}),
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
    """Each row of the table with its exit code and stderr, the report
    directory, and whether numpy.ma was imported: a runtime-only install has
    numpy alone, so every run goes through one interpreter in which importing
    scipy or jsonschema fails."""
    tmp_path = tmp_path_factory.mktemp("contract")
    out = tmp_path / "out"
    out.mkdir()
    argvs = []
    for run in CONTRACT_RUNS:
        config = (preset_path(run.config) if isinstance(run.config, str)
                  else write_config(tmp_path, run.config, f"{run.name}.json"))
        report = out / (run.out or f"{run.name}.json")
        argvs.append([[run.command, "--config", config, "--out", str(report)], run.errors])
    proc = _python(_CONTRACT, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return list(zip(CONTRACT_RUNS, result["runs"], strict=True)), out, result["numpy.ma"]


def test_every_command_runs_without_scipy(contract):
    runs, out, _ = contract
    passing = [(run, code, err) for run, (code, err) in runs if run.code == 0]
    assert {run.command for run, _, _ in passing} == set(cli._COMMANDS)
    for run, code, err in passing:
        assert code == 0, (run.name, err)
        assert "Traceback" not in err, (run.name, err)
        assert (out / f"{run.name}.json").is_file(), run.name


def test_cli_contract_without_scipy_or_jsonschema(contract):
    runs, out, _ = contract
    for run, (code, err) in runs:
        assert code == run.code, (run.name, err)
        assert "Traceback" not in err, (run.name, err)
        assert all(fragment in err for fragment in run.stderr), (run.name, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (run.name, err)
    # only the reports of the runs that write one; a refused report path's
    # missing directory is not made either
    assert sorted(os.listdir(out)) == sorted(f"{run.name}.json" for run in CONTRACT_RUNS
                                             if run.report)


def test_simulate_loads_no_numpy_ma(contract):
    # numpy.ma costs about 15 ms to import, and some np.unique call forms
    # load it lazily: it stays unloaded across every run of the table
    _, out, numpy_ma = contract
    assert numpy_ma is False
    assert len(json.loads((out / "simulate.k123.json").read_text())["rows"]) == 4 + 8 + 16


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
    rows = report["rows"]
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
