"""Mutated configs: every command either writes its report or refuses the
config with exit 2 and one ``error:`` line that names a config path, a
report row or a cross rule, never a traceback.

The mutants start from the bundled presets and the golden configs.  A
random mutant applies one or two of: drop a top-level key, graft a
top-level block from another config, switch the scheme, scale one number
by 10^150 or 10^-150.  A fixed scan changes each number of each source on
its own: multiplied by 0, 1e-320 or 1e300, or negated.  Every k above 3 is
cut from the sources, so a mutant that reaches the simulator stays small.
"""

import contextlib
import copy
import gzip
import io
import json
import math
import os
import re
import tempfile
import warnings
from functools import reduce
from operator import getitem

from hypothesis import given, settings
from hypothesis import strategies as st

from rydgate import cli
from rydgate.cli import _COMMANDS, main, preset_path

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "reports.json.gz")
_PRESETS = ("sequential_uniform", "sequential_lattice_crossover",
            "simultaneous_lattice_room_temp", "grover_uniform")
_SCHEMES = ("sequential", "grover", "simultaneous", "simulate")
# an exit-2 line names a config path (the top level included), a report
# row, or a cross rule
_NAMED = re.compile(r"error: (config invalid( at [^:]+)?: |\S+ row k=\d+)")


def _sources():
    configs = {}
    for name in _PRESETS:
        with open(preset_path(name), encoding="utf-8") as handle:
            configs[name] = json.load(handle)
    with gzip.open(_GOLDEN, "rt", encoding="utf-8") as handle:
        configs.update((case["name"], case["config"]) for case in json.load(handle)
                       if case.get("config"))
    for cfg in configs.values():
        ks = cfg["k"] if isinstance(cfg["k"], list) else [cfg["k"]]
        cfg["k"] = [k for k in ks if k <= 3] or ks[:1]
        cfg.pop("output", None)
    return [configs[name] for name in sorted(configs)]


SOURCES = _sources()


def _number_paths(obj, path=()):
    """The path of every number in a config, booleans excluded."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        is_number = isinstance(obj, (int, float)) and not isinstance(obj, bool)
        return [path] if is_number else []
    return [found for key, value in items for found in _number_paths(value, path + (key,))]


@st.composite
def mutants(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "graft", "scheme", "scale"]))
        if how == "drop" and cfg:
            del cfg[draw(st.sampled_from(sorted(cfg)))]
        elif how == "graft":
            donor = draw(st.sampled_from(SOURCES))
            key = draw(st.sampled_from(sorted(donor)))
            cfg[key] = copy.deepcopy(donor[key])
        elif how == "scheme":
            cfg["scheme"] = draw(st.sampled_from(_SCHEMES))
        elif how == "scale" and _number_paths(cfg):
            path = draw(st.sampled_from(_number_paths(cfg)))
            parent = reduce(getitem, path[:-1], cfg)
            parent[path[-1]] *= 10.0 ** draw(st.sampled_from([150, -150]))
    return cfg


def _run(command, config, out):
    """Exit code and stderr lines of one CLI run, warnings ignored."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main([command, "--config", config, "--out", out])
    return code, err.getvalue().splitlines()


def _assert_exit(cfg, command, code, lines):
    checked = cfg.get("scheme") == "simulate" and cfg.get("simulate", {}).get("check_ideal")
    allowed = (0, 1, 2) if command == "simulate" and checked else (0, 2)
    assert code in allowed, (command, lines)
    if code == 2:
        assert len(lines) == 1 and _NAMED.match(lines[0]), (command, lines)


@settings(max_examples=120)
@given(cfg=mutants())
def test_mutated_configs_exit_0_or_2(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(cfg, handle)
        for command in _COMMANDS:
            out = os.path.join(tmp, f"{command}.out")
            code, lines = _run(command, config, out)
            _assert_exit(cfg, command, code, lines)
            # a refused run writes nothing
            assert os.path.exists(out) == (code != 2), (command, code)


# the conversions of config values into SI units that the CLI calls
_CONVERSIONS = ("angular_from_mhz", "seconds_from_us", "meters_from_um",
                "c3_si_from_mhz_um3", "c6_si_from_mhz_um6")
# x0, x1e-320, x1e300, negated
_CHANGES = (lambda v: v * 0, lambda v: v * 1e-320, lambda v: v * 1e300, lambda v: -v)


def test_single_number_scan_names_every_refusal(tmp_path, monkeypatch):
    # every run exits as above, and none that writes its report turned a
    # finite config value into an infinity in SI units
    infinite = []
    for name in _CONVERSIONS:
        def checked(value, convert=getattr(cli, name)):
            si = convert(value)
            if math.isinf(si) and math.isfinite(value):
                infinite.append(value)
            return si
        monkeypatch.setattr(cli, name, checked)
    config, out = str(tmp_path / "config.json"), str(tmp_path / "report.out")
    for source in SOURCES:
        for path in _number_paths(source):
            for change in _CHANGES:
                cfg = copy.deepcopy(source)
                parent = reduce(getitem, path[:-1], cfg)
                parent[path[-1]] = change(parent[path[-1]])
                with open(config, "w", encoding="utf-8") as handle:
                    json.dump(cfg, handle)
                for command in _COMMANDS:
                    infinite.clear()
                    code, lines = _run(command, config, out)
                    _assert_exit(cfg, command, code, lines)
                    assert code == 2 or not infinite, (command, path, infinite)
