"""Mutated configs: every command either writes its report or refuses the
config with exit 2 and one ``error:`` line, never a traceback.

The mutants start from the bundled presets and the golden configs and
apply one or two of: drop a top-level key, graft a top-level block from
another config, switch the scheme, scale one number by 10^150 or 10^-150.
Every k above 3 is cut from the sources, so a mutant that reaches the
simulator stays small.
"""

import contextlib
import copy
import gzip
import io
import json
import os
import tempfile
import warnings
from functools import reduce
from operator import getitem

from hypothesis import given, settings
from hypothesis import strategies as st

from rydgate.cli import _COMMANDS, main, preset_path

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "reports.json.gz")
_PRESETS = ("sequential_uniform", "sequential_lattice_crossover",
            "simultaneous_lattice_room_temp", "grover_uniform")
_SCHEMES = ("sequential", "grover", "simultaneous", "simulate")


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


@settings(max_examples=120)
@given(cfg=mutants())
def test_mutated_configs_exit_0_or_2(cfg):
    checked = cfg.get("scheme") == "simulate" and cfg.get("simulate", {}).get("check_ideal")
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(cfg, handle)
        for command in _COMMANDS:
            out = os.path.join(tmp, f"{command}.out")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = main([command, "--config", config, "--out", out])
            allowed = (0, 1, 2) if command == "simulate" and checked else (0, 2)
            assert code in allowed, (command, err.getvalue())
            # a refused run writes nothing and says why on one line
            assert os.path.exists(out) == (code != 2), (command, code)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
