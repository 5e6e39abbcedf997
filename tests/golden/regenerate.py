"""Rebuild the golden CLI reports that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py            # rewrite reports.json.gz
    PYTHONPATH=src python3 tests/golden/regenerate.py --dir DIR  # raw reports into DIR

The bundle holds, per case, the command, the format, the config (or the
bundled preset name) and the report text exactly as ``rydgate`` wrote it.  ``--dir``
writes one file per report instead, so two trees built from two versions of
the code can be compared byte for byte with ``diff -r``.  Regenerate only
for an intended report change, and list the changed cells in CHANGES.md.
"""

import argparse
import gzip
import json
import os
import sys
import tempfile

from rydgate.cli import main as rydgate_main, preset_path

BUNDLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports.json.gz")

PRESETS = (
    "sequential_uniform",
    "sequential_lattice_crossover",
    "simultaneous_lattice_room_temp",
    "grover_uniform",
)
LATTICE_PRESETS = ("sequential_lattice_crossover", "simultaneous_lattice_room_temp")

_CROSSOVER = {"c3_mhz_um3": 2800.0, "c6_mhz_um6": 43750.0, "crossover_um": 2.5}

# name -> (config, commands)
EXTRA: dict[str, tuple[dict, tuple[str, ...]]] = {
    "sequential_uniform_sweep": (
        {
            "scheme": "sequential",
            "k": [2, 8, 33],
            "omega10_mhz": 9200.0,
            "uniform": [
                {"b_mhz": 9.0, "tau_us": 540.0, "label": "Cs 125s"},
                {"b_mhz": 52.0, "tau_us": 820.0, "label": "Cs 150s"},
            ],
            "sweep": {"omega_mhz": {"min": 0.05, "max": 30.0, "points": 40}},
        },
        ("sweep-omega",),
    ),
    "grover_linear_sweep": (
        {
            "scheme": "grover",
            "k": [3, 10],
            "omega10_mhz": 9200.0,
            "uniform": {"b_mhz": 52.0, "tau_us": 820.0, "label": "Cs 150s"},
            "sweep": {
                "omega_mhz": {"min": 0.5, "max": 20.0, "points": 25, "spacing": "linear"}
            },
        },
        ("sweep-omega",),
    ),
    "sequential_lattice_crossover_k": (
        {
            "scheme": "sequential",
            "k": [2, 5, 12],
            "omega10_mhz": 9200.0,
            "lattice": {"d_um": 1.0, "tau_us": 170.0},
            "interaction": _CROSSOVER,
            "frequencies": {"mode": "optimize"},
            "sweep": {"omega_mhz": {"min": 0.05, "max": 50.0, "points": 30}},
        },
        ("sweep-omega", "budget", "optimize"),
    ),
    "sequential_fixed": (
        {
            "scheme": "sequential",
            "k": [1, 7, 20],
            "omega10_mhz": 9200.0,
            "uniform": [
                {"b_mhz": 9.0, "tau_us": 540.0, "label": "Cs 125s"},
                {"b_mhz": 52, "tau_us": 820, "label": "integer inputs"},
            ],
            "frequencies": {"mode": "fixed", "omega_mhz": 3.0},
        },
        ("budget", "optimize"),
    ),
    "grover_fixed": (
        {
            "scheme": "grover",
            "k": [2, 9, 30],
            "omega10_mhz": 9200.0,
            "uniform": {"b_mhz": 52.0, "tau_us": 820.0, "label": "Cs 150s"},
            "frequencies": {"mode": "fixed", "omega_mhz": 2.5},
        },
        ("budget", "optimize"),
    ),
    "sequential_lattice_fit_fixed": (
        {
            "scheme": "sequential",
            "k": [2, 6, 13],
            "omega10_mhz": 9200.0,
            "lattice": {"d_um": 2.0, "tau_us": 170.0},
            "interaction": {"fit": {"law": "c6", "b_mhz": 50.0, "r_um": 5.0}},
            "frequencies": {"mode": "fixed", "omega_mhz": 1.5},
        },
        ("budget", "optimize"),
    ),
    "simultaneous_uniform": (
        {
            "scheme": "simultaneous",
            "k": [1, 4, 12],
            "omega10_mhz": 9200.0,
            "uniform": [
                {
                    "b_ct_mhz": 50,
                    "d_cc_mhz": 2,
                    "tau_c_us": 148,
                    "tau_t_us": 97,
                    "label": "integer inputs",
                },
                {
                    "b_ct_mhz": 12.5,
                    "d_cc_mhz": 0.4,
                    "tau_c_us": 300.0,
                    "tau_t_us": 150.0,
                    "label": "weak",
                },
            ],
            "frequencies": {"mode": "optimize"},
        },
        ("budget", "optimize"),
    ),
    "simultaneous_lattice_optimize": (
        {
            "scheme": "simultaneous",
            "k": [1, 3, 21],
            "omega10_mhz": 9200.0,
            "lattice": {"d_um": 4.0, "tau_c_us": 148.0, "tau_t_us": 97.0},
            "interaction_ct": {"c3_mhz_um3": 640.0},
            "interaction_cc": {"c6_mhz_um6": 9200.0},
            "frequencies": {"mode": "optimize"},
        },
        ("budget", "optimize"),
    ),
}


_SIM_K = [1, 2, 3, 4, 5, 6]

# simulate cases: name -> (config, formats); per sequence one ideal-limit
# config (infinite shifts, no decay, checked) and one lossy config
SIMULATE: dict[str, tuple[dict, tuple[str, ...]]] = {
    "simulate_sequential_ideal": (
        {
            "scheme": "simulate",
            "k": _SIM_K,
            "simulate": {"sequence": "sequential", "omega_mhz": 1.0, "b_mhz": "inf",
                         "check_ideal": True},
        },
        ("json",),
    ),
    "simulate_sequential_lossy": (
        {
            "scheme": "simulate",
            "k": _SIM_K,
            "simulate": {"sequence": "sequential", "omega_mhz": 1.0, "b_mhz": 20.0,
                         "decay_mhz": 3.0e-3},
        },
        ("json", "csv"),
    ),
    "simulate_grover_ideal": (
        {
            "scheme": "simulate",
            "k": _SIM_K,
            "simulate": {"sequence": "grover", "omega_mhz": 1.0, "b_mhz": "inf",
                         "check_ideal": True},
        },
        ("json",),
    ),
    "simulate_grover_lossy": (
        {
            "scheme": "simulate",
            "k": _SIM_K,
            "simulate": {"sequence": "grover", "omega_mhz": 1.5, "b_mhz": 30.0,
                         "decay_mhz": 3.0e-3},
        },
        ("json",),
    ),
    "simulate_simultaneous_ideal": (
        {
            "scheme": "simulate",
            "k": _SIM_K,
            "simulate": {"sequence": "simultaneous", "omega_c_mhz": 10.0,
                         "omega_t_mhz": 1.0, "b_ct_mhz": "inf", "d_cc_mhz": 0.0,
                         "check_ideal": True},
        },
        ("json",),
    ),
    "simulate_simultaneous_lossy": (
        {
            "scheme": "simulate",
            "k": _SIM_K,
            "simulate": {"sequence": "simultaneous", "omega_c_mhz": 10.0,
                         "omega_t_mhz": 1.0, "b_ct_mhz": 40.0, "d_cc_mhz": 0.5,
                         "decay_mhz": 3.0e-3},
        },
        ("json",),
    ),
}


def cases() -> list[dict]:
    """Every golden case: name, command, format, and preset or config."""
    out = []
    for fmt in ("json", "csv"):
        for preset in PRESETS:
            commands = ("budget", "optimize")
            if preset in LATTICE_PRESETS:
                commands += ("lattice",)
            for command in commands:
                out.append(
                    {"name": preset, "command": command, "format": fmt, "preset": preset}
                )
        for name, (config, commands) in EXTRA.items():
            for command in commands:
                out.append(
                    {"name": name, "command": command, "format": fmt, "config": config}
                )
    for name, (config, formats) in SIMULATE.items():
        for fmt in formats:
            out.append(
                {"name": name, "command": "simulate", "format": fmt, "config": config}
            )
    return out


def file_name(case: dict) -> str:
    return f"{case['name']}.{case['command']}.{case['format']}"


def run_case(case: dict, workdir: str) -> str:
    """Run one case through ``main`` and return the report text it wrote."""
    if "preset" in case:
        config_path = preset_path(case["preset"])
    else:
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(case["config"], handle)
    out_path = os.path.join(workdir, "report")
    argv = [case["command"], "--config", config_path, "--format", case["format"],
            "--out", out_path]
    code = rydgate_main(argv)
    if code != 0:
        raise SystemExit(f"{file_name(case)}: rydgate exited {code}")
    with open(out_path, encoding="utf-8", newline="") as handle:
        return handle.read()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", help="write raw reports here instead of the bundle")
    args = parser.parse_args(argv)
    bundle = []
    with tempfile.TemporaryDirectory() as workdir:
        for case in cases():
            report = run_case(case, workdir)
            if args.dir:
                os.makedirs(args.dir, exist_ok=True)
                path = os.path.join(args.dir, file_name(case))
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(report)
            bundle.append(dict(case, report=report))
    if not args.dir:
        data = json.dumps(bundle, indent=1, sort_keys=True).encode("utf-8")
        with open(BUNDLE, "wb") as handle:
            handle.write(gzip.compress(data, mtime=0))
    print(f"{len(bundle)} reports", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
