"""Workload definitions: which CLI calls one pass makes, with which configs.

Every operation is one ``rydgate.cli.main(argv)`` call that writes its
report with ``--out``.  ``presets`` ignores the seed; ``sweep`` and
``simulate`` draw their continuous parameters from ``random.Random(seed)``
(a few percent around fixed centres) and keep every size fixed, so the
work per pass is the same for every seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("presets", "sweep", "simulate")
DEFAULT_SEED = 0

PRESETS = (
    "grover_uniform",
    "sequential_lattice_crossover",
    "sequential_uniform",
    "simultaneous_lattice_room_temp",
)
LATTICE_PRESETS = ("sequential_lattice_crossover", "simultaneous_lattice_room_temp")

# (b_mhz, tau_us, n, label) of the three bundled uniform operating points
OPERATING_POINTS = (
    (0.69, 330.0, 100, "Cs 100s"),
    (9.0, 540.0, 125, "Cs 125s"),
    (52.0, 820.0, 150, "Cs 150s"),
)

SWEEP_GRID = {"min": 0.01, "max": 1000.0, "points": 500, "spacing": "log"}
SIMULATE_SEQUENTIAL_K = (1, 2, 3, 4, 5)
SIMULATE_IDEAL_K = (1, 2, 3, 4)

_JITTER = 0.03


def make_op(name, command, fmt, config=None, preset=None, check="reference", probe=False):
    """One CLI call, expected to exit 0.  ``config`` is a path; ``preset``
    names a bundled config that the pass resolves through
    ``rydgate.cli.preset_path``.  A probe exercises a known defect: its
    failure is counted, but does not make the run incorrect."""
    return {
        "name": name,
        "command": command,
        "format": fmt,
        "config": config,
        "preset": preset,
        "check": check,
        "probe": probe,
    }


def _presets_ops(_rng, _write):
    ops = []
    for preset in PRESETS:
        ops.append(make_op(f"budget.{preset}", "budget", "csv", preset=preset))
        ops.append(make_op(f"optimize.{preset}", "optimize", "json", preset=preset))
        if preset in LATTICE_PRESETS:
            ops.append(make_op(f"lattice.{preset}", "lattice", "csv", preset=preset))
    # B equal to the qubit splitting: the report must be finite JSON or the
    # call must be refused with exit 2.  Known to fail at the seed commit.
    boundary = {
        "scheme": "sequential",
        "k": [2, 8],
        "omega10_mhz": 9200.0,
        "uniform": [{"b_mhz": 9200.0, "tau_us": 540.0, "label": "b equals omega10"}],
        "frequencies": {"mode": "fixed", "omega_mhz": 10.0},
    }
    ops.append(
        make_op(
            "budget.b_equals_omega10",
            "budget",
            "json",
            config=_write("b_equals_omega10", boundary),
            check="finite_or_exit2",
            probe=True,
        )
    )
    return ops


def _sweep_ops(rng, write):
    j = _jitterer(rng)
    omega10 = j(9200.0)
    c3 = j(2800.0)
    crossover = j(2.5)
    lattice = {
        "scheme": "sequential",
        "k": [8, 24, 48, 64],
        "omega10_mhz": omega10,
        "lattice": {"d_um": j(1.0), "tau_us": j(170.0)},
        # c6 follows from c3 so the two laws meet exactly at the crossover
        "interaction": {
            "c3_mhz_um3": c3,
            "c6_mhz_um6": c3 * crossover**3,
            "crossover_um": crossover,
        },
        "sweep": {"omega_mhz": dict(SWEEP_GRID)},
    }
    entries = [
        {"b_mhz": j(b), "tau_us": j(tau), "n": n, "label": label}
        for (b, tau, n, label) in OPERATING_POINTS
    ]
    uniform = {
        "scheme": "sequential",
        "k": [8, 32, 64],
        "omega10_mhz": omega10,
        "uniform": entries,
        "sweep": {"omega_mhz": dict(SWEEP_GRID)},
    }
    grover = dict(uniform, scheme="grover")
    simultaneous = {
        "scheme": "simultaneous",
        "k": [20, 21, 64],
        "omega10_mhz": omega10,
        "lattice": {"d_um": j(4.0), "tau_c_us": j(148.0), "tau_t_us": j(97.0)},
        "interaction_ct": {"c3_mhz_um3": j(640.0)},
        "interaction_cc": {"c6_mhz_um6": j(9200.0)},
        "frequencies": {"mode": "fixed", "omega_c_mhz": j(390.0), "omega_t_mhz": j(1.6)},
    }
    return [
        make_op("sweep.sequential_lattice", "sweep-omega", "json",
                config=write("sweep_sequential_lattice", lattice), check="sweep"),
        make_op("sweep.sequential_uniform", "sweep-omega", "json",
                config=write("sweep_sequential_uniform", uniform), check="sweep"),
        make_op("sweep.grover_uniform", "sweep-omega", "json",
                config=write("sweep_grover_uniform", grover), check="sweep"),
        make_op("budget.simultaneous_lattice_k20_21_64", "budget", "json",
                config=write("budget_simultaneous_lattice", simultaneous)),
    ]


def _simulate_ops(rng, write):
    j = _jitterer(rng)
    omega = j(1.0)
    decay = j(3.0e-4)
    omega_c = j(5.0)
    omega_t = j(1.0)
    ops = []
    for k in SIMULATE_SEQUENTIAL_K:
        cfg = {
            "scheme": "simulate",
            "k": [k],
            "simulate": {
                "sequence": "sequential",
                "omega_mhz": omega,
                "b_mhz": 50.0 * omega,
                "decay_mhz": decay,
            },
        }
        ops.append(make_op(f"simulate.sequential_k{k}", "simulate", "json",
                           config=write(f"simulate_sequential_k{k}", cfg)))
    for k in SIMULATE_IDEAL_K:
        grover = {
            "scheme": "simulate",
            "k": [k],
            "simulate": {"sequence": "grover", "omega_mhz": omega, "check_ideal": True},
        }
        ops.append(make_op(f"simulate.grover_ideal_k{k}", "simulate", "json",
                           config=write(f"simulate_grover_k{k}", grover), check="ideal"))
    for k in SIMULATE_IDEAL_K:
        simultaneous = {
            "scheme": "simulate",
            "k": [k],
            "simulate": {
                "sequence": "simultaneous",
                "omega_c_mhz": omega_c,
                "omega_t_mhz": omega_t,
                "check_ideal": True,
            },
        }
        ops.append(make_op(f"simulate.simultaneous_ideal_k{k}", "simulate", "json",
                           config=write(f"simulate_simultaneous_k{k}", simultaneous),
                           check="ideal"))
    return ops


def _jitterer(rng: random.Random):
    def jitter(value: float) -> float:
        return value * (1.0 + _JITTER * (2.0 * rng.random() - 1.0))

    return jitter


_OPS_OF = {"presets": _presets_ops, "sweep": _sweep_ops, "simulate": _simulate_ops}


def build(workload: str, seed: int, config_dir: Path) -> list[dict]:
    """Write the workload's configs under ``config_dir`` and return its ops."""
    config_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, cfg: dict) -> str:
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    return _OPS_OF[workload](random.Random(seed), write)
