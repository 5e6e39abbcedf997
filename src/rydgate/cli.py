"""Command-line front end.

Subcommands: ``budget`` (error rows per k), ``sweep-omega`` (error versus
drive frequency with analytic and numeric minima), ``simulate``
(state-vector truth tables, k <= 8), ``lattice`` (layout export),
``optimize`` (frequency optimization summary).

``budget``, ``optimize`` and ``sweep-omega`` are projections of one
``_Batch`` per uniform entry or lattice block, a batched budget over every
k of the config: a budget row is a case's head, frequencies, duration,
budget terms and optimum; an optimize row is that row renamed and cut; a
sweep row is a case's budget at one grid frequency.  A report's ``rows``
are column blocks (``schemas.validate_report``): one per budget or
optimize report, three per sweep case (its grid and two optima), one per
simulate or lattice k.  Its JSON holds one object per row.

Configs are JSON in laboratory units (MHz, us, um), checked as written
against ``schemas.CONFIG_SCHEMA``, then by ``check_cross_rules``, which
takes what each scheme requires and refuses from ``schemas.SCHEMES``, and
only then given defaults.  Reports carry schema version "rydgate-report/1"
and are deterministic: the same config always produces byte-identical
output.  CSV output uses a fixed, documented column order per command with
'.' as the decimal separator.  Exit 2 means a refused config (a sweep-omega
grid is capped at 100 000 rows) or an unwritable report path, exit 1 a
failed ideal-limit check.
"""

import argparse
import contextlib
import csv
import functools
import importlib.resources
import io
import itertools
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterator, Sequence
from typing import Any

# No command hands OpenBLAS enough work to gain from a second thread, but
# numpy's import starts one worker per extra core, and each spins for about
# 0.1 s: 20-50 ms of CPU billed to a 20-45 ms run on 2 cores.  So the CLI
# runs it on one thread, unless numpy is already loaded or the user set
# either variable OpenBLAS reads.
if "numpy" not in sys.modules and "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .budget import check_k
from .lattice import LatticeGeometry, build_layout
from .model import InteractionModel, fit_single_anchor
from .optimize import (
    DEFAULT_BRACKET,
    OptimizerEdgeWarning,
    e_opt_analytic,
    minimize_errors,
    omega_opt_analytic,
)
from .schemas import (
    OPTIMIZE_COLUMNS,
    OPTIMIZE_KEYS,
    REPORT_SCHEMA_VERSION,
    SCHEMES,
    SIMULATE_SHIFTS,
    ConfigError,
    report_columns,
    require_fields,
    scheme_keys,
    validate_config,
    validate_report,
)
from .sequential import (
    DivergentBudgetError,
    budget_grover_uniform,
    budget_sequential_lattice,
    budget_sequential_uniform,
)
from .simultaneous import (
    BlockadeRegimeWarning,
    budget_simultaneous_lattice,
    budget_simultaneous_uniform,
)
from .simulator import (
    _MAX_K_TABLE,
    canonical_sequence,
    gate_error_sim,
    sequence_duration,
    simultaneous_interactions,
)
from .units import (
    angular_from_mhz,
    c3_si_from_mhz_um3,
    c6_si_from_mhz_um6,
    meters_from_um,
    mhz_from_angular,
    seconds_from_us,
    us_from_seconds,
)

# ----------------------------------------------------------------- config

def preset_path(name: str) -> str:
    """Filesystem path of a bundled preset config, name given without .json."""
    resource = importlib.resources.files("rydgate") / "presets" / f"{name}.json"
    return str(resource)


def load_config(path: str, command: str) -> dict[str, Any]:
    """Read and parse one config file, check it as written against the
    schema and then the cross rules of ``command``, and set its defaults."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    try:
        raw = json.loads(text, parse_float=_finite_float, parse_int=_finite_int,
                         parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # a NaN or infinity literal, or a number past the float range
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    validate_config(raw)
    check_cross_rules(raw, command)
    return _normalize(raw)


def _refuse_constant(literal: str) -> Any:
    raise ValueError(f"{literal} is not a JSON number; write a finite number")


def _finite_float(literal: str) -> float:
    if math.isinf(value := float(literal)):
        shown = literal if len(literal) <= 20 else f"{literal[:20]}... ({len(literal)} characters)"
        raise ValueError(f"{shown} leaves the float range; write a finite number")
    return value


def _finite_int(literal: str) -> int:
    _finite_float(literal)
    return int(literal)


def _as_list(value: Any) -> list:
    return value if isinstance(value, list) else [value]


# what a simulate block leaves out, beside its shifts (SIMULATE_SHIFTS) and gate
_SIMULATE_DEFAULTS = {"sequence": "sequential", "decay_mhz": 0.0, "check_ideal": False,
                      "tolerance": 1.0e-6}


def _normalize(raw: dict[str, Any]) -> dict[str, Any]:
    """A checked config with every default set, k and uniform as lists."""
    cfg = dict(raw, k=_as_list(raw["k"]))
    if "uniform" in cfg:
        cfg["uniform"] = _as_list(cfg["uniform"])
    if "simulate" in cfg:
        sim = {**_SIMULATE_DEFAULTS, **cfg["simulate"]}
        scheme = SCHEMES[sim["sequence"]]
        defaults = {key: default for key, (_, default) in zip(scheme.shifts, SIMULATE_SHIFTS)}
        cfg["simulate"] = {**defaults, "gate": scheme.gate, **sim}
    else:  # the budget commands' default; lattice echoes it too
        cfg.setdefault("frequencies", {"mode": "optimize"})
    return cfg


# largest sweep-omega grid, in rows: grid points x k values x uniform
# entries.  A 100 000-row sweep took 1.0-1.1 s in a fresh process, with a
# VmHWM of 184.7 MiB, on a 2-core x86 VM and wrote a 45 MB report.
_MAX_SWEEP_ROWS = 100_000


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(f"config invalid: {message}")


def _refuse_present(obj: dict[str, Any], keys: Sequence[str], reason: str, *path: Any) -> None:
    """Refuse, at its path, the first of ``keys`` that ``obj``, the config
    object at ``path``, carries."""
    for key in keys:
        if key in obj:
            raise ConfigError(f"config invalid at {'/'.join(map(str, (*path, key)))}: {reason}")


def _check_scheme_keys(obj: dict[str, Any], scheme: str, required: tuple[str, ...],
                       read: tuple[str, ...], *path: Any) -> None:
    """Require in ``obj``, the config object at ``path``, the keys that the
    ``required`` columns of ``scheme`` name, and refuse those that the
    ``read`` columns name only for another scheme."""
    require_fields(obj, scheme_keys(required, scheme), *path)
    own = scheme_keys(read, scheme)
    _refuse_present(obj, [key for key in scheme_keys(read) if key not in own],
                    f"another scheme's key; a {scheme} run reads {', '.join(own)} here", *path)


def check_cross_rules(cfg: dict[str, Any], command: str) -> None:
    """Field-level rules the JSON schema cannot express, on a config as
    written: which command takes which scheme, the keys ``SCHEMES`` names
    for the scheme (required) and for the other schemes (refused), the
    frequencies an optimize-mode run finds itself, the interaction laws a
    lattice run builds, and the size caps."""
    scheme, ks = cfg["scheme"], _as_list(cfg["k"])
    _require((scheme == "simulate") == (command == "simulate"),
             f"scheme {scheme!r} does not go with the {command} command")
    if command == "simulate":
        require_fields(cfg, ("simulate",))
        _refuse_present(cfg, ("omega10_mhz", "uniform", "lattice", *scheme_keys(("models",)),
                              "frequencies", "sweep"), "the simulate block carries all inputs")
        for k in ks:
            _require(k <= _MAX_K_TABLE, f"simulate supports k <= {_MAX_K_TABLE}, got k={k}")
        sim = cfg["simulate"]
        _check_scheme_keys(sim, sim.get("sequence", _SIMULATE_DEFAULTS["sequence"]),
                           ("frequencies",), ("shifts", "frequencies"), "simulate")
        return

    _refuse_present(cfg, ("simulate",), "a simulate block goes only with scheme 'simulate'")
    # refuse an oversized k before any layout is built: layouts and pair
    # sets grow as k and k^2
    for k in ks:
        check_k(k)
    if command == "lattice":
        # layout export only needs the geometry itself
        require_fields(cfg, ("lattice",))
        return

    frequencies, models = SCHEMES[scheme].frequencies, SCHEMES[scheme].models
    _require(("uniform" in cfg) != ("lattice" in cfg),
             "provide exactly one of uniform inputs or lattice inputs")
    require_fields(cfg, ("omega10_mhz",))
    freq = cfg.get("frequencies", {})
    fixed = freq.get("mode") == "fixed"
    required = ("frequencies",) if fixed else ()
    _check_scheme_keys(freq, scheme, required, ("frequencies",), "frequencies")
    if not fixed:
        _refuse_present(freq, frequencies, "mode 'optimize' finds the drive frequencies; "
                        "give them with mode 'fixed'", "frequencies")
    if "uniform" in cfg:
        # a single uniform object is refused at uniform, an entry at uniform/<i>
        uniform = cfg["uniform"]
        paths = [(i,) for i in range(len(uniform))] if isinstance(uniform, list) else [()]
        for path, entry in zip(paths, _as_list(uniform)):
            _check_scheme_keys(entry, scheme, ("shifts", "lifetimes"), ("shifts", "lifetimes"),
                               "uniform", *path)
        _refuse_present(cfg, scheme_keys(("models",)),
                        f"a {scheme} uniform run reads no interaction model")
    else:
        _require(models is not None, f"{scheme} budgets support uniform inputs only")
        _check_scheme_keys(cfg["lattice"], scheme, ("lifetimes",), ("lifetimes",), "lattice")
        _check_scheme_keys(cfg, scheme, ("models",), ("models",))
        for key in models:  # refuse a law no case could build, at its block
            build_interaction(cfg[key], key)

    if command == "sweep-omega":
        # one grid per drive frequency
        _require(len(frequencies) == 1, "sweep-omega supports the single-frequency schemes")
        require_fields(cfg, ("sweep",))
        require_fields(cfg["sweep"], frequencies, "sweep")
        grid = cfg["sweep"][frequencies[0]]
        _require(grid["max"] > grid["min"], "sweep/omega_mhz needs max > min")
        rows = grid["points"] * len(ks) * len(_as_list(cfg.get("uniform")))
        _require(rows <= _MAX_SWEEP_ROWS,
                 f"sweep-omega would build {rows} grid rows (sweep/omega_mhz/points x k values "
                 f"x uniform entries), above the cap of {_MAX_SWEEP_ROWS}")


def build_interaction(obj: dict[str, Any], path: str) -> InteractionModel:
    """Turn one config interaction block, the one at ``path``, into an
    InteractionModel."""
    has_fit = "fit" in obj
    has_coeff = any(key in obj for key in ("c3_mhz_um3", "c6_mhz_um6", "crossover_um"))
    if has_fit == has_coeff:
        given = "both a fit block and" if has_fit else "neither a fit block nor"
        raise ConfigError(f"config invalid at {path}: {given} explicit coefficients; "
                          "give exactly one")
    if has_fit:
        fit = obj["fit"]
        with _float_range(f"config invalid at {path}/fit"):
            return fit_single_anchor(
                fit["law"],
                angular_from_mhz(fit["b_mhz"]),
                meters_from_um(fit["r_um"]),
            )
    with _float_range(f"config invalid at {path}"):
        c3 = c3_si_from_mhz_um3(obj.get("c3_mhz_um3", 0.0))
        c6 = c6_si_from_mhz_um6(obj.get("c6_mhz_um6", 0.0))
        crossover = (
            meters_from_um(obj["crossover_um"]) if "crossover_um" in obj else None
        )
        try:
            return InteractionModel(c3=c3, c6=c6, crossover_radius=crossover)
        except ValueError as exc:
            raise ConfigError(f"config invalid at {path}: {exc}") from exc


def _out_of_range(where: str, exc: ArithmeticError) -> ConfigError:
    """The refusal at ``where`` of arithmetic past the float range: Python's
    OverflowError and ZeroDivisionError, numpy's FloatingPointError."""
    return ConfigError(f"{where}: a config value leaves the float range: {exc.args[-1]}")


@contextlib.contextmanager
def _float_range(where: str) -> Iterator[None]:
    """Refuse at ``where``, as a config error, arithmetic past the float range."""
    try:
        yield
    except ArithmeticError as exc:
        raise _out_of_range(where, exc) from exc


# ----------------------------------------------------------------- helpers

def _omega_grid(grid_cfg: dict[str, Any]) -> list[float]:
    lo = angular_from_mhz(grid_cfg["min"])
    hi = angular_from_mhz(grid_cfg["max"])
    points = grid_cfg["points"]
    if grid_cfg.get("spacing", "log") == "linear":
        step = (hi - lo) / (points - 1)
        return [lo + i * step for i in range(points)]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    grid = [lo * ratio**i for i in range(points)]
    if math.isinf(grid[-1]):
        raise OverflowError(
            f"the log grid from {grid_cfg['min']!r} to {grid_cfg['max']!r} MHz steps to inf")
    return grid


_BRACKET_MHZ = "{:g} .. {:g} MHz".format(*map(mhz_from_angular, DEFAULT_BRACKET))


# budget builders per scheme and input mode, held as direct values so that
# a wrapper installed on the module binding can replace them here too
_UNIFORM_BUILDERS = {"sequential": budget_sequential_uniform, "grover": budget_grover_uniform,
                     "simultaneous": budget_simultaneous_uniform}
_LATTICE_BUILDERS = {"sequential": budget_sequential_lattice,
                     "simultaneous": budget_simultaneous_lattice}


def _row(command: str, k: int, entry: dict[str, Any] | None) -> str:
    """A row as ``command``'s warnings and refusals name it."""
    return f"{command} row k={k} label {'' if entry is None else entry.get('label', '')!r}"


class _Batch:
    """One uniform entry or lattice block of a budget config over a list of k.

    Interaction models, blockade means and one ``LaurentBudget`` with a
    case per k (``laurent``) are built once here.  ``head`` holds the
    columns that name each case and its blockade scale, one per shift the
    scheme reads: the configured shift for uniform runs; for lattice runs
    the geometric mean of every pair shift (one-shift schemes) or the
    control-target and control-control means.  ``analytic`` holds the
    analytic-optimum columns of the single-frequency schemes, ``d_cc_max``
    each case's largest control-control shift (rad/s; 0 for a scheme
    without one), and ``pending`` each row's warnings for ``_each_batch``.
    """

    def __init__(self, cfg: dict[str, Any], entry: dict[str, Any] | None, ks: list[int]):
        scheme = SCHEMES[cfg["scheme"]]
        omega10 = angular_from_mhz(cfg["omega10_mhz"])
        n = len(ks)
        self.scheme, self.entry, self.ks = scheme, entry, ks
        self.pending: list[list[tuple[str, type[Warning]]]] = [[] for _ in ks]
        self.head: dict[str, list[Any]] = {
            "scheme": [cfg["scheme"]] * n, "mode": ["lattice" if entry is None else "uniform"] * n,
            "label": ["" if entry is None else entry.get("label", "")] * n, "k": list(ks)}
        source = cfg["lattice"] if entry is None else entry
        taus = [seconds_from_us(source[key]) for key in scheme.lifetimes]
        if entry is None:
            # the k nearest sites are the first k of the largest layout
            layout = build_layout(meters_from_um(source["d_um"]), max(ks))
            layouts = [LatticeGeometry(layout.d, layout.control_sites[:k]) for k in ks]
            models = [build_interaction(cfg[key], key) for key in scheme.models]
            self.laurent = _LATTICE_BUILDERS[cfg["scheme"]](*models, layouts, *taus, omega10)
            pairs = self.laurent.pair_shifts
            if len(scheme.shifts) == 1:  # the geometric mean of every pair shift
                shifts = [[math.exp(math.fsum(map(math.log, ct + cc)) / len(ct + cc))
                           for ct, cc in pairs]]
            else:  # the control-target and the control-control mean
                shifts = [[math.fsum(ct) / len(ct) for ct, _ in pairs],
                          [math.fsum(cc) / len(cc) if cc else 0.0 for _, cc in pairs]]
            self.head.update((key, list(map(mhz_from_angular, column)))
                             for key, column in zip(scheme.shifts, shifts))
            self.d_cc_max = [max(cc, default=0.0) if len(shifts) > 1 else 0.0 for _, cc in pairs]
        else:
            b = [angular_from_mhz(entry[key]) for key in scheme.shifts]
            self.laurent = _UNIFORM_BUILDERS[cfg["scheme"]](ks, *b, *taus, omega10)
            self.head.update((key, [float(entry[key])] * n) for key in scheme.shifts)
            shifts = [[shift] * n for shift in b]
            self.d_cc_max = [max(b[1:], default=0.0)] * n
        self.analytic: dict[str, list[float]] = {}
        if len(scheme.frequencies) == 1:  # the closed-form optimum at the one shift and lifetime
            (bs,), (tau,) = shifts, taus
            self.analytic = {
                "omega_opt_analytic_mhz": [mhz_from_angular(omega_opt_analytic(b, tau))
                                           for b in bs],
                "e_opt_analytic": [e_opt_analytic(b, tau, k) for b, k in zip(bs, ks)],
            }

    def evaluate(self, command: str, *omegas) -> tuple[list[float], dict[str, list[float]]]:
        """Gate durations and budget columns of the rows at their drive
        frequencies, a float or an array over the cases per axis, holding a
        warning for each row whose control-control shift reaches omega_c,
        outside the perturbative regime of the collective gate."""
        omega_c = np.broadcast_to(omegas[0], len(self.ks)).tolist()
        for i in np.flatnonzero(np.greater_equal(self.d_cc_max, omega_c)):
            largest = "the largest pair's " if self.entry is None else ""
            d_cc, key = self.scheme.shifts[1], self.scheme.frequencies[0]
            self.pending[i].append((
                f"{_row(command, self.ks[i], self.entry)}: {largest}{d_cc} = "
                f"{mhz_from_angular(self.d_cc_max[i]):g} MHz reaches {key} = "
                f"{mhz_from_angular(omega_c[i]):g} MHz; the perturbative budget is outside its "
                "regime", BlockadeRegimeWarning))
        return self.laurent.duration(*omegas), self.laurent.at(*omegas)

    def optimize(self, command: str) -> tuple[tuple[np.ndarray, ...], dict[str, list[Any]]]:
        """Each case's drive frequencies of least total error, an array over
        the cases per axis, and the fit columns.  A warning is held for each
        optimum clamped to a bracket edge; a budget without an interior
        minimum is refused at its row (a batch runs again one k at a time)."""
        try:
            opts = minimize_errors(self.laurent)
        except ValueError as exc:  # the one refusal of minimize_errors
            raise ConfigError(f"{_row(command, self.ks[0], self.entry)}: the total error has "
                              f"{exc}") from exc
        for i, (k, opt) in enumerate(zip(self.ks, opts)):
            for key, omega in zip(self.scheme.frequencies, opt.argmin):
                if not opt.converged and omega in DEFAULT_BRACKET:
                    self.pending[i].append((
                        f"{_row(command, k, self.entry)}: {key} = {mhz_from_angular(omega):g} "
                        f"MHz is clamped to the edge of the optimizer bracket ({_BRACKET_MHZ}); "
                        "the budget's own minimum lies outside it", OptimizerEdgeWarning))
        return tuple(map(np.array, zip(*(opt.argmin for opt in opts)))), {
            "opt_evaluations": [opt.evaluations for opt in opts],
            "opt_converged": [opt.converged for opt in opts]}


def _each_batch(cfg: dict[str, Any], command: str, build: Callable[[_Batch], Any],
                entry: dict[str, Any] | None = None, ks: list[int] | None = None) -> list[Any]:
    """``build`` of one batch over every k per uniform entry or lattice
    block, in order, each followed by its warnings (or of the batch of
    ``entry`` over ``ks`` alone).  A batch of several k that raises goes,
    without its warnings, one k at a time, so that the first failing row
    raises as it would alone; arithmetic past the float range and a
    blockade shift at omega10 are refused at that row."""
    if ks is None:
        return [built for entry in cfg.get("uniform", [None])
                for built in _each_batch(cfg, command, build, entry, cfg["k"])]
    batch = None
    try:
        batch = _Batch(cfg, entry, ks)
        return [build(batch)]
    except (ArithmeticError, ValueError) as exc:
        if len(ks) > 1:
            batch = None
            return [built for k in ks for built in _each_batch(cfg, command, build, entry, [k])]
        if isinstance(exc, ArithmeticError):
            raise _out_of_range(_row(command, ks[0], entry), exc) from exc
        if isinstance(exc, DivergentBudgetError):
            raise ConfigError(f"{_row(command, ks[0], entry)}: a blockade shift meets "
                              f"omega10_mhz = {cfg['omega10_mhz']} MHz, so the leakage term "
                              "detuned by omega10 - B diverges") from exc
        raise
    finally:  # the batch's pending warnings, row by row
        for message, category in itertools.chain.from_iterable(batch.pending if batch else ()):
            warnings.warn(message, category)


def _budget_block(cfg: dict[str, Any], command: str) -> dict[str, list[Any]]:
    """One block, one row per case, at the fixed or the optimized frequencies."""
    freq = cfg["frequencies"]

    def build(batch: _Batch) -> dict[str, list[Any]]:
        keys = batch.scheme.frequencies
        if freq["mode"] == "fixed":
            omegas, fit = tuple(angular_from_mhz(freq[key]) for key in keys), {}
        else:
            omegas, fit = batch.optimize(command)
        duration, cells = batch.evaluate(command, *omegas)
        shown = (np.broadcast_to(mhz_from_angular(omega), len(batch.ks)).tolist()
                 for omega in omegas)
        return {**batch.head, **dict(zip(keys, shown)),
                "duration_us": list(map(us_from_seconds, duration)), **cells, **batch.analytic,
                **fit}

    block: dict[str, list[Any]] = {}
    for columns in _each_batch(cfg, command, build):
        for key, column in columns.items():
            block.setdefault(key, []).extend(column)
    return block


# ---------------------------------------------------------------- commands

def cmd_budget(cfg: dict[str, Any]) -> dict[str, Any]:
    """Error budget rows, one per configuration and k."""
    return _report("budget", cfg, [_budget_block(cfg, "budget")])


def cmd_sweep_omega(cfg: dict[str, Any]) -> dict[str, Any]:
    """Total error over a drive-frequency grid plus minima."""
    with _float_range("config invalid at sweep/omega_mhz"):
        grid = _omega_grid(cfg["sweep"]["omega_mhz"])
    grid_mhz = [mhz_from_angular(omega) for omega in grid]

    def build(batch: _Batch) -> list[dict[str, list[Any]]]:
        n, keys = len(grid), (*batch.laurent.terms, "total")
        (omegas,), _ = batch.optimize("sweep-omega")
        columns, cells = batch.laurent.table(grid), batch.laurent.at(omegas)
        blocks = []
        for i, (label, k, omega) in enumerate(zip(batch.head["label"], batch.ks,
                                                  omegas.tolist())):
            blocks.append({"row_type": ["grid"] * n, "label": [label] * n, "k": [k] * n,
                           "omega_mhz": grid_mhz,
                           **{key: column[i] for key, column in zip(keys, columns)}})
            blocks.append({"label": [label], "k": [k], "row_type": ["analytic_opt"],
                           "omega_mhz": [batch.analytic["omega_opt_analytic_mhz"][i]],
                           "total": [batch.analytic["e_opt_analytic"][i]]})
            blocks.append({"label": [label], "k": [k], "row_type": ["numeric_opt"],
                           "omega_mhz": [mhz_from_angular(omega)],
                           **{key: [cells[key][i]] for key in keys}})
        return blocks

    blocks = [block for built in _each_batch(cfg, "sweep-omega", build) for block in built]
    return _report("sweep-omega", cfg, blocks)


def cmd_optimize(cfg: dict[str, Any]) -> dict[str, Any]:
    """Numeric drive-frequency optimization summary.

    The budget block in optimize mode, cut to OPTIMIZE_KEYS and renamed to
    OPTIMIZE_COLUMNS."""
    block = _budget_block(dict(cfg, frequencies={"mode": "optimize"}), "optimize")
    return _report("optimize", cfg, [{column: block[key] for key, column
                                      in zip(OPTIMIZE_KEYS, OPTIMIZE_COLUMNS) if key in block}])


def cmd_simulate(cfg: dict[str, Any]) -> dict[str, Any]:
    """State-vector pulse simulation truth tables.

    ``ideal_check_passed``: every input of the row's k is within tolerance,
    and so is the phase-sensitive ``avg_error``."""
    sim = cfg["simulate"]
    scheme = SCHEMES[sim["sequence"]]
    gate = sim["gate"]
    with _float_range("config invalid at simulate"):
        decay = angular_from_mhz(sim["decay_mhz"])
        # canonical_sequence takes the frequency keys without their unit
        omegas = {key.removesuffix("_mhz"): angular_from_mhz(sim[key])
                  for key in scheme.frequencies}
        # control-target shift first, control-control shift last: a one-shift
        # sequence shifts every pair alike; a string shift matched "^inf$"
        shifts = [math.inf if isinstance(sim[key], str) else angular_from_mhz(sim[key])
                  for key in scheme.shifts]

    blocks: list[dict[str, list[Any]]] = []
    for k in cfg["k"]:
        sequence = canonical_sequence(sim["sequence"], k, **omegas)
        interactions = simultaneous_interactions(k, shifts[0], shifts[-1])
        with _float_range(f"simulate row k={k}"):
            result = gate_error_sim(sequence, k, interactions, decay_rates=decay, ideal=gate)
        # lists of Python numbers: a numpy scalar's repr is not its JSON
        errors, ideal = result.errors_by_input.tolist(), result.ideal_outputs.tolist()
        avg_error, n = float(result.avg_error), len(errors)
        blocks.append({"k": [k] * n, "sequence": [sim["sequence"]] * n, "gate": [gate] * n,
                       "duration_us": [us_from_seconds(sequence_duration(sequence))] * n,
                       "input_index": list(range(n)), "ideal_index": ideal,
                       "prob_ideal": result.truth_table[range(n), ideal].tolist(),
                       "error": errors, "avg_error": [avg_error] * n,
                       "ideal_check_passed": [max(avg_error, *errors) <= sim["tolerance"]] * n})
    return _report("simulate", cfg, blocks)


def cmd_lattice(cfg: dict[str, Any]) -> dict[str, Any]:
    """Square-lattice layout export, one block per k."""
    d_um = cfg["lattice"]["d_um"]
    with _float_range(f"lattice row k={cfg['k'][0]}"):
        controls = build_layout(meters_from_um(d_um), max(cfg["k"])).control_sites
    blocks: list[dict[str, list[Any]]] = []
    for k in cfg["k"]:
        sites = [(0, 0), *controls[:k]]  # the target, then the controls in excitation order
        xs, ys = [x * d_um for x, _ in sites], [y * d_um for _, y in sites]
        blocks.append({"k": [k] * len(sites), "index": list(range(len(sites))),
                       "x_um": xs, "y_um": ys, "role": ["target"] + ["control"] * k,
                       "r_um": list(map(math.hypot, xs, ys))})
    return _report("lattice", cfg, blocks)


# ------------------------------------------------------------ serialization

def _report(command: str, cfg: dict[str, Any], rows: list[dict[str, list[Any]]]) -> dict[str, Any]:
    columns = list(report_columns(command, cfg["scheme"]))
    report = dict(schema=REPORT_SCHEMA_VERSION, command=command, config=cfg, columns=columns,
                  rows=rows)
    validate_report(report)
    return report


_ENCODE_CELL = json.JSONEncoder(allow_nan=False).encode


def render_json(report: dict[str, Any]) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)`` and
    a newline, byte for byte, where each block of the rows stands for its
    rows.  Those go through one ``%`` template per block: a column of exact
    ints or finite exact floats through ``%r``, whose text is JSON's, and
    any other column encoded cell by cell, each string once."""
    head = json.dumps(dict(report, rows=[]), indent=2, sort_keys=True, allow_nan=False)
    rows: list[str] = []
    for block in report["rows"]:
        fields, columns = [], []
        for key in sorted(block):
            column = block[key]
            kinds = set(map(type, column))
            if kinds == {int} or kinds == {float} and all(map(math.isfinite, column)):
                field = "%r"
            else:  # a non-finite float raises ValueError here, as in json.dumps
                # only strings: 1, 1.0 and True are one dict key, as are 0.0 and -0.0
                memo = {cell: _ENCODE_CELL(cell) for cell in set(column) if cell.__class__ is str}
                column = [memo[cell] if cell.__class__ is str else _ENCODE_CELL(cell)
                          for cell in column]
                field = "%s"
            fields.append(f"{_ENCODE_CELL(key).replace('%', '%%')}: {field}")
            columns.append(column)
        template = "    {\n      " + ",\n      ".join(fields) + "\n    }"
        rows += map(template.__mod__, zip(*columns))
    before, _, after = head.partition('\n  "rows": []')
    if not rows:
        return f'{before}\n  "rows": []{after}\n'
    # one join makes the whole text: no copy of the rows' text beside it
    rows[0] = f'{before}\n  "rows": [\n{rows[0]}'
    rows[-1] = f'{rows[-1]}\n  ]{after}\n'
    return ",\n".join(rows)


def _csv_column(column: list[Any]) -> list[Any]:
    if bool not in set(map(type, column)):
        return column
    return [("true" if cell else "false") if cell.__class__ is bool else cell for cell in column]


def render_csv(report: dict[str, Any]) -> str:
    """The report's columns, then one line per row, block by block.  The C
    writer formats each cell: a float with ``repr``, an int or a string
    with ``str``, None and an absent column as an empty field; only
    booleans are written here, as true/false."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = report["columns"]
    writer.writerow(columns)
    for block in report["rows"]:
        absent = [None] * len(next(iter(block.values()), ()))
        writer.writerows(zip(*[_csv_column(block.get(column, absent)) for column in columns]))
    return buffer.getvalue()


def write_output(text: str, out_path: str | None) -> None:
    """Write the report to ``out_path``, or to stdout where it is empty."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {out_path}: {exc.strerror}") from exc


# -------------------------------------------------------------- entry point

# subcommand -> report builder, whose docstring's first line is its help
_COMMANDS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "budget": cmd_budget,
    "sweep-omega": cmd_sweep_omega,
    "simulate": cmd_simulate,
    "lattice": cmd_lattice,
    "optimize": cmd_optimize,
}


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Intrinsic error budgets for multi-control blockade gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, metavar="PATH", help="JSON config")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], help="override config output format")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Exit 0, or 2 on a refused config or an unwritable output, or 1 on a
    failed ideal-limit check."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        report = _COMMANDS[args.command](cfg)
        fmt = args.format or cfg.get("output", {}).get("format") or "json"
        text = render_json(report) if fmt == "json" else render_csv(report)
        write_output(text, args.out or cfg.get("output", {}).get("path"))
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "simulate" and cfg["simulate"]["check_ideal"]:
        # one line per failed k (a block each, in config order), for its worst input
        tolerance = cfg["simulate"]["tolerance"]
        failed = {k: block for k, block in zip(cfg["k"], report["rows"])
                  if not block["ideal_check_passed"][0]}
        for k, block in failed.items():
            i = block["error"].index(max(block["error"]))
            worst = {key: column[i] for key, column in block.items()}
            over = ["over" if worst[key] > tolerance else "within" for key in ("error", "avg_error")]
            print(f"ideal-limit check failed at k={k}, tolerance {tolerance:g}: worst input "
                  f"{worst['input_index']} population error {worst['error']:.3g} ({over[0]}), "
                  f"phase-sensitive avg_error {worst['avg_error']:.3g} ({over[1]})",
                  file=sys.stderr)
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
