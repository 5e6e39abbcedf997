"""Command-line front end.

Subcommands: ``budget`` (error rows per k), ``sweep-omega`` (error versus
drive frequency with analytic and numeric minima), ``simulate``
(state-vector truth tables, k <= 8), ``lattice`` (layout export),
``optimize`` (frequency optimization summary).

Configs are JSON in laboratory units (MHz, us, um) and are validated
against ``schemas.CONFIG_SCHEMA``.  Reports carry schema version
"rydgate-report/1" and are deterministic: the same config always produces
byte-identical output.  CSV output uses a fixed, documented column order
per command with '.' as the decimal separator.
"""

import argparse
import csv
import importlib.resources
import io
import json
import math
import sys
from collections.abc import Callable, Sequence
from typing import Any

from .lattice import LatticeGeometry, build_layout, pair_sets
from .model import GateParams, InteractionModel, fit_single_anchor, pair_shift
from .optimize import (
    DEFAULT_BRACKET,
    OptimizationResult,
    e_opt_analytic,
    minimize_error,
    omega_opt_analytic,
)
from .schemas import (
    REPORT_SCHEMA_VERSION,
    ConfigError,
    validate_config,
    validate_report,
)
from .sequential import (
    GROVER_TERMS,
    SEQUENTIAL_TERMS,
    budget_grover_uniform,
    budget_sequential_lattice,
    budget_sequential_uniform,
    gate_duration_grover,
    gate_duration_sequential,
)
from .simultaneous import (
    SIMULTANEOUS_TERMS,
    SimultaneousParams,
    budget_simultaneous_lattice,
    budget_simultaneous_uniform,
    gate_duration_simultaneous,
)
from .simulator import (
    _MAX_K_TABLE,
    canonical_sequence,
    gate_error_sim,
    sequence_duration,
    simultaneous_interactions,
    uniform_interactions,
)
from .units import (
    angular_from_mhz,
    c3_si_from_mhz_um3,
    c6_si_from_mhz_um6,
    meters_from_um,
    mhz_from_angular,
    seconds_from_us,
    um_from_meters,
    us_from_seconds,
)

# Fixed CSV column orders.  These are part of the CLI contract; tests pin
# them and the README documents them.
BUDGET_COLUMNS: dict[str, tuple[str, ...]] = {
    "sequential": ("scheme", "mode", "label", "k", "b_mhz", "omega_mhz", "duration_us")
    + SEQUENTIAL_TERMS
    + (
        "total",
        "omega_opt_analytic_mhz",
        "e_opt_analytic",
        "opt_evaluations",
        "opt_converged",
    ),
    "grover": ("scheme", "mode", "label", "k", "b_mhz", "omega_mhz", "duration_us")
    + GROVER_TERMS
    + (
        "total",
        "diag_collapsed_total_variant",
        "omega_opt_analytic_mhz",
        "e_opt_analytic",
        "opt_evaluations",
        "opt_converged",
    ),
    "simultaneous": (
        "scheme",
        "mode",
        "label",
        "k",
        "b_ct_mhz",
        "d_cc_mhz",
        "omega_c_mhz",
        "omega_t_mhz",
        "duration_us",
    )
    + SIMULTANEOUS_TERMS
    + (
        "total",
        "diag_r_c_1_cubic_variant",
        "diag_r_t_blockade_part",
        "diag_r_t_splitting_part",
        "opt_evaluations",
        "opt_converged",
    ),
}

SWEEP_COLUMNS: dict[str, tuple[str, ...]] = {
    "sequential": ("row_type", "label", "k", "omega_mhz", "total") + SEQUENTIAL_TERMS,
    "grover": ("row_type", "label", "k", "omega_mhz", "total") + GROVER_TERMS,
}

LATTICE_COLUMNS = ("k", "index", "x_um", "y_um", "role", "r_um")

OPTIMIZE_COLUMNS = (
    "scheme",
    "mode",
    "label",
    "k",
    "omega_opt_mhz",
    "omega_c_opt_mhz",
    "omega_t_opt_mhz",
    "min_total",
    "omega_opt_analytic_mhz",
    "e_opt_analytic",
    "evaluations",
    "converged",
)

SIMULATE_COLUMNS = (
    "k",
    "sequence",
    "gate",
    "duration_us",
    "input_index",
    "ideal_index",
    "prob_ideal",
    "error",
    "avg_error",
    "ideal_check_passed",
)


# ----------------------------------------------------------------- config

def preset_path(name: str) -> str:
    """Filesystem path of a bundled preset config, name given without .json."""
    resource = importlib.resources.files("rydgate") / "presets" / f"{name}.json"
    return str(resource)


def load_config(path: str) -> dict[str, Any]:
    """Read, parse, schema-validate, and normalize one config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    validate_config(raw)
    return _normalize(raw)


def _normalize(raw: dict[str, Any]) -> dict[str, Any]:
    cfg = dict(raw)
    k = cfg["k"]
    cfg["k"] = [k] if isinstance(k, int) else list(k)
    if "uniform" in cfg:
        uniform = cfg["uniform"]
        entries = [uniform] if isinstance(uniform, dict) else list(uniform)
        cfg["uniform"] = [dict(entry) for entry in entries]
    cfg.setdefault("frequencies", {"mode": "optimize"})
    if "simulate" in cfg:
        sim = dict(cfg["simulate"])
        sim.setdefault("sequence", "sequential")
        sim.setdefault("gate", "grover" if sim["sequence"] == "grover" else "cnot")
        sim.setdefault("b_mhz", "inf")
        sim.setdefault("b_ct_mhz", "inf")
        sim.setdefault("d_cc_mhz", 0.0)
        sim.setdefault("decay_mhz", 0.0)
        sim.setdefault("check_ideal", False)
        sim.setdefault("tolerance", 1.0e-6)
        cfg["simulate"] = sim
    return cfg


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(f"config invalid: {message}")


def check_cross_rules(cfg: dict[str, Any], command: str) -> None:
    """Field-level rules the JSON schema cannot express."""
    scheme = cfg["scheme"]
    if command == "simulate":
        _require(scheme == "simulate", "the simulate command requires scheme 'simulate'")
    else:
        _require(
            scheme != "simulate",
            f"scheme 'simulate' is only valid with the simulate command, not {command}",
        )

    if scheme == "simulate":
        _require("simulate" in cfg, "scheme 'simulate' requires a simulate block")
        _require(
            "uniform" not in cfg and "lattice" not in cfg,
            "the simulate block carries all inputs; drop uniform/lattice",
        )
        sim = cfg["simulate"]
        for k in cfg["k"]:
            _require(
                k <= _MAX_K_TABLE,
                f"simulate supports k <= {_MAX_K_TABLE}, got k={k}",
            )
        if sim["sequence"] in ("sequential", "grover"):
            _require("omega_mhz" in sim, "simulate/omega_mhz is required")
        else:
            _require(
                "omega_c_mhz" in sim and "omega_t_mhz" in sim,
                "simulate/omega_c_mhz and simulate/omega_t_mhz are required",
            )
        return

    if command == "lattice":
        # layout export only needs the geometry itself
        _require("lattice" in cfg, "the lattice command needs a lattice block")
        return

    has_uniform = "uniform" in cfg
    has_lattice = "lattice" in cfg
    _require(
        has_uniform != has_lattice,
        "provide exactly one of uniform inputs or lattice inputs",
    )
    _require("omega10_mhz" in cfg, "omega10_mhz is required for budget schemes")

    freq = cfg["frequencies"]
    if freq["mode"] == "fixed":
        if scheme == "simultaneous":
            _require(
                "omega_c_mhz" in freq and "omega_t_mhz" in freq,
                "frequencies/omega_c_mhz and omega_t_mhz are required in fixed mode",
            )
        else:
            _require(
                "omega_mhz" in freq, "frequencies/omega_mhz is required in fixed mode"
            )

    if has_uniform:
        _require(
            not any(key in cfg for key in ("interaction", "interaction_ct", "interaction_cc")),
            "interaction models apply to lattice runs only",
        )
        for i, entry in enumerate(cfg["uniform"]):
            if scheme == "simultaneous":
                _require(
                    "b_ct_mhz" in entry,
                    f"uniform/{i} must carry b_ct_mhz/d_cc_mhz/tau_c_us/tau_t_us "
                    "for the simultaneous scheme",
                )
            else:
                _require(
                    "b_mhz" in entry,
                    f"uniform/{i} must carry b_mhz/tau_us for the {scheme} scheme",
                )
    else:
        _require(scheme != "grover", "grover budgets support uniform inputs only")
        lattice = cfg["lattice"]
        if scheme == "sequential":
            _require("interaction" in cfg, "lattice runs need an interaction model")
            _require("tau_us" in lattice, "lattice/tau_us is required")
            _require(
                "interaction_ct" not in cfg and "interaction_cc" not in cfg,
                "sequential lattice runs use the single interaction model",
            )
        else:
            _require(
                "interaction_ct" in cfg and "interaction_cc" in cfg,
                "simultaneous lattice runs need interaction_ct and interaction_cc",
            )
            _require(
                "tau_c_us" in lattice and "tau_t_us" in lattice,
                "lattice/tau_c_us and lattice/tau_t_us are required",
            )
            _require(
                "interaction" not in cfg,
                "simultaneous lattice runs use interaction_ct/interaction_cc",
            )

    if command == "sweep-omega":
        _require(
            "sweep" in cfg and "omega_mhz" in cfg["sweep"],
            "sweep-omega needs a sweep/omega_mhz grid",
        )
        _require(
            scheme in ("sequential", "grover"),
            "sweep-omega supports the single-frequency schemes",
        )
        grid = cfg["sweep"]["omega_mhz"]
        _require(grid["max"] > grid["min"], "sweep/omega_mhz needs max > min")


def build_interaction(obj: dict[str, Any], path: str) -> InteractionModel:
    """Turn one config interaction block into an InteractionModel."""
    has_fit = "fit" in obj
    has_coeff = any(key in obj for key in ("c3_mhz_um3", "c6_mhz_um6", "crossover_um"))
    _require(
        has_fit != has_coeff,
        f"{path} needs either a fit block or explicit coefficients, not both",
    )
    if has_fit:
        fit = obj["fit"]
        return fit_single_anchor(
            fit["law"],
            angular_from_mhz(fit["b_mhz"]),
            meters_from_um(fit["r_um"]),
        )
    c3 = c3_si_from_mhz_um3(obj.get("c3_mhz_um3", 0.0))
    c6 = c6_si_from_mhz_um6(obj.get("c6_mhz_um6", 0.0))
    crossover = (
        meters_from_um(obj["crossover_um"]) if "crossover_um" in obj else None
    )
    try:
        return InteractionModel(c3=c3, c6=c6, crossover_radius=crossover)
    except ValueError as exc:
        raise ConfigError(f"config invalid at {path}: {exc}") from exc


# ----------------------------------------------------------------- helpers

def _geometric_mean(values: Sequence[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _omega_grid(grid_cfg: dict[str, Any]) -> list[float]:
    lo = angular_from_mhz(grid_cfg["min"])
    hi = angular_from_mhz(grid_cfg["max"])
    points = grid_cfg["points"]
    if grid_cfg.get("spacing", "log") == "linear":
        step = (hi - lo) / (points - 1)
        return [lo + i * step for i in range(points)]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**i for i in range(points)]


class _SequentialCase:
    """One uniform series or lattice configuration for sequential/grover."""

    def __init__(self, cfg: dict[str, Any], entry: dict[str, Any] | None):
        self.scheme = cfg["scheme"]
        self.omega10 = angular_from_mhz(cfg["omega10_mhz"])
        if entry is not None:
            self.mode = "uniform"
            self.label = entry.get("label", "")
            self.b = angular_from_mhz(entry["b_mhz"])
            self.tau = seconds_from_us(entry["tau_us"])
            self.model = None
            self.d = None
        else:
            lattice = cfg["lattice"]
            self.mode = "lattice"
            self.label = ""
            self.tau = seconds_from_us(lattice["tau_us"])
            self.model = build_interaction(cfg["interaction"], "interaction")
            self.d = meters_from_um(lattice["d_um"])
            self.b = None

    def geometry(self, k: int) -> LatticeGeometry | None:
        if self.mode == "uniform":
            return None
        return build_layout(self.d, k)

    def mean_b(self, k: int) -> float:
        """Blockade scale for the analytic recipe.

        Uniform runs use the configured shift; lattice runs use the
        geometric mean of every pair shift that occurs in the layout,
        control-target and control-control alike.
        """
        if self.mode == "uniform":
            return self.b
        geom = self.geometry(k)
        ps = pair_sets(geom)
        separations = list(ps.control_target) + list(ps.control_control_all)
        shifts = [pair_shift(self.model, r) for r in separations]
        return _geometric_mean(shifts)

    def budget_fn(self, k: int) -> Callable[[float], Any]:
        if self.mode == "uniform":
            if self.scheme == "grover":
                return lambda om: budget_grover_uniform(
                    GateParams(k=k, omega10=self.omega10, omega=om), self.b, self.tau
                )
            return lambda om: budget_sequential_uniform(
                GateParams(k=k, omega10=self.omega10, omega=om), self.b, self.tau
            )
        geom = self.geometry(k)
        return lambda om: budget_sequential_lattice(
            GateParams(k=k, omega10=self.omega10, omega=om), self.model, geom, self.tau
        )

    def duration(self, k: int, omega: float) -> float:
        p = GateParams(k=k, omega10=self.omega10, omega=omega)
        if self.scheme == "grover":
            return gate_duration_grover(p)
        return gate_duration_sequential(p)


def _pick_omega(
    case: _SequentialCase, cfg: dict[str, Any], k: int
) -> tuple[float, OptimizationResult | None]:
    freq = cfg["frequencies"]
    if freq["mode"] == "fixed":
        return angular_from_mhz(freq["omega_mhz"]), None
    fn = case.budget_fn(k)
    result = minimize_error(
        lambda om: fn(om).total,
        bracket=DEFAULT_BRACKET,
        analytic_argmin=omega_opt_analytic(case.mean_b(k), case.tau),
    )
    return result.argmin[0], result


def _sequential_cases(cfg: dict[str, Any]) -> list[_SequentialCase]:
    if "uniform" in cfg:
        return [_SequentialCase(cfg, entry) for entry in cfg["uniform"]]
    return [_SequentialCase(cfg, None)]


# ---------------------------------------------------------------- commands

def cmd_budget(cfg: dict[str, Any]) -> dict[str, Any]:
    scheme = cfg["scheme"]
    rows: list[dict[str, Any]] = []
    if scheme in ("sequential", "grover"):
        for case in _sequential_cases(cfg):
            for k in cfg["k"]:
                omega, opt = _pick_omega(case, cfg, k)
                budget = case.budget_fn(k)(omega)
                b_mean = case.mean_b(k)
                row: dict[str, Any] = {
                    "scheme": scheme,
                    "mode": case.mode,
                    "label": case.label,
                    "k": k,
                    "b_mhz": mhz_from_angular(b_mean),
                    "omega_mhz": mhz_from_angular(omega),
                    "duration_us": us_from_seconds(case.duration(k, omega)),
                    "omega_opt_analytic_mhz": mhz_from_angular(
                        omega_opt_analytic(b_mean, case.tau)
                    ),
                    "e_opt_analytic": e_opt_analytic(b_mean, case.tau, k),
                }
                row.update(budget.terms)
                row["total"] = budget.total
                for key, value in budget.diagnostics.items():
                    row[f"diag_{key}"] = value
                if opt is not None:
                    row["opt_evaluations"] = opt.evaluations
                    row["opt_converged"] = opt.converged
                rows.append(row)
        columns = BUDGET_COLUMNS[scheme]
    else:
        rows = _simultaneous_rows(cfg)
        columns = BUDGET_COLUMNS["simultaneous"]
    return _report("budget", cfg, columns, rows)


def _simultaneous_params(
    cfg: dict[str, Any],
    entry: dict[str, Any] | None,
    k: int,
    omega_c: float,
    omega_t: float,
) -> SimultaneousParams:
    omega10 = angular_from_mhz(cfg["omega10_mhz"])
    if entry is not None:
        return SimultaneousParams(
            k=k,
            omega_c=omega_c,
            omega_t=omega_t,
            tau_c=seconds_from_us(entry["tau_c_us"]),
            tau_t=seconds_from_us(entry["tau_t_us"]),
            omega10=omega10,
            b_ct=angular_from_mhz(entry["b_ct_mhz"]),
            d_cc=angular_from_mhz(entry["d_cc_mhz"]),
        )
    lattice = cfg["lattice"]
    return SimultaneousParams(
        k=k,
        omega_c=omega_c,
        omega_t=omega_t,
        tau_c=seconds_from_us(lattice["tau_c_us"]),
        tau_t=seconds_from_us(lattice["tau_t_us"]),
        omega10=omega10,
    )


def _simultaneous_rows(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    freq = cfg["frequencies"]
    entries: list[dict[str, Any] | None]
    if "uniform" in cfg:
        entries = list(cfg["uniform"])
        model_ct = model_cc = None
        geom_of = None
    else:
        entries = [None]
        model_ct = build_interaction(cfg["interaction_ct"], "interaction_ct")
        model_cc = build_interaction(cfg["interaction_cc"], "interaction_cc")
        d = meters_from_um(cfg["lattice"]["d_um"])
        geom_of = lambda k: build_layout(d, k)

    rows: list[dict[str, Any]] = []
    for entry in entries:
        for k in cfg["k"]:
            def total_fn(oc: float, ot: float, k: int = k, entry=entry) -> float:
                p = _simultaneous_params(cfg, entry, k, oc, ot)
                if entry is not None:
                    return budget_simultaneous_uniform(p).total
                return budget_simultaneous_lattice(p, model_ct, model_cc, geom_of(k)).total

            opt: OptimizationResult | None = None
            if freq["mode"] == "fixed":
                omega_c = angular_from_mhz(freq["omega_c_mhz"])
                omega_t = angular_from_mhz(freq["omega_t_mhz"])
            else:
                opt = minimize_error(total_fn, dims=2, bracket=DEFAULT_BRACKET)
                omega_c, omega_t = opt.argmin

            p = _simultaneous_params(cfg, entry, k, omega_c, omega_t)
            if entry is not None:
                budget = budget_simultaneous_uniform(p)
                b_ct_mhz = entry["b_ct_mhz"]
                d_cc_mhz = entry["d_cc_mhz"]
                label = entry.get("label", "")
            else:
                geom = geom_of(k)
                budget = budget_simultaneous_lattice(p, model_ct, model_cc, geom)
                ps = pair_sets(geom)
                b_ct_mhz = mhz_from_angular(
                    math.fsum(pair_shift(model_ct, r) for r in ps.control_target) / k
                )
                cc = ps.control_control_all
                d_cc_mhz = (
                    mhz_from_angular(
                        math.fsum(pair_shift(model_cc, r) for r in cc) / len(cc)
                    )
                    if cc
                    else 0.0
                )
                label = ""
            row: dict[str, Any] = {
                "scheme": "simultaneous",
                "mode": budget.mode,
                "label": label,
                "k": k,
                "b_ct_mhz": b_ct_mhz,
                "d_cc_mhz": d_cc_mhz,
                "omega_c_mhz": mhz_from_angular(omega_c),
                "omega_t_mhz": mhz_from_angular(omega_t),
                "duration_us": us_from_seconds(gate_duration_simultaneous(p)),
            }
            row.update(budget.terms)
            row["total"] = budget.total
            for key, value in budget.diagnostics.items():
                row[f"diag_{key}"] = value
            if opt is not None:
                row["opt_evaluations"] = opt.evaluations
                row["opt_converged"] = opt.converged
            rows.append(row)
    return rows


def cmd_sweep_omega(cfg: dict[str, Any]) -> dict[str, Any]:
    scheme = cfg["scheme"]
    grid = _omega_grid(cfg["sweep"]["omega_mhz"])
    rows: list[dict[str, Any]] = []
    for case in _sequential_cases(cfg):
        for k in cfg["k"]:
            fn = case.budget_fn(k)
            base = {"label": case.label, "k": k}
            for omega in grid:
                budget = fn(omega)
                row = dict(base)
                row["row_type"] = "grid"
                row["omega_mhz"] = mhz_from_angular(omega)
                row.update(budget.terms)
                row["total"] = budget.total
                rows.append(row)
            b_mean = case.mean_b(k)
            rows.append(
                dict(
                    base,
                    row_type="analytic_opt",
                    omega_mhz=mhz_from_angular(omega_opt_analytic(b_mean, case.tau)),
                    total=e_opt_analytic(b_mean, case.tau, k),
                )
            )
            numeric = minimize_error(lambda om: fn(om).total, bracket=DEFAULT_BRACKET)
            budget = fn(numeric.argmin[0])
            row = dict(base)
            row["row_type"] = "numeric_opt"
            row["omega_mhz"] = mhz_from_angular(numeric.argmin[0])
            row.update(budget.terms)
            row["total"] = budget.total
            rows.append(row)
    return _report("sweep-omega", cfg, SWEEP_COLUMNS[scheme], rows)


def cmd_optimize(cfg: dict[str, Any]) -> dict[str, Any]:
    """Numeric frequency optimization, reported without the term breakdown."""
    forced = dict(cfg)
    forced["frequencies"] = {"mode": "optimize"}
    scheme = cfg["scheme"]
    rows: list[dict[str, Any]] = []
    if scheme in ("sequential", "grover"):
        for case in _sequential_cases(forced):
            for k in forced["k"]:
                omega, opt = _pick_omega(case, forced, k)
                b_mean = case.mean_b(k)
                rows.append(
                    {
                        "scheme": scheme,
                        "mode": case.mode,
                        "label": case.label,
                        "k": k,
                        "omega_opt_mhz": mhz_from_angular(omega),
                        "min_total": opt.min_error,
                        "omega_opt_analytic_mhz": mhz_from_angular(
                            omega_opt_analytic(b_mean, case.tau)
                        ),
                        "e_opt_analytic": e_opt_analytic(b_mean, case.tau, k),
                        "evaluations": opt.evaluations,
                        "converged": opt.converged,
                    }
                )
    else:
        for row in _simultaneous_rows(forced):
            rows.append(
                {
                    "scheme": "simultaneous",
                    "mode": row["mode"],
                    "label": row["label"],
                    "k": row["k"],
                    "omega_c_opt_mhz": row["omega_c_mhz"],
                    "omega_t_opt_mhz": row["omega_t_mhz"],
                    "min_total": row["total"],
                    "evaluations": row.get("opt_evaluations"),
                    "converged": row.get("opt_converged"),
                }
            )
    return _report("optimize", cfg, OPTIMIZE_COLUMNS, rows)


def cmd_simulate(cfg: dict[str, Any]) -> tuple[dict[str, Any], bool]:
    """Run the pulse simulator; returns (report, all_ideal_checks_passed)."""
    sim = cfg["simulate"]
    sequence_kind = sim["sequence"]
    gate = sim["gate"]
    tolerance = sim["tolerance"]
    decay = angular_from_mhz(sim["decay_mhz"]) if sim["decay_mhz"] else None

    def _shift(value: Any) -> float:
        return math.inf if value == "inf" else angular_from_mhz(value)

    rows: list[dict[str, Any]] = []
    all_passed = True
    for k in cfg["k"]:
        if sequence_kind == "simultaneous":
            omega_c = angular_from_mhz(sim["omega_c_mhz"])
            omega_t = angular_from_mhz(sim["omega_t_mhz"])
            sequence = canonical_sequence(
                "simultaneous", k, omega_c=omega_c, omega_t=omega_t
            )
            interactions = simultaneous_interactions(
                k, _shift(sim["b_ct_mhz"]), _shift(sim["d_cc_mhz"])
            )
        else:
            omega = angular_from_mhz(sim["omega_mhz"])
            sequence = canonical_sequence(sequence_kind, k, omega=omega)
            interactions = uniform_interactions(k, _shift(sim["b_mhz"]))
        result = gate_error_sim(
            sequence, k, interactions, decay_rates=decay, ideal=gate
        )
        passed = bool(max(result.errors_by_input) <= tolerance)
        all_passed = all_passed and passed
        duration = us_from_seconds(sequence_duration(sequence))
        for index, error in enumerate(result.errors_by_input):
            ideal = int(result.ideal_outputs[index])
            rows.append(
                {
                    "k": k,
                    "sequence": sequence_kind,
                    "gate": gate,
                    "duration_us": duration,
                    "input_index": index,
                    "ideal_index": ideal,
                    "prob_ideal": float(result.truth_table[index, ideal]),
                    "error": float(error),
                    "avg_error": float(result.avg_error),
                    "ideal_check_passed": passed,
                }
            )
    report = _report("simulate", cfg, SIMULATE_COLUMNS, rows)
    return report, all_passed


def cmd_lattice(cfg: dict[str, Any]) -> dict[str, Any]:
    lattice = cfg.get("lattice")
    _require(lattice is not None, "the lattice command needs a lattice block")
    d = meters_from_um(lattice["d_um"])
    rows: list[dict[str, Any]] = []
    for k in cfg["k"]:
        geom = build_layout(d, k)
        sites = [(geom.target_site, "target")] + [
            (site, "control") for site in geom.control_sites
        ]
        for index, (site, role) in enumerate(sites):
            x = site[0] * lattice["d_um"]
            y = site[1] * lattice["d_um"]
            rows.append(
                {
                    "k": k,
                    "index": index,
                    "x_um": x,
                    "y_um": y,
                    "role": role,
                    "r_um": math.hypot(x, y),
                }
            )
    return _report("lattice", cfg, LATTICE_COLUMNS, rows)


# ------------------------------------------------------------ serialization

def _report(
    command: str,
    cfg: dict[str, Any],
    columns: Sequence[str],
    rows: list[dict[str, Any]],
) -> dict[str, Any]:
    for row in rows:
        for column, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(
                    f"{command} row k={row.get('k')} label {row.get('label')!r}: "
                    f"{column} is {value}: a blockade shift meets omega10_mhz = "
                    f"{cfg.get('omega10_mhz')} MHz, so the leakage term detuned "
                    "by omega10 - B diverges"
                )
    report = {
        "schema": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": cfg,
        "columns": list(columns),
        "rows": rows,
    }
    validate_report(report)
    return report


def render_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: dict[str, Any]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = report["columns"]
    writer.writerow(columns)
    for row in report["rows"]:
        writer.writerow([_csv_cell(row.get(column)) for column in columns])
    return buffer.getvalue()


def write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Intrinsic error budgets for multi-control blockade gates.",
    )
    parser.add_argument(
        "--seedless",
        action="store_true",
        help="no-op; every run is deterministic and uses no random numbers",
    )
    subcommands = [
        ("budget", "error budget rows, one per configuration and k"),
        ("sweep-omega", "total error over a drive-frequency grid plus minima"),
        ("simulate", f"state-vector pulse simulation truth tables (k <= {_MAX_K_TABLE})"),
        ("lattice", "square-lattice layout export"),
        ("optimize", "numeric drive-frequency optimization summary"),
    ]
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in subcommands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, metavar="PATH", help="JSON config")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], help="override config output format")
    return parser


_COMMANDS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "budget": cmd_budget,
    "sweep-omega": cmd_sweep_omega,
    "lattice": cmd_lattice,
    "optimize": cmd_optimize,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    exit_code = 0
    try:
        cfg = load_config(args.config)
        check_cross_rules(cfg, args.command)
        if args.command == "simulate":
            report, passed = cmd_simulate(cfg)
            if cfg["simulate"]["check_ideal"] and not passed:
                exit_code = 1
        else:
            report = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = args.format or cfg.get("output", {}).get("format") or "json"
    out_path = args.out or cfg.get("output", {}).get("path")
    text = render_json(report) if fmt == "json" else render_csv(report)
    write_output(text, out_path)
    if exit_code:
        print(
            "ideal-limit check failed: population off the ideal output exceeds "
            "the configured tolerance",
            file=sys.stderr,
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
