"""Command-line front end.

Subcommands: ``budget`` (error rows per k), ``sweep-omega`` (error versus
drive frequency with analytic and numeric minima), ``simulate``
(state-vector truth tables, k <= 8), ``lattice`` (layout export),
``optimize`` (frequency optimization summary).

``budget``, ``optimize`` and ``sweep-omega`` are projections of one
``_Case`` per (uniform entry or lattice block, k): a budget row is its head,
frequencies, duration, budget terms and optimum; an optimize row is that
row renamed and cut; a sweep row is its budget at one grid frequency.

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
import csv
import functools
import importlib.resources
import io
import json
import math
import sys
import warnings
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from .budget import check_k
from .lattice import build_layout
from .model import InteractionModel, fit_single_anchor
from .optimize import (
    DEFAULT_BRACKET,
    OptimizationResult,
    OptimizerEdgeWarning,
    e_opt_analytic,
    minimize_error,
    omega_opt_analytic,
)
from .schemas import (
    OPTIMIZE_COLUMNS,
    REPORT_SCHEMA_VERSION,
    SCHEMES,
    ConfigError,
    divergence_error,
    report_columns,
    require_fields,
    scheme_keys,
    validate_config,
    validate_report,
)
from .sequential import (
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
        raw = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # a NaN or infinity literal
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    validate_config(raw)
    check_cross_rules(raw, command)
    return _normalize(raw)


def _refuse_constant(literal: str) -> Any:
    raise ValueError(f"{literal} is not a JSON number; write a finite number")


def _as_list(value: Any) -> list:
    return value if isinstance(value, list) else [value]


# what a simulate block leaves out; a shift left out means no blockade, and
# the gate's default follows the sequence
_SIMULATE_DEFAULTS = {"sequence": "sequential", "b_mhz": "inf", "b_ct_mhz": "inf",
                      "d_cc_mhz": 0.0, "decay_mhz": 0.0, "check_ideal": False,
                      "tolerance": 1.0e-6}


def _normalize(raw: dict[str, Any]) -> dict[str, Any]:
    """A checked config with every default set, k and uniform as lists."""
    cfg = dict(raw, k=_as_list(raw["k"]))
    if "uniform" in cfg:
        cfg["uniform"] = _as_list(cfg["uniform"])
    cfg.setdefault("frequencies", {"mode": "optimize"})
    if "simulate" in cfg:
        sim = {**_SIMULATE_DEFAULTS, **cfg["simulate"]}
        sim.setdefault("gate", "grover" if sim["sequence"] == "grover" else "cnot")
        cfg["simulate"] = sim
    return cfg


# largest sweep-omega grid, in rows: grid points x k values x uniform
# entries.  A 100 000-row sweep took 2.1 s and 244 MB peak RSS on a 2-core
# x86 VM and wrote a 45 MB report.
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
        _refuse_present(cfg, ("uniform", "lattice"), "the simulate block carries all inputs")
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

def _omega_grid(grid_cfg: dict[str, Any]) -> list[float]:
    lo = angular_from_mhz(grid_cfg["min"])
    hi = angular_from_mhz(grid_cfg["max"])
    points = grid_cfg["points"]
    if grid_cfg.get("spacing", "log") == "linear":
        step = (hi - lo) / (points - 1)
        return [lo + i * step for i in range(points)]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**i for i in range(points)]


_BRACKET_MHZ = "{:g} .. {:g} MHz".format(*map(mhz_from_angular, DEFAULT_BRACKET))

# budget-row keys as the optimize report names them; the projection keeps
# only what then falls in OPTIMIZE_COLUMNS
_OPTIMIZE_RENAME = {
    **{key: key.replace("_mhz", "_opt_mhz") for key in scheme_keys(("frequencies",))},
    "total": "min_total",
    "opt_evaluations": "evaluations",
    "opt_converged": "converged",
}


# budget builders per scheme and input mode, held as direct values so that
# a wrapper installed on the module binding can replace them here too
_UNIFORM_BUILDERS = {"sequential": budget_sequential_uniform, "grover": budget_grover_uniform,
                     "simultaneous": budget_simultaneous_uniform}
_LATTICE_BUILDERS = {"sequential": budget_sequential_lattice,
                     "simultaneous": budget_simultaneous_lattice}


class _Case:
    """One (uniform entry or lattice block, k) pair of a budget config.

    Interaction models, blockade means and the frequency-free Laurent
    coefficients of the budget (``laurent``) are built once here; evaluating
    them at the drive frequencies (rad/s) then costs O(1) in k.  ``head``
    holds the cells that name the case and its blockade scale, one per shift
    the scheme reads: the configured shift for uniform runs; for lattice
    runs the geometric mean of every pair shift (one-shift schemes) or the
    control-target and control-control means.  ``analytic`` holds the
    analytic-optimum cells of the single-frequency schemes.  ``d_cc_max``
    is the largest control-control shift (rad/s) of a scheme that reads
    ``d_cc_mhz``, and 0 for the others.
    """

    def __init__(self, cfg: dict[str, Any], entry: dict[str, Any] | None, k: int):
        scheme = SCHEMES[cfg["scheme"]]
        omega10 = angular_from_mhz(cfg["omega10_mhz"])
        self.omega10_mhz = cfg["omega10_mhz"]
        self.frequencies = scheme.frequencies
        self.head: dict[str, Any] = {
            "scheme": cfg["scheme"],
            "mode": "lattice" if entry is None else "uniform",
            "label": "" if entry is None else entry.get("label", ""),
            "k": k,
        }
        self.analytic: dict[str, float] = {}
        source = cfg["lattice"] if entry is None else entry
        taus = [seconds_from_us(source[key]) for key in scheme.lifetimes]
        if entry is None:
            geom = build_layout(meters_from_um(source["d_um"]), k)
            models = [build_interaction(cfg[key], key) for key in scheme.models]
            self.laurent = _LATTICE_BUILDERS[cfg["scheme"]](*models, geom, *taus, omega10)
            ct, cc = self.laurent.pair_shifts
            if len(scheme.shifts) == 1:  # the geometric mean of every pair shift
                shifts = [math.exp(math.fsum(map(math.log, ct + cc)) / len(ct + cc))]
            else:  # the control-target and the control-control mean
                shifts = [math.fsum(ct) / k, math.fsum(cc) / len(cc) if cc else 0.0]
            self.head.update(zip(scheme.shifts, map(mhz_from_angular, shifts)))
            d_cc_max = max(cc, default=0.0)
        else:
            shifts = [angular_from_mhz(entry[key]) for key in scheme.shifts]
            self.laurent = _UNIFORM_BUILDERS[cfg["scheme"]](k, *shifts, *taus, omega10)
            self.head.update((key, entry[key]) for key in scheme.shifts)
            d_cc_max = shifts[-1]
        self.d_cc_max = d_cc_max if "d_cc_mhz" in scheme.shifts else 0.0
        if len(scheme.frequencies) == 1:
            # the closed-form optimum at the one shift and lifetime; the
            # head reports that shift converted back from rad/s
            (b,), (tau,) = shifts, taus
            self.head[scheme.shifts[0]] = mhz_from_angular(b)
            self.analytic = {
                "omega_opt_analytic_mhz": mhz_from_angular(omega_opt_analytic(b, tau)),
                "e_opt_analytic": e_opt_analytic(b, tau, k),
            }

    def evaluate(self, command: str, *omegas: float) -> tuple[float, dict[str, float]]:
        """Gate duration and budget cells of a reported row at its drive
        frequencies, warning on stderr when a control-control shift reaches
        omega_c, outside the perturbative regime of the collective gate."""
        if self.d_cc_max >= omegas[0]:
            name = "d_cc_mhz" if self.head["mode"] == "uniform" else "the largest pair's d_cc_mhz"
            warnings.warn(f"{command} row k={self.head['k']} label {self.head['label']!r}: "
                          f"{name} = {mhz_from_angular(self.d_cc_max):g} MHz reaches "
                          f"omega_c_mhz = {mhz_from_angular(omegas[0]):g} MHz; the perturbative "
                          "budget is outside its regime", BlockadeRegimeWarning, stacklevel=2)
        return self.laurent.duration(*omegas), self.laurent.at(*omegas)

    def optimize(self, command: str) -> OptimizationResult:
        """Minimize the total error over the drive frequencies, warning on
        stderr when the optimum is clamped to a bracket edge."""
        # the total at unit frequencies, finite exactly when every coefficient is
        total = math.fsum(self.laurent.total_coefficients)
        if not math.isfinite(total):
            cause = f"the optimized total is {total}"
            raise divergence_error(command, self.omega10_mhz, self.head, cause)
        opt = minimize_error(self.laurent)
        for key, omega in zip(self.frequencies, opt.argmin):
            if not opt.converged and omega in DEFAULT_BRACKET:
                warnings.warn(f"{command} row k={self.head['k']} label {self.head['label']!r}: "
                              f"{key} = {mhz_from_angular(omega):g} MHz is clamped to the edge "
                              f"of the optimizer bracket ({_BRACKET_MHZ}); the budget's own "
                              "minimum lies outside it", OptimizerEdgeWarning, stacklevel=2)
        return opt


def _cases(cfg: dict[str, Any]) -> Iterator[_Case]:
    for entry in cfg.get("uniform", [None]):
        for k in cfg["k"]:
            yield _Case(cfg, entry, k)


def _budget_rows(cfg: dict[str, Any], command: str) -> list[dict[str, Any]]:
    """One row per case at the fixed or the optimized frequencies."""
    freq = cfg["frequencies"]
    rows: list[dict[str, Any]] = []
    for case in _cases(cfg):
        keys = case.frequencies
        opt = None
        if freq["mode"] == "fixed":
            omegas = tuple(angular_from_mhz(freq[key]) for key in keys)
        else:
            opt = case.optimize(command)
            omegas = opt.argmin
        row = dict(case.head)
        row.update((key, mhz_from_angular(om)) for key, om in zip(keys, omegas))
        duration, cells = case.evaluate(command, *omegas)
        row["duration_us"] = us_from_seconds(duration)
        row.update(cells)
        row.update(case.analytic)
        if opt is not None:
            row.update(opt_evaluations=opt.evaluations, opt_converged=opt.converged)
        rows.append(row)
    return rows


# ---------------------------------------------------------------- commands

def cmd_budget(cfg: dict[str, Any]) -> dict[str, Any]:
    """Error budget rows, one per configuration and k."""
    rows = _budget_rows(cfg, "budget")
    return _report("budget", cfg, rows)


def cmd_sweep_omega(cfg: dict[str, Any]) -> dict[str, Any]:
    """Total error over a drive-frequency grid plus minima."""
    grid = _omega_grid(cfg["sweep"]["omega_mhz"])
    grid_mhz = [mhz_from_angular(omega) for omega in grid]
    rows: list[dict[str, Any]] = []
    for case in _cases(cfg):
        base = {"label": case.head["label"], "k": case.head["k"]}
        # optimizing first refuses a diverging budget before the grid meets it
        omega = case.optimize("sweep-omega").argmin[0]
        rows.extend(dict(base, row_type="grid", omega_mhz=omega_mhz, **cells)
                    for omega_mhz, cells in zip(grid_mhz, case.laurent.table(grid)))
        rows.append(dict(base, row_type="analytic_opt",
                         omega_mhz=case.analytic["omega_opt_analytic_mhz"],
                         total=case.analytic["e_opt_analytic"]))
        cells = case.laurent.at(omega)
        rows.append(dict(base, row_type="numeric_opt", omega_mhz=mhz_from_angular(omega),
                         **{key: cells[key] for key in (*case.laurent.terms, "total")}))
    return _report("sweep-omega", cfg, rows)


def cmd_optimize(cfg: dict[str, Any]) -> dict[str, Any]:
    """Numeric drive-frequency optimization summary.

    The budget rows in optimize mode, renamed and cut to OPTIMIZE_COLUMNS."""
    forced = dict(cfg, frequencies={"mode": "optimize"})
    rows = []
    for row in _budget_rows(forced, "optimize"):
        renamed = {_OPTIMIZE_RENAME.get(key, key): value for key, value in row.items()}
        rows.append({key: renamed[key] for key in OPTIMIZE_COLUMNS if key in renamed})
    return _report("optimize", cfg, rows)


def cmd_simulate(cfg: dict[str, Any]) -> dict[str, Any]:
    """State-vector pulse simulation truth tables.

    ``ideal_check_passed``: every input of the row's k is within tolerance,
    and so is the phase-sensitive ``avg_error``."""
    sim = cfg["simulate"]
    scheme = SCHEMES[sim["sequence"]]
    gate = sim["gate"]
    tolerance = sim["tolerance"]
    decay = angular_from_mhz(sim["decay_mhz"])
    # canonical_sequence takes the frequency keys without their unit
    omegas = {key.removesuffix("_mhz"): angular_from_mhz(sim[key]) for key in scheme.frequencies}
    # control-target shift first, control-control shift last: a one-shift
    # sequence shifts every pair alike; a string shift matched "^inf$"
    shifts = [math.inf if isinstance(sim[key], str) else angular_from_mhz(sim[key])
              for key in scheme.shifts]

    rows: list[dict[str, Any]] = []
    for k in cfg["k"]:
        sequence = canonical_sequence(sim["sequence"], k, **omegas)
        interactions = simultaneous_interactions(k, shifts[0], shifts[-1])
        result = gate_error_sim(sequence, k, interactions, decay_rates=decay, ideal=gate)
        passed = bool(max(result.errors_by_input) <= tolerance
                      and result.avg_error <= tolerance)
        base = dict(k=k, sequence=sim["sequence"], gate=gate,
                    duration_us=us_from_seconds(sequence_duration(sequence)))
        for index, error in enumerate(result.errors_by_input):
            ideal = int(result.ideal_outputs[index])
            rows.append(dict(base, input_index=index, ideal_index=ideal,
                             prob_ideal=float(result.truth_table[index, ideal]),
                             error=float(error), avg_error=float(result.avg_error),
                             ideal_check_passed=passed))
    return _report("simulate", cfg, rows)


def cmd_lattice(cfg: dict[str, Any]) -> dict[str, Any]:
    """Square-lattice layout export."""
    lattice = cfg["lattice"]
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
    return _report("lattice", cfg, rows)


# ------------------------------------------------------------ serialization

def _report(command: str, cfg: dict[str, Any], rows: list[dict[str, Any]]) -> dict[str, Any]:
    columns = list(report_columns(command, cfg["scheme"]))
    report = dict(schema=REPORT_SCHEMA_VERSION, command=command, config=cfg, columns=columns,
                  rows=rows)
    validate_report(report)
    return report


# one row cell per line: every literal newline the C encoder writes comes
# from this separator, since it escapes the newlines inside strings
_ROWS_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\n      ", ": "))


def render_json(report: dict[str, Any]) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)`` and
    a newline, byte for byte.  The rows, non-empty objects of scalar cells
    as ``validate_report`` admits them, go through one C-encoder call."""
    head = json.dumps(dict(report, rows=[]), indent=2, sort_keys=True, allow_nan=False)
    rows = _ROWS_ENCODER.encode(report["rows"])
    if rows != "[]":
        # '},\n      {' can only join two rows: a cell is never an object
        rows = rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        rows = f"[\n    {{\n      {rows}\n    }}\n  ]"
    before, _, after = head.partition('\n  "rows": []')
    return f'{before}\n  "rows": {rows}{after}\n'


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
    except (OverflowError, ZeroDivisionError) as exc:  # a magnitude past the float range
        print(f"error: a config value leaves the float range: {exc.args[-1]}", file=sys.stderr)
        return 2
    if args.command == "simulate" and cfg["simulate"]["check_ideal"]:
        # one line per failed k, for its worst input
        tolerance = cfg["simulate"]["tolerance"]
        failed = [row for row in report["rows"] if not row["ideal_check_passed"]]
        for k in dict.fromkeys(row["k"] for row in failed):
            worst = max((row for row in failed if row["k"] == k), key=lambda row: row["error"])
            over = ["over" if worst[key] > tolerance else "within" for key in ("error", "avg_error")]
            print(f"ideal-limit check failed at k={k}, tolerance {tolerance:g}: worst input "
                  f"{worst['input_index']} population error {worst['error']:.3g} ({over[0]}), "
                  f"phase-sensitive avg_error {worst['avg_error']:.3g} ({over[1]})",
                  file=sys.stderr)
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
