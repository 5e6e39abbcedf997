"""Spans around the public entry points of each ``rydgate`` module (``WRAPPED``).

The tracer is installed from the benchmark's side: it replaces every
module binding of a wrapped function (``pair_sets`` is bound in
``lattice``, ``cli``, ``sequential``, ``simultaneous`` and the package
itself; ``cli._COMMANDS`` holds the command functions in a dict) and puts
the originals back afterwards.  Spans are kept in flat arrays, one entry
per call: name, parent span, start and end (``time.perf_counter``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

# (module, function, span name); the span name is "<layer>.<function>"
WRAPPED = (
    ("rydgate.cli", "main", "cli.main"),
    ("rydgate.cli", "load_config", "cli.load_config"),
    ("rydgate.cli", "cmd_budget", "cli.cmd_budget"),
    ("rydgate.cli", "cmd_sweep_omega", "cli.cmd_sweep_omega"),
    ("rydgate.cli", "cmd_optimize", "cli.cmd_optimize"),
    ("rydgate.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("rydgate.cli", "cmd_lattice", "cli.cmd_lattice"),
    ("rydgate.cli", "render_json", "cli.render_json"),
    ("rydgate.cli", "render_csv", "cli.render_csv"),
    ("rydgate.cli", "write_output", "cli.write_output"),
    ("rydgate.schemas", "validate_config", "schemas.validate_config"),
    ("rydgate.schemas", "validate_report", "schemas.validate_report"),
    ("rydgate.optimize", "minimize_error", "optimize.minimize_error"),
    ("rydgate.sequential", "budget_sequential_uniform", "sequential.budget_uniform"),
    ("rydgate.sequential", "budget_sequential_lattice", "sequential.budget_lattice"),
    ("rydgate.sequential", "budget_grover_uniform", "sequential.budget_grover"),
    ("rydgate.simultaneous", "budget_simultaneous_uniform", "simultaneous.budget_uniform"),
    ("rydgate.simultaneous", "budget_simultaneous_lattice", "simultaneous.budget_lattice"),
    ("rydgate.simultaneous", "subset_inverse_square_expectations", "simultaneous.subset_expect"),
    ("rydgate.lattice", "build_layout", "lattice.build_layout"),
    ("rydgate.lattice", "pair_sets", "lattice.pair_sets"),
    ("rydgate.model", "pair_shift", "model.pair_shift"),
    ("rydgate.simulator", "gate_error_sim", "simulator.gate_error_sim"),
)

CMD_SPANS = tuple(name for (_, _, name) in WRAPPED if name.startswith("cli.cmd_"))


class Tracer:
    """Span store plus counters filled by per-function hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``hook(tracer, span, args, result)``
        runs after a call that returned."""
        nid = self.intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, result)
            return result

        return wrapper

    def duration(self, span: int) -> float:
        return self.end[span] - self.start[span]


def self_times(parent, start, end) -> array:
    """Each span's duration minus the part of it covered by its children.

    Spans must be indexed in order of their start time, which holds for
    spans recorded as calls begin.  Overlapping children are counted once.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reached = array("d", start)  # per parent: end of the union of children so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reached[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reached[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


# ------------------------------------------------------------------ hooks

def _optimizer_hook(tracer: Tracer, _span: int, _args, result) -> None:
    tracer.counts["optimize.minimize_error.evals"] += result.evaluations
    if not result.converged:
        tracer.counts["optimize.minimize_error.edge_hits"] += 1


def _validate_report_hook(tracer: Tracer, _span: int, args, _result) -> None:
    tracer.counts["schemas.validate_report.rows"] += len(args[0].get("rows", ()))


def _pair_sets_hook(tracer: Tracer, _span: int, args, _result) -> None:
    tracer.distinct["lattice.layouts"].add(args[0])


def _pair_shift_hook(tracer: Tracer, _span: int, args, _result) -> None:
    tracer.distinct["model.pairs"].add((args[0], args[1]))


def _gate_error_sim_hook(tracer: Tracer, span: int, args, _result) -> None:
    sequence, k = args[0], args[1]
    tracer.counts[f"simulator.gate_error_sim.k{k}_s"] += tracer.duration(span)
    tracer.counts["simulator.pulse_steps"] += len(sequence)


HOOKS = {
    "optimize.minimize_error": _optimizer_hook,
    "schemas.validate_report": _validate_report_hook,
    "lattice.pair_sets": _pair_sets_hook,
    "model.pair_shift": _pair_shift_hook,
    "simulator.gate_error_sim": _gate_error_sim_hook,
}

# process CPU time is read around these spans only (a few calls per pass)
CPU_SPANS = ("simulator.gate_error_sim",)


def _with_cpu(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.counts[f"{name}.cpu_s"] += time.process_time() - t0

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Patch every ``rydgate`` module binding of each wrapped function."""
    for module_name, _, _ in WRAPPED:
        importlib.import_module(module_name)
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "rydgate" or name.startswith("rydgate."))]
    undo: list[tuple[Any, Any, Any]] = []
    try:
        for module_name, attr, span_name in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = tracer.wrap(span_name, original, HOOKS.get(span_name))
            if span_name in CPU_SPANS:
                wrapped = _with_cpu(tracer, span_name, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                undo.append((value, dkey, original))
                                value[dkey] = wrapped
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


# ---------------------------------------------------------- layer metrics

def span_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, total seconds and self seconds per span name."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in tracer.names}
    names = tracer.names
    for i, nid in enumerate(tracer.name_id):
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["s"] += tracer.end[i] - tracer.start[i]
        entry["self_s"] += selfs[i]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (counts and seconds)."""
    t = span_totals(tracer)
    c = tracer.counts

    def get(name: str, field: str) -> float:
        return t.get(name, {}).get(field, 0)

    def per_call(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "s") / calls if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    opt_calls = get("optimize.minimize_error", "calls")
    report_s = get("schemas.validate_report", "s")
    m = {
        "cli.main.calls": get("cli.main", "calls"),
        "cli.load_config.s": get("cli.load_config", "s"),
        "cli.cmd.self_s": sum(get(name, "self_s") for name in CMD_SPANS),
        "cli.render.s": get("cli.render_json", "s") + get("cli.render_csv", "s"),
        "cli.write_output.s": get("cli.write_output", "s"),
        "schemas.validate_config.s": get("schemas.validate_config", "s"),
        "schemas.validate_report.s": report_s,
        "schemas.validate_report.rows_per_s": ratio(c["schemas.validate_report.rows"], report_s),
        "optimize.minimize_error.calls": opt_calls,
        "optimize.minimize_error.evals": c["optimize.minimize_error.evals"],
        "optimize.minimize_error.evals_per_call": ratio(c["optimize.minimize_error.evals"], opt_calls),
        "optimize.minimize_error.self_s": get("optimize.minimize_error", "self_s"),
        "optimize.minimize_error.edge_hits": c["optimize.minimize_error.edge_hits"],
    }
    for prefix in ("sequential.budget_uniform", "sequential.budget_lattice",
                   "sequential.budget_grover", "simultaneous.budget_lattice",
                   "simultaneous.budget_uniform"):
        m[f"{prefix}.calls"] = get(prefix, "calls")
        m[f"{prefix}.s_per_call"] = per_call(prefix)
    m["sequential.budget_lattice.self_s"] = get("sequential.budget_lattice", "self_s")
    m["simultaneous.budget_lattice.self_s"] = get("simultaneous.budget_lattice", "self_s")
    m["lattice.build_layout.calls"] = get("lattice.build_layout", "calls")
    m["lattice.pair_sets.calls"] = get("lattice.pair_sets", "calls")
    m["lattice.s"] = get("lattice.build_layout", "s") + get("lattice.pair_sets", "s")
    m["lattice.pair_sets.per_layout"] = ratio(
        get("lattice.pair_sets", "calls"), len(tracer.distinct["lattice.layouts"]))
    m["model.pair_shift.calls"] = get("model.pair_shift", "calls")
    m["model.pair_shift.s"] = get("model.pair_shift", "s")
    m["model.pair_shift.per_pair"] = ratio(
        get("model.pair_shift", "calls"), len(tracer.distinct["model.pairs"]))
    for k in range(1, 6):
        m[f"simulator.gate_error_sim.k{k}_s"] = c[f"simulator.gate_error_sim.k{k}_s"]
    m["simulator.gate_error_sim.cpu_s"] = c["simulator.gate_error_sim.cpu_s"]
    m["simulator.pulse_steps"] = c["simulator.pulse_steps"]
    return m


def count_snapshot(tracer: Tracer) -> dict[str, float]:
    """Counters that must repeat exactly between runs of one seed."""
    names = tracer.names
    snap = {f"{names[nid]}.calls": n for nid, n in Counter(tracer.name_id).items()}
    for key in ("optimize.minimize_error.evals", "optimize.minimize_error.edge_hits",
                "schemas.validate_report.rows", "simulator.pulse_steps"):
        snap[key] = tracer.counts[key]
    return snap


# ------------------------------------------------------------ import time

def parse_importtime(text: str) -> dict[str, float]:
    """Seconds from ``python -X importtime`` output.

    ``import.total_s`` is the cumulative time of the top-level ``rydgate``
    imports; ``scipy`` and ``jsonschema`` get the cumulative time of their
    outermost imports, wherever they happen; ``rydgate_self_s`` sums the
    self time of the rydgate modules.
    """
    nodes = []  # (depth, name, self_us, cumulative_us), children before parents
    for line in text.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        nodes.append((depth, name.strip(), self_us, cum_us))

    outermost = defaultdict(int)
    ancestors: list[str] = []
    for depth, name, _, cum in reversed(nodes):  # now parents before children
        del ancestors[depth:]
        for pkg in ("scipy", "jsonschema"):
            if _in_package(name, pkg) and not any(_in_package(a, pkg) for a in ancestors):
                outermost[pkg] += cum
        ancestors.append(name)
    return {
        "import.total_s": sum(cum for d, n, _, cum in nodes
                              if d == 0 and _in_package(n, "rydgate")) / 1e6,
        "import.scipy_s": outermost["scipy"] / 1e6,
        "import.jsonschema_s": outermost["jsonschema"] / 1e6,
        "import.rydgate_self_s": sum(s for _, n, s, _ in nodes
                                     if _in_package(n, "rydgate")) / 1e6,
    }


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")
