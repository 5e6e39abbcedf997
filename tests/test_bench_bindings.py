"""The names and parameters the benchmark harness reaches into.

``bench/tracing.py`` wraps the functions its ``WRAPPED`` table names and
reads some of their arguments by position; ``bench/passrun.py``
``single_calls`` imports library names directly.  A rename or a reordered
parameter there would break the benchmark silently, so these tests read
both files (with ``ast``, without importing or changing them) and check
each binding against the library.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from rydgate import build_layout

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module_tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _wrapped():
    """``bench/tracing.py``'s WRAPPED table: (module, function, span name)."""
    for node in _module_tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no WRAPPED table")


WRAPPED = _wrapped()


@pytest.mark.parametrize("module, function, span", WRAPPED, ids=[span for _, _, span in WRAPPED])
def test_every_wrapped_function_resolves(module, function, span):
    assert callable(getattr(importlib.import_module(module), function, None)), span


# the leading parameters that the tracer's hooks read by position
_HOOK_PARAMETERS = {
    ("rydgate.model", "pair_shift"): ("model", "r"),
    ("rydgate.lattice", "pair_sets"): ("geom",),
    ("rydgate.simulator", "gate_error_sim"): ("sequence", "k"),
    ("rydgate.schemas", "validate_report"): ("report",),
}


@pytest.mark.parametrize("module, function", sorted(_HOOK_PARAMETERS))
def test_hooked_parameters_come_first(module, function):
    assert (module, function) in {(m, f) for m, f, _ in WRAPPED}
    parameters = tuple(inspect.signature(getattr(importlib.import_module(module), function))
                       .parameters)
    leading = _HOOK_PARAMETERS[module, function]
    assert parameters[: len(leading)] == leading


def test_pair_sets_hook_can_keep_each_geometry():
    # the hook counts distinct layouts in a set
    assert len({build_layout(1.0e-6, 3), build_layout(1.0e-6, 3), build_layout(2.0e-6, 3)}) == 2


def test_single_calls_imports_exist():
    tree = _module_tree("passrun.py")
    (single_calls,) = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "single_calls"]
    imports = [(node.module, alias.name) for node in ast.walk(single_calls)
               if isinstance(node, ast.ImportFrom) and node.module in ("rydgate", "rydgate.units")
               for alias in node.names]
    assert {module for module, _ in imports} == {"rydgate", "rydgate.units"}
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
