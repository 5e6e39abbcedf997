"""One pass of a workload in a fresh interpreter.

    python3 bench/passrun.py --spec SPEC.json --result RESULT.json [--trace]
    python3 bench/passrun.py --import-only --result RESULT.json

Times ``import rydgate.cli`` (the set-up every CLI user pays), then every
operation of the spec as one ``rydgate.cli.main(argv)`` call, and writes
the timings as JSON.  With ``--trace`` the public entry points of each
module are wrapped in spans for the pass, and the single-call
measurements (subset expectation, one pulse) follow the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path
from statistics import median


def _import_cli():
    t0 = time.perf_counter()
    import rydgate.cli  # noqa: F401  (timed import)

    return rydgate.cli, time.perf_counter() - t0


def _argv(cli, op: dict, out_dir: Path) -> list[str]:
    config = cli.preset_path(op["preset"]) if op["preset"] else op["config"]
    out = out_dir / f"{op['name']}.{op['format']}"
    return [op["command"], "--config", config, "--out", str(out), "--format", op["format"]]


def run_ops(cli, ops: list[dict], out_dir: Path, on_op=None) -> dict:
    """Run every op once; the pass is timed from the first call to the last."""
    argvs = [_argv(cli, op, out_dir) for op in ops]
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op, argv in zip(ops, argvs):
        t0, c0 = time.perf_counter(), time.process_time()
        error = None
        try:
            code = cli.main(argv)  # looked up per call so a traced main is used
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op fails; the pass goes on
            code = None
            error = traceback.format_exc(limit=5)
        results.append({
            "name": op["name"],
            "exit": code,
            "error": error,
            "wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - c0,
        })
        if on_op is not None:
            on_op(op)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "max_call_s": max(r["wall_s"] for r in results),
        "ops": results,
    }


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def single_calls() -> dict[str, float]:
    """Direct calls into two kernels, outside any CLI pass.

    The subset expectation uses the public, uncached function on the
    control-target shifts of the room-temperature lattice preset (k = 20 is
    the last enumerated size, 21 and 64 take the quadrature).  One pulse is
    a single control excitation on the all-ones input; from k = 6 the state
    dimension passes the simulator's dense limit.
    """
    import numpy as np

    from rydgate import (
        InteractionModel,
        build_layout,
        canonical_sequence,
        computational_state,
        evolve,
        pair_sets,
        pair_shift,
        subset_inverse_square_expectations,
        uniform_interactions,
    )
    from rydgate.units import angular_from_mhz, c3_si_from_mhz_um3, meters_from_um

    out = {}
    model = InteractionModel(c3=c3_si_from_mhz_um3(640.0))
    omega10 = angular_from_mhz(9200.0)
    for k in (20, 21, 64):
        geom = build_layout(meters_from_um(4.0), k)
        shifts = tuple(pair_shift(model, r) for r in pair_sets(geom).control_target)
        out[f"simultaneous.subset_expect.k{k}_s"] = _timed(
            lambda: subset_inverse_square_expectations(shifts, omega10), 3)
    omega = angular_from_mhz(1.0)
    for k in range(1, 8):
        state = computational_state(k, 2 ** (k + 1) - 1)
        step = canonical_sequence("sequential", k, omega=omega)[0]
        shifts = uniform_interactions(k, 50.0 * omega)
        decay = np.full(k + 1, angular_from_mhz(3.0e-4))
        out[f"simulator.evolve.k{k}_s"] = _timed(lambda: evolve(state, step, shifts, decay), 1)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    cli, setup_s = _import_cli()
    result: dict = {"setup_s": setup_s}
    if not args.import_only:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        out_dir = Path(spec["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            per_op_counts = []
            with tracing.installed(tracer):
                result.update(run_ops(
                    cli, spec["ops"], out_dir,
                    on_op=lambda op: per_op_counts.append(tracing.count_snapshot(tracer))))
            result["layers"] = tracing.layer_metrics(tracer)
            result["counts"] = per_op_counts[-1] if per_op_counts else {}
            result["op_counts"] = per_op_counts
            result["layers"].update(single_calls())
        else:
            result.update(run_ops(cli, spec["ops"], out_dir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
