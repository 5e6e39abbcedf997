"""Benchmark harness for rydgate.

    python3 bench/run.py --workload presets|sweep|simulate [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each pass runs in a fresh
interpreter (``bench/passrun.py``) that imports ``rydgate.cli`` from
``src`` and drives it through ``rydgate.cli.main(argv)``; passes repeat
while another one fits in ``--seconds``.  Every report a pass writes is
checked (``bench/check.py``).  Each end-to-end metric is the median over the
run's samples, printed by name with unit, quartiles and sample count.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the import
breakdown from ``python -X importtime`` and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 120

class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(work: Path, args: list[str]) -> dict:
    """Run ``passrun.py`` once and return the result it wrote."""
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py"), "--result", result_path, *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise HarnessError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(Path(result_path).read_text(encoding="utf-8"))
    finally:
        os.unlink(result_path)


def importtime(work: Path) -> dict[str, float]:
    import tracing

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rydgate.cli"],
        cwd=work, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"import failed: {proc.stderr[-2000:]}")
    return tracing.parse_importtime(proc.stderr)


class Window:
    """The run's time budget.  Set-up samples count against it, and a
    pass starts only if a pass of median length still fits, so a run ends
    close to ``seconds`` whatever the pass length."""

    def __init__(self, seconds: float):
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.durations: list[float] = []

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        yield
        self.durations.append(time.perf_counter() - start)

    def room_for_another(self) -> bool:
        elapsed = time.perf_counter() - self.t0
        return elapsed + median(self.durations) <= self.seconds


class Pass:
    """Spec file and output directory of one pass."""

    def __init__(self, work: Path, ops: list[dict], index: int, tag: str = ""):
        self.dir = work / f"pass{index}{tag}"
        self.out = self.dir / "out"
        self.dir.mkdir()
        self.spec = self.dir / "spec.json"
        self.spec.write_text(json.dumps({"ops": ops, "out_dir": str(self.out)}), encoding="utf-8")

    def run(self, trace: bool) -> dict:
        return run_child(self.dir, ["--spec", str(self.spec)] + (["--trace"] if trace else []))

    def outputs(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}


class Checker:
    """Checks each pass's reports and keeps the operation tallies."""

    def __init__(self, workload: str, seed: int, ops: list[dict]):
        sys.path.insert(0, str(ROOT / "src"))
        from rydgate.schemas import REPORT_SCHEMA

        self.schema = REPORT_SCHEMA
        self.ops = ops
        self.reference = load_reference(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, list[str]] = {}
        self.probe_failures: dict[str, list[str]] = {}

    def check(self, result: dict, out_dir: Path) -> None:
        for op, outcome in zip(self.ops, result["ops"]):
            ref = self.reference.get(op["name"]) if self.reference else None
            path = out_dir / f"{op['name']}.{op['format']}"
            problems = check.check_op(op, outcome, path, ref, self.schema)
            self.attempted += 1
            if problems:
                self.failed += 1
                target = self.probe_failures if op.get("probe") else self.unexpected
                target.setdefault(op["name"], problems)

    @property
    def correct(self) -> bool:
        return not self.unexpected


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference reports for this workload and seed, if committed."""
    path = BENCH / "reference" / f"{workload}.json.gz"
    if not path.exists():
        return None
    ref = json.loads(gzip.decompress(path.read_bytes()))
    if ref["seed"] is not None and ref["seed"] != seed:
        return None
    return ref["ops"]


def environment() -> dict:
    """Machine, library and checkout facts recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads_var = next((v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                        if os.environ.get(v)), None)
    nproc = len(os.sched_getaffinity(0))
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": int(os.environ[threads_var]) if threads_var else nproc,
        "blas_threads_from": threads_var or "OpenBLAS default (one per CPU)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown (not a git checkout)",
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"


def untraced(ops: list[dict], checker: Checker, work: Path,
             seconds: float) -> tuple[dict, list[str]]:
    window = Window(seconds)
    setup = [run_child(work, ["--import-only"])["setup_s"] for _ in range(SETUP_RUNS)]
    passes = []
    while not passes or window.room_for_another():
        with window.timed():
            p = Pass(work, ops, len(passes))
            result = p.run(trace=False)
            checker.check(result, p.out)
            shutil.rmtree(p.dir)
        passes.append(result)
        setup.append(result["setup_s"])

    units = metric_units("end_to_end")
    samples = {name: [r[name] for r in passes] for name in units}
    samples["setup_s"] = setup
    lines = [f"{name:<12} median {median(v):.6g} {units[name]}  {_spread(v)}"
             for name, v in samples.items()]
    lines += _op_lines(passes)
    metrics = {name: {"value": median(v), "unit": units[name]} for name, v in samples.items()}
    return metrics, lines


def _op_lines(passes: list[dict]) -> list[str]:
    lines = []
    for i, op in enumerate(passes[0]["ops"]):
        times = [r["ops"][i]["wall_s"] for r in passes]
        lines.append(f"  op {op['name']:<48} median {median(times):.4g} s  n={len(times)}")
    return lines


def traced(ops: list[dict], checker: Checker, work: Path,
           seconds: float) -> tuple[dict, list[str]]:
    import tracing

    window = Window(seconds)
    imports = [importtime(work) for _ in range(IMPORTTIME_RUNS)]
    layers: list[dict] = []
    counts: list[dict] = []
    overhead: list[float] = []
    lines = []
    while not layers or window.room_for_another():
        with window.timed():
            plain = Pass(work, ops, len(layers), "plain")
            base = plain.run(trace=False)
            checker.check(base, plain.out)
            spans = Pass(work, ops, len(layers), "traced")
            result = spans.run(trace=True)
            checker.check(result, spans.out)
            if plain.outputs() != spans.outputs():
                checker.unexpected.setdefault("trace", ["traced reports differ from untraced"])
            shutil.rmtree(plain.dir)
            shutil.rmtree(spans.dir)
        layers.append(result["layers"])
        counts.append(result["counts"])
        overhead.append((result["wall_s"] - base["wall_s"]) / base["wall_s"])

    if any(c != counts[0] for c in counts):
        lines.append("WARNING: span and evaluation counts differ between traced passes")
    values = {key: median(d[key] for d in imports) for key in imports[0]}
    values.update({key: median(d[key] for d in layers) for key in layers[0]})
    values["trace.overhead_frac"] = median(overhead)
    units = metric_units("per_layer")
    lines += [f"{name:<46} {value:.6g} {units.get(name, '')}" for name, value in values.items()]
    lines.append(f"traced passes: {len(layers)}; counts: {json.dumps(counts[0], sort_keys=True)}")
    missing = set(units) - set(values)
    if missing:
        raise HarnessError(f"per-layer metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, lines


def metric_units(kind: str) -> dict[str, str]:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description="rydgate benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rydgate" / "cli.py").is_file():
        print(f"error: no rydgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_run"))
    try:
        ops = workloads.build(args.workload, args.seed, work / "configs")
        checker = Checker(args.workload, args.seed, ops)
        measure = traced if args.trace else untraced
        metrics, lines = measure(ops, checker, work, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["loadavg_end"] = _loadavg()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    frac = checker.failed / checker.attempted
    print(f"fail_frac    {frac:.6g}  ({checker.failed}/{checker.attempted} operations)")
    for name, problems in checker.probe_failures.items():
        print(f"  known defect, counted as failed: {name}: {problems[0]}")
    for name, problems in checker.unexpected.items():
        print(f"  FAILED {name}: {'; '.join(problems[:3])}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
