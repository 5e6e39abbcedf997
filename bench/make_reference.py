"""Write the reference reports the checker compares against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one untraced pass of each workload at the default seed and stores
every report (probes excepted) under ``bench/reference/<workload>.json.gz``.
``presets`` does not depend on the seed, so its reference holds for every
seed.  Regenerate only from a commit whose reports are trusted; the
committed files come from the commit that introduced the benchmark.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def make(workload: str) -> dict:
    seed = workloads.DEFAULT_SEED
    run.ROOT.joinpath(".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"reference-{workload}-", dir=run.ROOT / ".bench_run"))
    try:
        ops = workloads.build(workload, seed, work / "configs")
        one = run.Pass(work, ops, 0)
        result = one.run(trace=False)
        entries = {}
        for op, outcome in zip(ops, result["ops"]):
            if op["probe"]:
                continue
            if outcome["exit"] != 0 or outcome["error"]:
                raise SystemExit(f"{op['name']}: exit {outcome['exit']} {outcome['error'] or ''}")
            _, columns, rows = check.load_report(one.out / f"{op['name']}.{op['format']}",
                                                 op["format"])
            entries[op["name"]] = check.reference_entry(columns, rows)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "seed": None if workload == "presets" else seed,
        "git_sha": run.environment()["git_sha"],
        "ops": entries,
    }


def main() -> None:
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        path = run.BENCH / "reference" / f"{workload}.json.gz"
        text = json.dumps(make(workload), separators=(",", ":")) + "\n"
        # mtime=0 keeps the file identical for identical reports
        path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
