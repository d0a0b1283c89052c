"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/baseline.py [--out FILE]

Runs `run.py` untraced ten times per workload, with seeds 1 to 10 and the
`run_seconds` of `BENCHMARK.json`, then once traced.  For every end-to-end
metric it prints the median and the spread: the distance between the first
and third quartile (`statistics.quantiles`, n=4) as a share of the median,
next to the metric's bound.  It also prints the error rate over all runs,
and stops with an error at the first run whose outputs are wrong.  With
`--out` it writes the medians, spreads, traced per-layer numbers and a
description of the machine to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect\n{proc.stdout}")
    result["elapsed_s"] = time.monotonic() - start
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def machine() -> dict:
    import numpy

    loc = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "ordsel").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "blas_threads": {var: "1" for var in bootstrap.THREAD_VARS},
        "src_ordsel_lines": loc,
        "platform": platform.platform(),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--out", default=None)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc: dict = {"machine_before": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        entry: dict = {"runs": len(runs), "elapsed_s": [r["elapsed_s"] for r in runs], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            entry["end_to_end"][name] = {
                "median": statistics.median(values), "spread": s, "bound": bound, "values": values,
            }
            print(f"{workload:10} {name:12} median {statistics.median(values):10.4f}"
                  f"  spread {s:.4f}  bound {bound}  ({s / bound:.2f} of bound)"
                  f"  values {' '.join(f'{v:.4g}' for v in values)}", flush=True)
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        entry["error_rate"] = failed / attempted
        print(f"{workload:10} error_rate {failed / attempted:.4g} ({failed} of {attempted} operations)"
              f"  run time median {statistics.median(entry['elapsed_s']):.1f} s", flush=True)
        traced = _run(workload, 1, spec["run_seconds"], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["traced_elapsed_s"] = traced["elapsed_s"]
        doc["workloads"][workload] = entry
    doc["machine_after"] = machine()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
