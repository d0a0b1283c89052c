"""ordsel benchmark.

    python3 perfbench/run.py --workload reference|learn-grid \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are fixed (see
`workloads.py`): `--seed` is accepted and does not change the work.  Every
measurement happens in a fresh child process (`worker.py`), one after
another, with BLAS pools pinned to one thread.

Untraced (`--trace 0`) it samples set-up time in `SETUP_PROBES` extra
processes, then times the workload's calls for the rest of the `--seconds`
window (at least one call) and reports the end-to-end metrics: `setup_s`
(imports plus input preparation, median over all set-ups), `wall_s`
(median wall time of the timed call), `peak_rss_mb` (the measuring
process's peak RSS).  Traced (`--trace 1`) it reports the per-layer
metrics of `spans.Tracer` plus the tracing overhead.

Every call's outputs are checked against the known answers of
`workloads.py`.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit status is 0 only if
every check passed.  Without `src/ordsel` in the checkout it prints no
result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reference", "learn-grid")
SETUP_PROBES = 14
DEADLINE_S = 175.0


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    common = ["--workload", args.workload]
    try:
        if args.trace:
            run = _child(common + ["--seconds", str(args.seconds), "--trace", "1"], deadline)
        else:
            setups = [_child(common + ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            window = args.seconds - (time.monotonic() - start)
            run = _child(common + ["--seconds", str(window)], deadline)
            setups.append(run["setup_s"])
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = run["layers"]
        print(f"{args.workload}: traced run, untraced call took {run['walls'][0]:.3f} s")
    else:
        walls = run["walls"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        print(f"{args.workload}: setup_s median of {len(setups)}, wall_s median of {len(walls)}")
        for name, value in run.get("summary", {}).items():
            print(f"  {name} {value:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    error_rate = run["failed"] / run["attempted"]
    print(f"  error_rate {error_rate:.6g} ({run['failed']} of {run['attempted']} operations)")
    for problem in run["problems"]:
        print(f"  MISMATCH {problem}")

    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
