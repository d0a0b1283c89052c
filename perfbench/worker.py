"""One measured process of the benchmark; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1 [--setup-only]

Prints one JSON line.  Untraced, it times calls of the workload until the
next call would end past `--seconds` (at least one call), checking every
call's outputs.  With `--setup-only` it stops after set-up, so the parent
can sample set-up time in fresh processes.  Traced, it makes one untraced
call and then one call under the tracer, whose outputs must match; the
tracing overhead is the ratio of those two calls' wall times, so host
noise of one call (about 10% on a shared 2-vCPU host) hides an overhead
smaller than that.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402


def _timed(workload):
    gc.collect()
    start = time.perf_counter()
    result = workload.call()
    return result, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    try:
        bootstrap.prepare()
    except bootstrap.MissingProgram as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import CALL, Tracer

    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = workloads.load_expected()
    report: dict = {"setup_s": setup_s, "walls": [], "attempted": 0, "failed": 0, "problems": []}

    def record(outcome):
        report["attempted"] += outcome.attempted
        report["failed"] += outcome.failed
        report["problems"] += outcome.problems
        report["summary"] = outcome.summary
        return outcome

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bootstrap.ROOT) as tmp:
        workdir = Path(tmp)
        window = time.perf_counter()
        while True:
            result, wall = _timed(workload)
            report["walls"].append(wall)
            untraced = record(workload.check(result, workdir, expected))
            del result
            if tracer is not None:
                break
            if time.perf_counter() - window + wall > args.seconds:
                break

        if tracer is not None:
            tracer.phase = CALL
            with tracer:
                result, wall = _timed(workload)
                traced = record(workload.check(result, workdir, expected))
            del result
            if traced.digests != untraced.digests:
                report["failed"] += 1
                report["problems"].append("traced outputs differ from the untraced outputs")
            layers = tracer.layer_metrics()
            layers["trace.overhead"] = (wall / report["walls"][0], "ratio")
            speedup = report["summary"].get("geomean_speedup", 0.0)
            layers["harness.geomean_speedup"] = (speedup, "ratio")
            report["layers"] = layers

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
