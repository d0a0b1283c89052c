"""Write the benchmark's frozen data and pinned answers.

    python3 perfbench/freeze.py

Runs the `reference` pipeline and the `learn-grid` training once each and
writes, under `perfbench/data/`:

- `features.csv`, `runtimes.csv`: the eligible ontologies' features and
  real-configuration runtime rows, the `learn-grid` input;
- `train_ids.json`: the training ids of the reference run's split;
- `expected.json`: the per-row digests of `runtimes.csv`, the digests of
  `selections.csv` and `report.txt`, and the chosen grid point and CV
  accuracy of every configuration.

Only rerun it when a change is meant to alter these outputs, and say so in
that change.  It takes about a minute.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bootstrap

bootstrap.prepare()

import workloads  # noqa: E402
from workloads import DATA, row_digests, sha256  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bootstrap.ROOT) as tmp:
        ref = workloads.Reference()
        ref.setup()
        result = ref.call()
        files = ref.outputs(result, Path(tmp))
    reference = {
        "corpus": {"count": workloads.CORPUS.count, "seed": workloads.CORPUS.seed},
        "budget": workloads.BUDGET,
        "seed": workloads.PIPELINE_SEED,
        "runtimes_rows": row_digests(files["runtimes.csv"]),
        "selections_csv": sha256(files["selections.csv"]),
        "report_txt": sha256(files["report.txt"]),
        "geomean_speedup": result.report.geomean_ratio,
    }
    print(f"reference: geomean {result.report.geomean_ratio:.3f}", flush=True)

    DATA.mkdir(exist_ok=True)
    (DATA / "features.csv").write_bytes(files["learn-features.csv"])
    (DATA / "runtimes.csv").write_bytes(files["learn-runtimes.csv"])
    train_ids = [str(oid) for oid in result.train_ids]
    (DATA / "train_ids.json").write_text(json.dumps(train_ids, indent=1) + "\n")

    lg = workloads.LearnGrid()
    lg.setup()
    doc = {"reference": reference, "learn-grid": workloads.bundle_answers(lg.call())}
    workloads.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
