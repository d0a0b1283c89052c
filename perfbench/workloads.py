"""The benchmark's workloads and their correctness gates.

Each workload prepares its input (`setup`), runs the timed call (`call`)
and compares the call's outputs with the known answer (`check`).  Known answers live in `data/expected.json`, written by
`freeze.py`.

Inputs.  Both workloads run ROADMAP's acceptance run: the corpus
`CorpusSpec(count=150, seed=42)` and pipeline seed 42 for the split and
the training.  The run's `--seed` does not change the work, so every run
measures the same inputs and has one set of pinned answers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ordsel.bench import corpus as corpus_mod
from ordsel.bench import harness
from ordsel.cli import QUICK_GRID
from ordsel.features import read_feature_csv, write_feature_csv
from ordsel.heuristics import CONFIG_NUMBERS, CONFIGS, config_label
from ordsel.learn import pipeline
from ordsel.runtimes import read_runtime_csv, write_runtime_csv

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
EXPECTED = DATA / "expected.json"

CORPUS = corpus_mod.CorpusSpec(count=150, seed=42)
PIPELINE_SEED = 42
BUDGET = 12000
FOLDS = 10


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def row_digests(csv_bytes: bytes) -> list[str]:
    """Short digest of every data line of a CSV (header skipped)."""
    lines = csv_bytes.decode().splitlines()[1:]
    return [sha256(line.encode())[:10] for line in lines]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


@dataclass
class Outcome:
    """Result of one correctness gate: operations attempted and failed,
    why they failed, and the output digests the traced run must match."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    summary: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------- reference


class Reference:
    """`run_pipeline` over the 150-ontology corpus with `QUICK_GRID`."""

    name = "reference"

    def setup(self) -> None:
        instances = corpus_mod.generate_corpus(CORPUS)
        self.corpus = [(c.ontology_id, c.text) for c in instances]
        self.families = {c.ontology_id: c.family for c in instances if c.family is not None}

    def call(self):
        return harness.run_pipeline(self.corpus, budget=BUDGET, seed=PIPELINE_SEED, grid=QUICK_GRID)

    def outputs(self, result, workdir: Path) -> dict[str, bytes]:
        """The artifacts `ordsel pipeline` writes, plus the `learn-grid`
        input regenerated from this run."""
        write_runtime_csv(result.bench.rows, str(workdir / "runtimes.csv"))
        pipeline.save_bundle(result.bundle, str(workdir / "model.json"))
        lines = ["id,config,label"]
        for oid in sorted(result.selections):
            chosen = result.selections[oid]
            lines.append(f"{oid},{chosen},{config_label(CONFIGS[int(chosen) - 1])}")
        eligible_ids = sorted({r.ontology_id for r in result.eligible_rows})
        write_feature_csv(
            [(oid, result.bench.features[oid]) for oid in eligible_ids],
            str(workdir / "learn-features.csv"),
        )
        write_runtime_csv(
            [r for r in result.eligible_rows if r.config in CONFIG_NUMBERS],
            str(workdir / "learn-runtimes.csv"),
        )
        return {
            "runtimes.csv": (workdir / "runtimes.csv").read_bytes(),
            "selections.csv": ("\n".join(lines) + "\n").encode(),
            "report.txt": result.report_text.encode(),
            "learn-features.csv": (workdir / "learn-features.csv").read_bytes(),
            "learn-runtimes.csv": (workdir / "learn-runtimes.csv").read_bytes(),
            "train-ids": json.dumps(result.train_ids).encode(),
        }

    def check(self, result, workdir: Path, expected: dict) -> Outcome:
        files = self.outputs(result, workdir)
        want = expected["reference"]
        problems: list[str] = []

        # One operation per runtime row: each is a sweep outcome.
        got_rows = row_digests(files["runtimes.csv"])
        want_rows = want["runtimes_rows"]
        bad_rows = {
            i for i in range(max(len(got_rows), len(want_rows)))
            if i >= len(got_rows) or i >= len(want_rows) or got_rows[i] != want_rows[i]
        }
        if bad_rows:
            problems.append(f"runtimes.csv: {len(bad_rows)} rows differ from the pinned rows")

        # Independent of the pins: on every trap instance each fast ordering
        # costs less than each slow one.
        row_index = {(r.ontology_id, r.config): i for i, r in enumerate(result.bench.rows)}
        for oid, family in sorted(self.families.items()):
            rows = [row_index.get((oid, c)) for c in CONFIG_NUMBERS]
            if None in rows:
                problems.append(f"{oid}: missing runtime rows")
                continue
            fast = corpus_mod.FAMILY_FAST[family]
            cost = {int(c): result.bench.rows[i].cost for c, i in zip(CONFIG_NUMBERS, rows)}
            slow = set(cost) - fast
            if fast and slow and max(cost[c] for c in fast) >= min(cost[c] for c in slow):
                problems.append(f"{oid}: a slow ordering of trap family {family} beat a fast one")
                bad_rows.update(rows)

        artifacts = {
            "selections.csv": want["selections_csv"],
            "report.txt": want["report_txt"],
            "learn-features.csv": sha256((DATA / "features.csv").read_bytes()),
            "learn-runtimes.csv": sha256((DATA / "runtimes.csv").read_bytes()),
            "train-ids": sha256(json.dumps(load_train_ids()).encode()),
        }
        bad_artifacts = 0
        for name, digest in artifacts.items():
            if sha256(files[name]) != digest:
                bad_artifacts += 1
                problems.append(f"{name} differs from the pinned digest")
        return Outcome(
            attempted=len(want_rows) + len(artifacts),
            failed=len(bad_rows) + bad_artifacts,
            problems=problems,
            digests={name: sha256(data) for name, data in files.items()},
            summary={"geomean_speedup": result.report.geomean_ratio},
        )


# --------------------------------------------------------------- learn-grid


def learn_grid() -> list:
    """The 16 `default_grid()` points with k=10 and five components."""
    return [p for p in pipeline.default_grid() if p.k == 10 and p.n_components == 5]


def load_train_ids() -> list[str]:
    return json.loads((DATA / "train_ids.json").read_text())


def bundle_answers(bundle) -> dict[str, dict]:
    """Chosen grid point and CV accuracy per configuration."""
    out = {}
    for label, model in bundle.models.items():
        p = model.params
        params = None if p is None else [p.k, p.n_components, p.kernel, p.c, p.gamma]
        out[label] = {"params": params, "accuracy": model.accuracy}
    return out


class LearnGrid:
    """`train_model_bundle` over a frozen training split, 16-point grid."""

    name = "learn-grid"

    def setup(self) -> None:
        train = set(load_train_ids())
        self.features = [
            (oid, fv) for oid, fv in read_feature_csv(str(DATA / "features.csv")) if oid in train
        ]
        self.rows = [r for r in read_runtime_csv(str(DATA / "runtimes.csv")) if r.ontology_id in train]
        self.grid = learn_grid()

    def call(self):
        return pipeline.train_model_bundle(
            self.features, self.rows, grid=self.grid, n_folds=FOLDS, seed=PIPELINE_SEED
        )

    def check(self, bundle, workdir: Path, expected: dict) -> Outcome:
        pipeline.save_bundle(bundle, str(workdir / "model.json"))
        want = expected["learn-grid"]
        got = bundle_answers(bundle)
        problems = [
            f"config {label}: got {got.get(label)}, pinned {want[label]}"
            for label in want
            if got.get(label) != want[label]
        ]
        return Outcome(
            attempted=len(want),
            failed=len(problems),
            problems=problems,
            digests={"answers": sha256(json.dumps(got, sort_keys=True).encode())},
        )


WORKLOADS = {w.name: w for w in (Reference, LearnGrid)}
