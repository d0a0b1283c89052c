"""Benchmark runtime records.

One row per (ontology, expansion-ordering) pair: the reasoning cost in rule
steps and how the run ended.  Timeout rows carry the per-test budget as
their cost so aggregate statistics stay finite.  These tables are the input
to both threshold computation and classifier training.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

FINISHED = "finished"
TIMEOUT = "timeout"
INCONSISTENT = "inconsistent"

OUTCOMES = (FINISHED, TIMEOUT, INCONSISTENT)


@dataclass(frozen=True)
class RuntimeRow:
    ontology_id: str
    config: str
    cost: float
    outcome: str

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if not (math.isfinite(self.cost) and self.cost >= 0.0):
            raise ValueError(f"cost {self.cost!r} is not a finite non-negative number")


def write_runtime_csv(rows: list[RuntimeRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("id", "config", "cost", "outcome"))
        for r in rows:
            w.writerow((r.ontology_id, r.config, repr(r.cost), r.outcome))


def read_runtime_csv(path: str) -> list[RuntimeRow]:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != ["id", "config", "cost", "outcome"]:
            raise ValueError(f"unexpected runtime CSV header in {path}")
        rows = []
        seen: set[tuple[str, str]] = set()
        for row in r:
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 fields, got {len(row)}")
                if (row[0], row[1]) in seen:
                    raise ValueError(f"duplicate row for id {row[0]!r} under config {row[1]!r}")
                seen.add((row[0], row[1]))
                rows.append(RuntimeRow(row[0], row[1], float(row[2]), row[3]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {r.line_num}: {exc}") from exc
        return rows


def rows_by_ontology(rows: list[RuntimeRow]) -> dict[str, list[RuntimeRow]]:
    out: dict[str, list[RuntimeRow]] = {}
    for r in rows:
        out.setdefault(r.ontology_id, []).append(r)
    return out


def rows_by_config(rows: list[RuntimeRow]) -> dict[str, list[RuntimeRow]]:
    out: dict[str, list[RuntimeRow]] = {}
    for r in rows:
        out.setdefault(r.config, []).append(r)
    return out
