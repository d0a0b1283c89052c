"""Benchmark runtime records.

One row per (ontology, expansion-ordering) pair: the reasoning cost in rule
steps and how the run ended.  A timeout row carries the per-test budget as
its cost, and nothing downstream values a timeout again.  These tables are
the input to threshold computation, classifier training and the report.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from dataclasses import dataclass

FINISHED = "finished"
TIMEOUT = "timeout"
INCONSISTENT = "inconsistent"

OUTCOMES = (FINISHED, TIMEOUT, INCONSISTENT)

RUNTIME_HEADER = ["id", "config", "cost", "outcome"]


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
    write_csv(path, RUNTIME_HEADER, ([r.ontology_id, r.config, repr(r.cost), r.outcome] for r in rows))


def write_csv(path: str | None, header: list[str], rows) -> None:
    """`header`, then `rows`, as CSV lines to `path`, or to stdout if None."""
    with open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_csv(path: str, header: list[str], parse) -> list:
    """`parse` of every row under `header` in a CSV file.  A wrong header, a
    line the csv module cannot read (a field over its size limit, say) or a
    row `parse` rejects with ValueError raises ValueError naming the path
    and the line."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            if next(r, None) != header:
                raise ValueError("unexpected CSV header")
            return [parse(row) for row in r]
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {max(r.line_num, 1)}: {exc}") from exc


def read_runtime_csv(path: str) -> list[RuntimeRow]:
    seen: set[tuple[str, str]] = set()

    def parse(row: list[str]) -> RuntimeRow:
        if len(row) != 4:
            raise ValueError(f"expected 4 fields, got {len(row)}")
        if (row[0], row[1]) in seen:
            raise ValueError(f"duplicate row for id {row[0]!r} under config {row[1]!r}")
        seen.add((row[0], row[1]))
        return RuntimeRow(row[0], row[1], float(row[2]), row[3])

    return read_csv(path, RUNTIME_HEADER, parse)
