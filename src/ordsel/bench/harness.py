"""Benchmark harness: sweep a corpus under the twelve expansion orderings,
filter eligible ontologies, split train/test, and report speedups of the
learned selector against the rule-based default ordering.

Costs are deterministic rule-step counts, so a single run of each
(ontology, configuration) pair fully determines the table.  A timeout row
costs the per-test budget, and nothing re-values it; a speedup ratio
floors both of its costs at one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dag import encode_dag
from ..features import FeatureVector, extract_features
from ..heuristics import CONFIG_NUMBERS, apply_ordering, default_config, parse_config
from ..krss import ParseError, parse_ontology
from ..learn.pipeline import (
    GridPoint,
    ModelBundle,
    choose_heuristic,
    f_score,
    label_examples,
    predict_labels,
    train_model_bundle,
)
from ..learn.svm import TooFewExamples
from ..runtimes import FINISHED, INCONSISTENT, TIMEOUT, RuntimeRow
from ..tableau import SweepResult, UnsupportedAxiom, check_budget, check_supported, satisfiability_sweep
from ..workers import ordered_map

DEFAULT_LABEL = "default"


class MismatchedIds(ValueError):
    """Raised when learned and standard cost maps disagree on ontology ids."""


@dataclass(frozen=True)
class BenchResult:
    rows: list[RuntimeRow]
    features: dict[str, FeatureVector]
    parse_failures: list[tuple[str, str]]


def run_benchmark(
    corpus: list[tuple[str, str]],
    configs: tuple[str, ...] = CONFIG_NUMBERS + (DEFAULT_LABEL,),
    budget: int = 12000,
) -> BenchResult:
    """One satisfiability sweep per (ontology, configuration).

    `corpus` is a list of (ontology id, source text) pairs, and rows follow
    the order of `configs`.  The pseudo configuration "default" takes the
    sweep of the ordering the rule-based default picks for that
    ontology's DAG.  Orderings that permute every ``and`` vertex alike run
    the same sweep, so each text sweeps each such permutation once and
    every label that shares it gets that sweep: the default's ordering is
    always one of the twelve, so its row is one lookup in the text's sweep
    table.
    Sources that fail to parse, or hold an RBox axiom or ABox assertion
    (see ``check_supported``), are recorded and skipped, not fatal.

    Rows are a function of (text, configs, budget) alone, so each distinct
    text is benchmarked once per call, in the pool of forked workers that
    training shares (`workers.ordered_map`, with no option for it), and a
    repeat gets the same features, rows or failure message under its own
    id; rows keep corpus order.  Each worker builds its own DAGs, and
    nothing is kept between calls.
    """
    if not corpus:
        raise ValueError("empty corpus")
    check_budget(budget)
    rows: list[RuntimeRow] = []
    features: dict[str, FeatureVector] = {}
    failures: list[tuple[str, str]] = []
    texts = list(dict.fromkeys(text for _, text in corpus))
    done = dict(zip(texts, ordered_map(_benchmark_text, [(t, configs, budget) for t in texts])))
    for oid, text in corpus:
        result = done[text]
        if isinstance(result, str):
            failures.append((oid, result))
            continue
        features[oid], cells = result
        rows.extend(RuntimeRow(oid, *cell) for cell in cells)
    return BenchResult(rows=rows, features=features, parse_failures=failures)


def _benchmark_text(
    text: str, configs: tuple[str, ...], budget: int
) -> tuple[FeatureVector, list[tuple[str, float, str]]] | str:
    """The features and the (label, cost, outcome) cells of one source
    text, in row order, or the message that rules the text out."""
    try:
        onto = parse_ontology(text)
        check_supported(onto)
    except (ParseError, UnsupportedAxiom) as exc:
        return str(exc)
    d = encode_dag(onto)
    fv = extract_features(onto, d)
    cells: list[tuple[str, float, str]] = []
    sweeps: dict[tuple, SweepResult] = {}  # keyed on the permutations, in vertex order
    for label in configs:
        cfg = default_config(d) if label == DEFAULT_LABEL else parse_config(label)
        odag = apply_ordering(d, cfg)
        key = tuple(odag.permutations.values())
        sweep = sweeps.get(key)
        if sweep is None:
            sweep = sweeps[key] = satisfiability_sweep(odag, budget)
        if sweep.timed_out:  # the budget is the row's cost; nothing re-values it
            cells.append((label, float(budget), TIMEOUT))
        else:
            outcome = FINISHED if sweep.consistent else INCONSISTENT
            cells.append((label, float(sweep.total_steps), outcome))
    return fv, cells


# -------------------------------------------------------------- filtering


def filter_eligible(rows: list[RuntimeRow]) -> tuple[list[RuntimeRow], list[tuple[str, str]]]:
    """Eligibility filter over one runtime table.

    Drops ontologies that are inconsistent and ontologies where every real
    configuration timed out.  Costs are deterministic, so a repeat table
    would be identical and there is no run-to-run stability to check.
    Returns the rows of the retained ontologies plus an exclusion log of
    (ontology id, reason).
    """
    if not rows:
        raise ValueError("no runtime rows")
    real = set(CONFIG_NUMBERS)
    outcomes: dict[str, set[str]] = {}  # per ontology, its real configs' outcomes
    for r in rows:
        if r.config in real:
            outcomes.setdefault(r.ontology_id, set()).add(r.outcome)
    excluded: dict[str, str] = {}
    for oid, seen in outcomes.items():
        if INCONSISTENT in seen:
            excluded[oid] = "inconsistent"
        elif seen == {TIMEOUT}:
            excluded[oid] = "all-timeout"
    kept = [r for r in rows if r.ontology_id not in excluded]
    return kept, sorted(excluded.items())


def check_test_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")


def check_split(n: int, fraction: float) -> int:
    """The test side's size, ceil(n * fraction), of a split of n ids;
    refuses fewer than 4 ids and a fraction that would take them all.
    Refused for n, a split is refused for every smaller n too."""
    if n < 4:
        raise TooFewExamples(f"need at least 4 examples to split, got {n}")
    check_test_fraction(fraction)
    n_test = math.ceil(n * fraction)
    if n_test == n:
        raise TooFewExamples(f"test fraction {fraction} of {n} ids leaves none for training")
    return n_test


def split_train_test(
    ids: list[str], fraction: float = 0.25, seed: int = 0
) -> tuple[list[str], list[str]]:
    """Seeded shuffle split; the test side takes ceil(n * fraction) ids
    (see ``check_split``).  Both sides come back sorted."""
    n_test = check_split(len(ids), fraction)
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(sorted(ids)))
    return sorted(order[n_test:]), sorted(order[:n_test])


# ---------------------------------------------------------------- speedup


@dataclass(frozen=True)
class SpeedupReport:
    ids: tuple[str, ...]
    max_ratio: float
    mean_ratio: float
    geomean_ratio: float
    learned_sum: float
    standard_sum: float
    learned_mean: float
    standard_mean: float
    learned_timeouts: int
    standard_timeouts: int


def speedup_report(
    learned: dict[str, tuple[float, str]],
    standard: dict[str, tuple[float, str]],
) -> SpeedupReport:
    """Per-ontology speedup of the learned selector over the standard
    configuration.  A timeout counts at its recorded cost; sums and means
    are of the raw costs, and each ratio floors both costs at one step so
    it is positive and finite."""
    if set(learned) != set(standard):
        raise MismatchedIds(
            f"learned/standard id mismatch: {sorted(set(learned) ^ set(standard))}"
        )
    ids = tuple(sorted(learned))
    lcosts, scosts, ratios = [], [], []
    lto = sto = 0
    for oid in ids:
        lc, lout = learned[oid]
        sc, sout = standard[oid]
        lto += lout == TIMEOUT
        sto += sout == TIMEOUT
        lcosts.append(lc)
        scosts.append(sc)
        ratios.append(max(sc, 1.0) / max(lc, 1.0))
    n = len(ids)
    if n == 0:
        raise ValueError("empty cost maps")
    return SpeedupReport(
        ids=ids,
        max_ratio=max(ratios),
        mean_ratio=sum(ratios) / n,
        geomean_ratio=math.exp(sum(math.log(r) for r in ratios) / n),
        learned_sum=sum(lcosts),
        standard_sum=sum(scosts),
        learned_mean=sum(lcosts) / n,
        standard_mean=sum(scosts) / n,
        learned_timeouts=lto,
        standard_timeouts=sto,
    )


# ------------------------------------------------------------- end to end


@dataclass(frozen=True)
class PipelineResult:
    bench: BenchResult
    eligible_rows: list[RuntimeRow]
    exclusions: list[tuple[str, str]]
    train_ids: list[str]
    test_ids: list[str]
    bundle: ModelBundle
    selections: dict[str, str]  # test ontology id -> chosen config label
    report: SpeedupReport
    report_text: str


def _cost_map(
    indexed: dict[tuple[str, str], RuntimeRow], ids: list[str], pick: dict[str, str]
) -> dict[str, tuple[float, str]]:
    """Each id's (cost, outcome) under its config in `pick`; all are swept."""
    return {oid: (r.cost, r.outcome) for oid in ids for r in [indexed[oid, pick[oid]]]}


def run_pipeline(
    corpus: list[tuple[str, str]],
    budget: int = 12000,
    seed: int = 0,
    grid: list[GridPoint] | None = None,
    n_folds: int = 10,
    test_fraction: float = 0.25,
) -> PipelineResult:
    """Full experiment: benchmark -> filter -> split -> train -> select ->
    speedup report.  The threshold and all models are fit on training
    ontologies only; the held-out quarter is scored with the learned
    selector against the per-ontology default configuration.  The learner
    reads the twelve configurations' rows and skips the ``default`` rows,
    which only the report and the standard costs use."""
    bench = run_benchmark(corpus, budget=budget)
    eligible, exclusions = filter_eligible(bench.rows)
    ids = sorted({r.ontology_id for r in eligible})
    train_ids, test_ids = split_train_test(ids, fraction=test_fraction, seed=seed)
    train_set, test_set = set(train_ids), set(test_ids)
    train_rows = [r for r in eligible if r.ontology_id in train_set]
    feature_rows = [(oid, bench.features[oid]) for oid in train_ids]
    bundle = train_model_bundle(feature_rows, train_rows, grid=grid, n_folds=n_folds, seed=seed)

    # each classifier predicts each test ontology once, for both uses
    preds = {oid: predict_labels(bundle, bench.features[oid]) for oid in test_ids}
    selections = {oid: choose_heuristic(bundle, preds[oid]) for oid in test_ids}
    indexed = {(r.ontology_id, r.config): r for r in eligible}
    learned = _cost_map(indexed, test_ids, selections)
    standard = _cost_map(indexed, test_ids, {oid: DEFAULT_LABEL for oid in test_ids})
    report = speedup_report(learned, standard)

    truth = label_examples([r for r in eligible if r.ontology_id in test_set], bundle.threshold)
    f_scores = {
        label: f_score([truth[label][oid] for oid in test_ids], [preds[oid][label] for oid in test_ids])
        for label in CONFIG_NUMBERS
    }

    text = render_report(indexed, test_ids, selections, report, f_scores, budget)
    return PipelineResult(
        bench=bench,
        eligible_rows=eligible,
        exclusions=exclusions,
        train_ids=train_ids,
        test_ids=test_ids,
        bundle=bundle,
        selections=selections,
        report=report,
        report_text=text,
    )


# ---------------------------------------------------------------- report


def render_report(
    indexed: dict[tuple[str, str], RuntimeRow],
    test_ids: list[str],
    selections: dict[str, str],
    report: SpeedupReport,
    f_scores: dict[str, float],
    budget: int,
) -> str:
    """Plain-text report: per-test-ontology cost grid over all orderings
    (chosen one starred, timeouts as TO), per-ordering F-scores, and the
    aggregate speedup and cost-sum statistics."""

    def cell(oid: str, label: str) -> str:
        row = indexed[oid, label]
        body = "TO" if row.outcome == TIMEOUT else f"{row.cost:.0f}"
        return f"*{body}" if selections[oid] == label else body

    lines = []
    lines.append("Per-ontology sweep costs on the test split (steps; TO = budget "
                 f"{budget} exhausted; * = selected ordering)")
    header = ["id"] + [f"c{label}" for label in CONFIG_NUMBERS] + [DEFAULT_LABEL, "chosen"]
    lines.append("  ".join(f"{h:>8}" for h in header))
    for oid in test_ids:
        cells = [cell(oid, label) for label in CONFIG_NUMBERS]
        cells.append(cell(oid, DEFAULT_LABEL))
        cells.append(selections[oid])
        lines.append("  ".join(f"{c:>8}" for c in [oid] + cells))
    lines.append("")
    lines.append("Classifier F-scores on the test split (good class positive)")
    lines.append("  ".join(f"{('c' + label):>8}" for label in CONFIG_NUMBERS))
    lines.append("  ".join(f"{f_scores[label]:>8.3f}" for label in CONFIG_NUMBERS))
    lines.append("")
    lines.append("Speedup of learned selection over the default ordering")
    lines.append(f"  maximum ratio:        {report.max_ratio:.2f}")
    lines.append(f"  arithmetic mean:      {report.mean_ratio:.2f}")
    lines.append(f"  geometric mean:       {report.geomean_ratio:.2f}")
    lines.append("")
    lines.append("Cost totals on the test split (timeouts at budget)")
    lines.append(f"  learned:  sum {report.learned_sum:.0f}  mean {report.learned_mean:.2f}"
                 f"  timeouts {report.learned_timeouts}")
    lines.append(f"  standard: sum {report.standard_sum:.0f}  mean {report.standard_mean:.2f}"
                 f"  timeouts {report.standard_timeouts}")
    return "\n".join(lines) + "\n"
