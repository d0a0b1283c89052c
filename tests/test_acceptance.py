"""Acceptance tests: binding correctness and performance properties.

Covers, in order: threshold and priority arithmetic on frozen reference
statistics, selection replay on reference runtime samples, tableau agreement
with an exhaustive model-search oracle under every ordering, structural
invariants of the child orderings, closed-form checks of the learning
components, the end-to-end speedup of the learned selector over the default
ordering on a held-out split, bitwise determinism of full pipeline runs,
and completeness of the emitted report statistics."""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.bench.harness import run_pipeline
from ordsel.cli import QUICK_GRID
from ordsel.dag import AND, encode_dag
from ordsel.features import FeatureVector, N_FEATURES
from ordsel.heuristics import (
    ASCENDING,
    CONFIGS,
    apply_ordering,
    parse_config,
)
from ordsel.krss import parse_ontology
from ordsel.learn.pipeline import (
    BAD,
    GOOD,
    ConfigModel,
    FittedPipeline,
    GridPoint,
    ModelBundle,
    assign_priorities,
    combine_threshold_stats,
    cross_validate,
    label_examples,
    save_bundle,
    select_heuristic,
)
from ordsel.learn.svm import svm_predict, svm_train
from ordsel.learn.transforms import mutual_information, pca_fit, pca_transform
from modelsearch import class_satisfiability
from ordsel.runtimes import FINISHED, TIMEOUT, RuntimeRow, write_runtime_csv
from ordsel.tableau import SATISFIABLE, UNSATISFIABLE, class_ref, is_satisfiable

from conftest import children_in_order, random_ontology_text

# ---------------------------------------------------------- reference data
# Frozen reference measurements from a large-scale deployment of the same
# twelve orderings: per-ordering (mean, population std) of finished costs in
# milliseconds, the cross-validated accuracy of each ordering's classifier,
# and per-sample sweep costs under a 500,000 ms timeout.

COST_STATS_MS = (
    (90670.0, 45240.0),
    (74557.0, 41093.0),
    (84560.0, 44969.0),
    (70336.0, 30237.0),
    (82350.0, 39744.0),
    (68626.0, 31692.0),
    (119611.0, 70340.0),
    (83761.0, 48232.0),
    (85775.0, 45791.0),
    (71612.0, 31736.0),
    (99992.0, 52981.0),
    (71706.0, 39864.0),
)

CV_ACCURACIES = (0.95, 0.83, 0.89, 0.89, 0.97, 0.91, 0.86, 0.82, 0.87, 0.93, 0.91, 0.84)
EXPECTED_PRIORITIES = (2, 11, 6, 7, 1, 4, 9, 12, 8, 3, 5, 10)

REFERENCE_BUDGET_MS = 500_000.0
REFERENCE_THRESHOLD_MS = 127_122.0

# Two reference samples: cost per ordering 1..12, None meaning the budget
# was exhausted.  The third case has no finisher at all.
SAMPLE_ALL_FINISH = (
    219016.0, 98874.0, 215667.0, 90479.0, 219501.0, 104240.0,
    225228.0, 98056.0, 212528.0, 87984.0, 214417.0, 109944.0,
)
SAMPLE_MOSTLY_TIMEOUT = (
    None, 33833.0, None, 28795.0, None, 36608.0,
    None, None, None, 22632.0, None, None,
)
SAMPLE_NO_FINISHER = (None,) * 12


# ------------------------------------------------------- threshold arithmetic


def test_threshold_matches_reference_statistics():
    threshold = combine_threshold_stats(list(COST_STATS_MS))
    assert abs(threshold - REFERENCE_THRESHOLD_MS) <= 1.0


def test_priorities_match_reference_accuracies():
    acc = {str(i + 1): a for i, a in enumerate(CV_ACCURACIES)}
    pri = assign_priorities(acc)
    assert pri == {str(i + 1): p for i, p in enumerate(EXPECTED_PRIORITIES)}


# ----------------------------------------------------------- selection replay


def _sample_rows(costs):
    rows = []
    for i, cost in enumerate(costs):
        if cost is None:
            rows.append(RuntimeRow("s", str(i + 1), REFERENCE_BUDGET_MS, TIMEOUT))
        else:
            rows.append(RuntimeRow("s", str(i + 1), cost, FINISHED))
    return rows


def _replay_bundle(costs):
    """A bundle whose classifiers reproduce the true labels of one sample
    and whose priorities come from the reference accuracies."""
    labels = label_examples(_sample_rows(costs), REFERENCE_THRESHOLD_MS)
    models = {}
    for i in range(12):
        c = str(i + 1)
        pipeline = FittedPipeline(
            selected=(),
            scaler_mean=np.zeros(0),
            scaler_std=np.zeros(0),
            pca_mean=np.zeros(0),
            pca_components=np.zeros((0, 0)),
            svm=None,
            constant=labels[c]["s"],
        )
        models[c] = ConfigModel(params=None, accuracy=CV_ACCURACIES[i], pipeline=pipeline)
    priorities = {str(i + 1): p for i, p in enumerate(EXPECTED_PRIORITIES)}
    return ModelBundle(threshold=REFERENCE_THRESHOLD_MS, models=models, priorities=priorities)


ZERO_FV = FeatureVector((0.0,) * N_FEATURES)


def test_selection_replay_on_reference_samples():
    # all orderings finish; the cheap half lands under the threshold and the
    # best-priority good ordering is configuration 10
    labels = label_examples(_sample_rows(SAMPLE_ALL_FINISH), REFERENCE_THRESHOLD_MS)
    goods = {c for c in labels if labels[c]["s"] == GOOD}
    assert goods == {"2", "4", "6", "8", "10", "12"}
    assert select_heuristic(_replay_bundle(SAMPLE_ALL_FINISH), ZERO_FV) == "10"

    # only four orderings finish, all under threshold; 10 still wins
    labels = label_examples(_sample_rows(SAMPLE_MOSTLY_TIMEOUT), REFERENCE_THRESHOLD_MS)
    goods = {c for c in labels if labels[c]["s"] == GOOD}
    assert goods == {"2", "4", "6", "10"}
    assert select_heuristic(_replay_bundle(SAMPLE_MOSTLY_TIMEOUT), ZERO_FV) == "10"


def test_selection_fallback_when_nothing_predicted_good():
    # every classifier votes bad: fall back to the lowest-priority ordering
    assert select_heuristic(_replay_bundle(SAMPLE_NO_FINISHER), ZERO_FV) == "8"


# -------------------------------------------------------- tableau vs. oracle


def test_tableau_matches_exhaustive_oracle_under_all_orderings():
    """Across seeded random ontologies small enough for the bounded
    model-search oracle, class satisfiability must agree with brute force
    for every named class under no-sort and all twelve orderings."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    config_labels = ["0"] + [str(i) for i in range(1, 13)]
    checks = 0
    for _ in range(220):
        onto = parse_ontology(random_ontology_text(rng))
        _, oracle = class_satisfiability(onto, max_domain=3)
        d = encode_dag(onto)
        for label in config_labels:
            odag = apply_ordering(d, parse_config(label))
            for name in onto.classes:
                res = is_satisfiable(odag, class_ref(d, name), 200_000)
                checks += 1
                assert res.outcome in (SATISFIABLE, UNSATISFIABLE), (label, name)
                assert (res.outcome == SATISFIABLE) == oracle[name], (
                    onto,
                    label,
                    name,
                    res.outcome,
                )
    assert checks >= 200 * 13
    assert time.monotonic() - started < 60.0


# --------------------------------------------------------- ordering invariants


def _invariant_text(rng):
    """Wider random TBoxes than the oracle generator allows: more classes
    and broader disjunctions give and-vertices with many children."""
    classes = [f"C{i}" for i in range(int(rng.integers(4, 9)))]
    roles = [f"R{i}" for i in range(int(rng.integers(1, 3)))]

    def concept(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            return str(rng.choice(classes))
        if roll < 0.38:
            return f"(not {concept(depth - 1)})"
        if roll < 0.78:
            op = "and" if roll < 0.58 else "or"
            width = int(rng.integers(2, 5))
            parts = " ".join(concept(depth - 1) for _ in range(width))
            return f"({op} {parts})"
        q = "some" if roll < 0.9 else "all"
        return f"({q} {rng.choice(roles)} {concept(depth - 1)})"

    lines = []
    for _ in range(int(rng.integers(3, 9))):
        lines.append(f"(implies {rng.choice(classes)} {concept(3)})")
    return "\n".join(lines) + "\n"


def test_child_orderings_satisfy_invariants():
    """Every ordered and-vertex must be a permutation of its children,
    monotone in the configured metric per direction, put generating
    children first under 'p', and preserve encoding order on ties."""
    rng = np.random.default_rng(99)
    pairs = 0
    while pairs < 1000:
        d = encode_dag(parse_ontology(_invariant_text(rng)))
        and_vertices = [vid for vid, v in enumerate(d.vertices) if v.op == AND]
        if not and_vertices:
            continue
        cfg = CONFIGS[int(rng.integers(12))]
        odag = apply_ordering(d, cfg)
        for vid in and_vertices:
            children = d.vertices[vid].children
            perm = odag.permutations[vid]
            ordered = children_in_order(odag, vid)
            # permutation of the original children
            assert sorted(perm) == list(range(len(children)))
            assert Counter(ordered) == Counter(children)
            stats = d.vertices[vid].child_stats
            asc = cfg.direction == ASCENDING
            for a, b in zip(perm, perm[1:]):
                sa, sb = stats[a], stats[b]
                ga = 0 if (cfg.prefer_generating and sa.generating) else (
                    1 if cfg.prefer_generating else 0
                )
                gb = 0 if (cfg.prefer_generating and sb.generating) else (
                    1 if cfg.prefer_generating else 0
                )
                # generating children lead under 'p'
                assert ga <= gb, (vid, cfg.label)
                if ga != gb:
                    continue
                va = getattr(sa, cfg.metric)
                vb = getattr(sb, cfg.metric)
                # metric-monotone in the configured direction
                if asc:
                    assert va <= vb, (vid, cfg.label)
                else:
                    assert va >= vb, (vid, cfg.label)
                # ties keep encoding order
                if va == vb:
                    assert a < b, (vid, cfg.label)
            pairs += 1
    # no-sort keeps encoding order everywhere
    d = encode_dag(parse_ontology(_invariant_text(np.random.default_rng(7))))
    identity = apply_ordering(d, None)
    for vid, v in enumerate(d.vertices):
        if v.op == AND:
            assert children_in_order(identity, vid) == list(v.children)


# ------------------------------------------------------------ learning oracles


def test_pca_recovers_known_direction_fully():
    direction = np.array([1.0, 2.0]) / math.sqrt(5.0)
    x = np.outer(np.linspace(-3.0, 3.0, 10), direction)
    mean, comps = pca_fit(x, 1)
    assert np.allclose(comps[0], direction, atol=1e-6)
    # all variance lies along the line: one component reconstructs exactly
    z = pca_transform(x, mean, comps)
    assert np.allclose(z @ comps + mean, x, atol=1e-9)


def test_rbf_svm_fits_xor_exactly():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = svm_train(x, y, kernel="rbf", c=10.0, gamma=1.0)
    assert np.array_equal(svm_predict(model, x), y)


def test_mutual_information_matches_closed_form():
    # a balanced binary feature identical to the labels carries exactly
    # one bit
    y = np.array([1.0] * 8 + [-1.0] * 8)
    x = (y > 0).astype(float).reshape(-1, 1)
    scores = mutual_information(x, y)
    assert abs(scores[0] - 1.0) <= 1e-9


def test_cross_validation_has_no_leakage():
    rng = np.random.default_rng(123)
    x = rng.normal(size=(100, 8))
    y = np.array([GOOD, BAD] * 50)
    acc = cross_validate(x, y, GridPoint(k=8, n_components=4, kernel="linear", c=1.0), n_folds=10)
    assert acc <= 0.5 + 0.15


# ----------------------------------------------------------------- end to end

PIPELINE_SPEC = CorpusSpec(count=150, seed=42)
PIPELINE_BUDGET = 12_000


@pytest.fixture(scope="module")
def pipeline_runs():
    """Two complete corpus-to-report runs with identical seeds, timed."""
    runs = []
    started = time.monotonic()
    for _ in range(2):
        instances = generate_corpus(PIPELINE_SPEC)
        corpus = [(inst.ontology_id, inst.text) for inst in instances]
        result = run_pipeline(
            corpus,
            budget=PIPELINE_BUDGET,
            seed=42,
            grid=QUICK_GRID,
            n_folds=10,
            test_fraction=0.25,
        )
        runs.append((instances, result))
    return runs, time.monotonic() - started


def test_selector_beats_default_on_held_out_corpus(pipeline_runs):
    runs, elapsed = pipeline_runs
    instances, result = runs[0]
    eligible = {r.ontology_id for r in result.eligible_rows}
    sensitive = {i.ontology_id for i in instances if i.family is not None}
    assert len(eligible) >= 120
    assert len(eligible & sensitive) / len(eligible) >= 0.40
    # geometric-mean step-count speedup over the default ordering on the
    # held-out quarter
    assert result.report.geomean_ratio >= 2.0
    # and strictly fewer budget exhaustions
    assert result.report.learned_timeouts < result.report.standard_timeouts
    assert elapsed < 600.0


def test_pipeline_runs_are_byte_identical(pipeline_runs, tmp_path):
    runs, _ = pipeline_runs
    blobs = []
    for idx, (_, result) in enumerate(runs):
        rt = str(tmp_path / f"runtimes{idx}.csv")
        mb = str(tmp_path / f"model{idx}.json")
        write_runtime_csv(result.bench.rows, rt)
        save_bundle(result.bundle, mb)
        blobs.append(
            (
                Path(rt).read_bytes(),
                Path(mb).read_bytes(),
                result.report_text.encode(),
            )
        )
    assert blobs[0][0] == blobs[1][0], "runtime tables differ between runs"
    assert blobs[0][1] == blobs[1][1], "model bundles differ between runs"
    assert blobs[0][2] == blobs[1][2], "reports differ between runs"


def test_report_contains_all_statistic_families(pipeline_runs):
    runs, _ = pipeline_runs
    _, result = runs[0]
    text = result.report_text
    # speedup aggregates
    assert "maximum ratio" in text
    assert "arithmetic mean" in text
    assert "geometric mean" in text
    # per-ordering classifier quality
    assert "F-scores" in text
    # cost sums and budget exhaustions for both selectors
    assert "Cost totals" in text
    assert "learned:  sum" in text
    assert "standard: sum" in text
    assert "timeouts" in text
    # per-ontology sweep grid with the chosen ordering marked
    assert "Per-ontology sweep costs" in text
    assert "*" in text
    rep = result.report
    for value in (
        rep.max_ratio,
        rep.mean_ratio,
        rep.geomean_ratio,
        rep.learned_sum,
        rep.standard_sum,
        rep.learned_mean,
        rep.standard_mean,
    ):
        assert math.isfinite(value)
