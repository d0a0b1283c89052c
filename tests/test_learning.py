"""Tests for the transforms, the SVM, and the per-configuration training
pipeline (threshold, labeling, cross-validation, grid search, priorities,
selection, persistence)."""

import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_children, naive_cross_validate, set_workers
from learning_oracle import mi_from_joint
from ordsel import workers
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.bench.harness import filter_eligible, run_benchmark
from ordsel.cli import QUICK_GRID, main
from ordsel.features import FeatureVector, N_FEATURES, write_feature_csv
from ordsel.heuristics import CONFIG_NUMBERS
from ordsel.learn import pipeline
from ordsel.learn.pipeline import (
    BAD,
    GOOD,
    ConfigModel,
    CorruptModel,
    FittedPipeline,
    GridPoint,
    ModelBundle,
    VersionMismatch,
    assign_priorities,
    combine_threshold_stats,
    compute_threshold,
    cross_validate,
    cv_accuracies,
    default_grid,
    f_score,
    fit_config_pipeline,
    grid_search,
    label_examples,
    load_bundle,
    predict_labels,
    save_bundle,
    select_heuristic,
    stratified_folds,
    train_model_bundle,
)
from ordsel.learn.svm import (
    SingleClass,
    SvmModel,
    TooFewExamples,
    svm_decision,
    svm_predict,
    svm_train,
)
from ordsel.learn.transforms import (
    DegenerateData,
    apply_scaler,
    fit_scaler,
    mutual_information,
    pca_fit,
    pca_transform,
    select_top_k,
)
from ordsel.runtimes import FINISHED, TIMEOUT, RuntimeRow, write_runtime_csv

# ------------------------------------------------------------- transforms


def test_scaler_population_std():
    x = np.array([[1.0, 10.0], [3.0, 10.0]])
    mean, std = fit_scaler(x)
    assert np.allclose(mean, [2.0, 10.0])
    # population std of {1,3} is 1 (not sqrt(2))
    assert np.allclose(std, [1.0, 0.0])
    scaled = apply_scaler(x, mean, std)
    assert np.allclose(scaled[:, 0], [-1.0, 1.0])
    # constant column standardizes to exactly 0, never NaN
    assert np.all(scaled[:, 1] == 0.0)


def test_scaler_rejects_bad_shape():
    with pytest.raises(DegenerateData):
        fit_scaler(np.zeros(5))
    with pytest.raises(DegenerateData):
        fit_scaler(np.zeros((0, 3)))


@pytest.mark.parametrize(
    "column",
    [[1e300, -1e300, 0.0], [1e308, 1e308, 1e308]],
    ids=["spread", "mean"],
)
def test_scaler_rejects_columns_that_overflow(column):
    x = np.column_stack([np.arange(3.0), column])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing reaches stderr
        with pytest.raises(DegenerateData, match="not finite"):
            fit_scaler(x)


def test_mi_from_joint_exact():
    assert math.isclose(mi_from_joint(np.array([[2.0, 0.0], [0.0, 2.0]])), 1.0, abs_tol=1e-12)
    assert mi_from_joint(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0
    assert mi_from_joint(np.zeros((2, 2))) == 0.0


def test_mutual_information_perfect_and_constant():
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    x = np.column_stack(
        [
            (y > 0).astype(float),  # perfectly informative
            np.ones(8),  # constant: zero MI by construction
        ]
    )
    scores = mutual_information(x, y)
    assert math.isclose(scores[0], 1.0, abs_tol=1e-9)
    assert scores[1] == 0.0


def test_mutual_information_shape_check():
    with pytest.raises(DegenerateData):
        mutual_information(np.zeros((4, 2)), np.zeros(5))


def test_select_top_k_ties_and_clamping():
    scores = np.array([3.0, 1.0, 3.0, 2.0])
    assert select_top_k(scores, 2) == [0, 2]  # tie at 3.0 -> lower index
    assert select_top_k(scores, 3) == [0, 2, 3]
    assert select_top_k(scores, 10) == [0, 1, 2, 3]  # clamped to n
    assert select_top_k(scores, 0) == []


def test_pca_recovers_line_direction():
    d = np.array([0.6, 0.8])
    x = np.outer([-2.0, -1.0, 1.0, 2.0], d)
    mean, comps = pca_fit(x, 1)
    assert np.allclose(mean, [0.0, 0.0], atol=1e-12)
    # sign canonicalization: largest-magnitude coefficient positive
    assert np.allclose(comps[0], d, atol=1e-6)
    z = pca_transform(x, mean, comps)
    assert np.allclose(z[:, 0], [-2.0, -1.0, 1.0, 2.0], atol=1e-9)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 4))
    mean, comps = pca_fit(x, 4)
    z = pca_transform(x, mean, comps)
    assert np.allclose(z @ comps + mean, x, atol=1e-9)


def test_pca_rejects_bad_requests():
    x = np.zeros((5, 3))
    with pytest.raises(DegenerateData):
        pca_fit(x, 0)
    with pytest.raises(DegenerateData):
        pca_fit(x, 4)
    with pytest.raises(DegenerateData):
        pca_fit(np.zeros((1, 3)), 1)


# -------------------------------------------------------------------- SVM


def _linear_data():
    rng = np.random.default_rng(7)
    a = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(15, 2))
    b = rng.normal(loc=(2.0, 0.0), scale=0.3, size=(15, 2))
    x = np.vstack([a, b])
    y = np.array([-1.0] * 15 + [1.0] * 15)
    return x, y


def test_linear_svm_separates():
    x, y = _linear_data()
    model = svm_train(x, y, kernel="linear", c=10.0)
    assert np.array_equal(svm_predict(model, x), y)


def test_rbf_svm_solves_xor():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = svm_train(x, y, kernel="rbf", c=10.0, gamma=1.0)
    assert np.array_equal(svm_predict(model, x), y)


def test_svm_training_is_bitwise_deterministic():
    x, y = _linear_data()
    m1 = svm_train(x, y, kernel="rbf", c=5.0, gamma=0.5)
    m2 = svm_train(x, y, kernel="rbf", c=5.0, gamma=0.5)
    assert np.array_equal(m1.alpha, m2.alpha)
    assert m1.bias == m2.bias


def test_svm_input_validation():
    with pytest.raises(SingleClass):
        svm_train(np.zeros((4, 2)), np.ones(4))
    with pytest.raises(TooFewExamples):
        svm_train(np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(ValueError):
        svm_train(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))  # labels not +-1
    with pytest.raises(ValueError):
        svm_train(np.zeros((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]), kernel="rbf")  # no gamma
    with pytest.raises(ValueError):
        svm_train(np.zeros((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]), kernel="poly")


def test_decision_boundary_maps_to_positive():
    x, y = _linear_data()
    model = svm_train(x, y)
    dec = svm_decision(model, np.zeros((1, 2)))
    pred = svm_predict(model, np.zeros((1, 2)))
    assert pred[0] == (1.0 if dec[0] >= 0 else -1.0)


# -------------------------------------------------------- fitted pipelines


def test_fit_config_pipeline_predicts_training_data():
    x, y = _linear_data()
    # pad out to 5 columns with uninformative noise
    rng = np.random.default_rng(11)
    x = np.hstack([x, rng.normal(size=(len(x), 3))])
    fitted = fit_config_pipeline(x, y, GridPoint(k=2, n_components=2, kernel="linear", c=10.0))
    assert np.array_equal(fitted.predict(x), y)
    # informative column 0 must survive selection
    assert 0 in fitted.selected


def test_fit_config_pipeline_single_class():
    with pytest.raises(SingleClass):
        fit_config_pipeline(np.zeros((4, 3)), np.ones(4), GridPoint(2, 1, "linear", 1.0))


def test_constant_pipeline_predicts_constant():
    p = _const_pipeline(BAD)
    assert np.all(p.predict(np.zeros((3, N_FEATURES))) == BAD)


# -------------------------------------------------------- cross-validation


def test_stratified_folds_balance():
    y = np.array([GOOD] * 6 + [BAD] * 9)
    fold = stratified_folds(y, 3, seed=0)
    for f in range(3):
        assert np.count_nonzero((fold == f) & (y == GOOD)) == 2
        assert np.count_nonzero((fold == f) & (y == BAD)) == 3


def test_stratified_folds_seeded():
    y = np.array([GOOD, BAD] * 15)
    assert np.array_equal(stratified_folds(y, 5, seed=4), stratified_folds(y, 5, seed=4))


def test_cross_validate_separable():
    x, y = _linear_data()
    acc = cross_validate(x, y, GridPoint(k=2, n_components=2, kernel="linear", c=10.0), n_folds=5)
    assert acc == 1.0


def test_cross_validate_no_leakage_on_noise():
    # Labels independent of the features: pooled CV accuracy must hover at
    # chance.  A score well above chance would mean held-out data leaked
    # into transform fitting.
    rng = np.random.default_rng(123)
    x = rng.normal(size=(100, 8))
    y = np.array([GOOD, BAD] * 50)
    acc = cross_validate(x, y, GridPoint(k=8, n_components=4, kernel="linear", c=1.0), n_folds=10)
    assert acc <= 0.65


# ------------------------------------------------------------- grid search


def test_default_grid_dedupes_and_clamps():
    # 256 points less 60 repeats: at k=5 ten and "all" components clamp to
    # five, at k=10 "all" is ten, and with ten components gamma 1/10 is 0.1
    grid = default_grid()
    assert len(grid) == len(set(grid)) == 196
    for p in grid:
        assert p.n_components <= p.k


def test_grid_search_prefers_earlier_on_tie():
    x, y = _linear_data()
    grid = [
        GridPoint(k=2, n_components=2, kernel="linear", c=1.0),
        GridPoint(k=2, n_components=2, kernel="linear", c=10.0),
    ]
    point, acc = grid_search(x, y, grid=grid, n_folds=5)
    assert acc == 1.0
    assert point == grid[0]


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ValueError):
        grid_search(np.zeros((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]), grid=[])


def _noisy_data(n, n_features=N_FEATURES, seed=0):
    """Labels from two columns plus noise, so grid points score differently;
    every third column is integer-valued, so MI binning meets ties."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    x[:, ::3] = np.round(x[:, ::3] * 2.0)
    y = np.where(x[:, 0] + 0.7 * x[:, 1] + rng.normal(scale=0.8, size=n) > 0.0, GOOD, BAD)
    return x, y


def _one_bad_data():
    """Ten rows with a single BAD one, cut into twelve folds: the fold that
    validates the BAD row trains on one class, and three folds are empty."""
    x, _ = _noisy_data(10, 6, seed=4)
    y = np.full(10, GOOD)
    y[3] = BAD
    return x, y


# Points whose k and n_components clamp to what the data has: on 9 rows x 6
# columns in 3 folds (6 training rows) k=50 selects all 6 columns and at
# most 5 components fit.  Several points share a clamped shape, and some
# share a shape and a kernel but not gamma.
CLAMPED_GRID = [
    GridPoint(k=50, n_components=60, kernel="linear", c=1.0),
    GridPoint(k=6, n_components=9, kernel="rbf", c=10.0, gamma=0.5),
    GridPoint(k=6, n_components=2, kernel="rbf", c=10.0, gamma=0.5),
    GridPoint(k=6, n_components=2, kernel="rbf", c=10.0, gamma=3.0),
    GridPoint(k=6, n_components=3, kernel="rbf", c=10.0, gamma=3.0),
    GridPoint(k=2, n_components=5, kernel="linear", c=0.1),
    GridPoint(k=2, n_components=5, kernel="linear", c=100.0),
]

LEARN_GRID = [p for p in default_grid() if p.k == 10 and p.n_components == 5]

ORACLE_CASES = {
    "quick-grid": (_noisy_data(80, seed=1), QUICK_GRID, 10),
    "learn-grid": (_noisy_data(80, seed=2), LEARN_GRID, 10),
    "clamped": (_noisy_data(9, 6, seed=3), CLAMPED_GRID, 3),
    "skipped-folds": (_one_bad_data(), CLAMPED_GRID, 12),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_grid_search_equals_per_point_refit(case):
    (x, y), grid, n_folds = ORACLE_CASES[case]
    want = [naive_cross_validate(x, y, p, n_folds=n_folds, seed=42) for p in grid]
    if case != "skipped-folds":
        assert len(set(want)) > 1  # the grid points must be told apart
    assert cv_accuracies(x, y, grid, n_folds, 42) == want
    assert [cross_validate(x, y, p, n_folds=n_folds, seed=42) for p in grid] == want
    point, acc = grid_search(x, y, grid=grid, n_folds=n_folds, seed=42)
    assert acc == max(want)
    assert point == grid[want.index(acc)]


@pytest.mark.parametrize("case", ["clamped", "skipped-folds"])
def test_a_huge_fold_count_equals_one_fold_per_sample(case):
    # the folds past len(y) are empty, so the loop never visits them
    (x, y), grid, _ = ORACLE_CASES[case]
    assert cv_accuracies(x, y, grid, 10**18, 42) == cv_accuracies(x, y, grid, len(y), 42)


@pytest.mark.parametrize("case, usable_folds", [("learn-grid", 10), ("skipped-folds", 8)])
def test_grid_search_runs_mi_once_per_usable_fold(monkeypatch, case, usable_folds):
    (x, y), grid, n_folds = ORACLE_CASES[case]
    calls = []

    def counting(xt, yt):
        calls.append(len(xt))
        return mutual_information(xt, yt)

    monkeypatch.setattr(pipeline, "mutual_information", counting)
    grid_search(x, y, grid=grid, n_folds=n_folds, seed=42)
    assert len(calls) == usable_folds


# --------------------------------------------------- threshold and labels


def test_combine_threshold_stats_exact():
    assert combine_threshold_stats([(100.0, 50.0), (200.0, 100.0)]) == 225.0
    with pytest.raises(ValueError):
        combine_threshold_stats([])


def test_compute_threshold_ignores_unfinished():
    rows = [
        RuntimeRow("a", "1", 10.0, FINISHED),
        RuntimeRow("b", "1", 20.0, FINISHED),
        RuntimeRow("a", "2", 999.0, TIMEOUT),
        RuntimeRow("b", "2", 999.0, TIMEOUT),
    ]
    # config 1: mean 15, population std 5 -> 20; config 2 contributes
    # nothing, nor do the ten configurations without rows
    assert compute_threshold(rows) == 20.0


def test_label_examples_good_iff_finished_within_threshold():
    rows = [
        RuntimeRow("a", "1", 20.0, FINISHED),
        RuntimeRow("b", "1", 20.5, FINISHED),
        RuntimeRow("c", "1", 5.0, TIMEOUT),
        RuntimeRow("a", "default", 1.0, FINISHED),  # not a configuration
    ]
    labels = label_examples(rows, 20.0)
    assert labels == {"1": {"a": GOOD, "b": BAD, "c": BAD}} | {c: {} for c in CONFIG_NUMBERS[1:]}


# ---------------------------------------------------- priorities/selection

# Cross-validated accuracies for configurations 1..12 and the priority
# ranking they must induce (rank 1 = most accurate, ties toward the lower
# configuration number).
ACCURACIES = (0.95, 0.83, 0.89, 0.89, 0.97, 0.91, 0.86, 0.82, 0.87, 0.93, 0.91, 0.84)
PRIORITIES = (2, 11, 6, 7, 1, 4, 9, 12, 8, 3, 5, 10)


def test_assign_priorities_ranking_and_ties():
    acc = {str(i + 1): a for i, a in enumerate(ACCURACIES)}
    pri = assign_priorities(acc)
    assert pri == {str(i + 1): p for i, p in enumerate(PRIORITIES)}
    # the two 0.89 ties: lower config number gets the better rank
    assert pri["3"] < pri["4"]
    # the two 0.91 ties likewise
    assert pri["6"] < pri["11"]


def _const_pipeline(value):
    return FittedPipeline(
        selected=(),
        scaler_mean=np.zeros(0),
        scaler_std=np.zeros(0),
        pca_mean=np.zeros(0),
        pca_components=np.zeros((0, 0)),
        svm=None,
        constant=value,
    )


def _const_bundle(good_configs):
    models = {
        str(i + 1): ConfigModel(
            params=None,
            accuracy=ACCURACIES[i],
            pipeline=_const_pipeline(GOOD if (i + 1) in good_configs else BAD),
        )
        for i in range(12)
    }
    priorities = {str(i + 1): PRIORITIES[i] for i in range(12)}
    return ModelBundle(threshold=0.0, models=models, priorities=priorities)


ZERO_FV = FeatureVector((0.0,) * N_FEATURES)


def test_select_highest_priority_good():
    # goods {2,4,6,8,10,12} carry priorities {11,7,4,12,3,10}: best is 10
    assert select_heuristic(_const_bundle({2, 4, 6, 8, 10, 12}), ZERO_FV) == "10"
    assert select_heuristic(_const_bundle({2, 4, 6, 10}), ZERO_FV) == "10"
    assert select_heuristic(_const_bundle({5}), ZERO_FV) == "5"


def test_select_falls_back_to_lowest_priority():
    # nothing predicted good: take the priority-12 configuration (8)
    assert select_heuristic(_const_bundle(set()), ZERO_FV) == "8"


def test_predict_labels_shape():
    preds = predict_labels(_const_bundle({1}), ZERO_FV)
    assert set(preds) == {str(i) for i in range(1, 13)}
    assert preds["1"] == GOOD and preds["2"] == BAD


def test_f_score_values():
    g, b = GOOD, BAD
    assert f_score(np.array([g, g, b, b]), np.array([g, b, g, b])) == 0.5
    assert f_score(np.array([g, g]), np.array([g, g])) == 1.0
    assert f_score(np.array([g, b]), np.array([b, b])) == 0.0


# -------------------------------------------------- end-to-end bundle


def _bundle_training_data():
    """20 ontologies, 2 configurations with complementary cheap/timeout
    halves, split on feature column 0."""
    rng = np.random.default_rng(5)
    feature_rows = []
    runtime_rows = []
    for i in range(20):
        vals = rng.normal(size=N_FEATURES) * 0.01
        vals[0] = float(i)
        oid = f"o{i:02d}"
        feature_rows.append((oid, FeatureVector(tuple(vals))))
        if i < 10:
            runtime_rows.append(RuntimeRow(oid, "1", 10.0, FINISHED))
            runtime_rows.append(RuntimeRow(oid, "2", 5000.0, TIMEOUT))
        else:
            runtime_rows.append(RuntimeRow(oid, "1", 5000.0, TIMEOUT))
            runtime_rows.append(RuntimeRow(oid, "2", 10.0, FINISHED))
    return feature_rows, runtime_rows


def _all_configs(runtime_rows, copies=lambda c: "1" if int(c) % 2 else "2"):
    """The rows of every configuration, each a copy of the rows of the
    configuration `copies` names (by default: odd ones copy 1, even ones
    2), so training sees as few distinct labellings as the copied ones."""
    return [
        RuntimeRow(r.ontology_id, c, r.cost, r.outcome)
        for c in CONFIG_NUMBERS
        for r in runtime_rows
        if r.config == copies(c)
    ]


SMALL_GRID = [GridPoint(k=1, n_components=1, kernel="linear", c=10.0)]


def _train_small_bundle():
    """The two-model bundle of configurations 1 and 2, built from the steps
    `train_model_bundle` takes for each (which always trains all twelve)."""
    feature_rows, runtime_rows = _bundle_training_data()
    threshold = compute_threshold(runtime_rows)
    labels = label_examples(runtime_rows, threshold)
    x = np.asarray([fv.values for _, fv in feature_rows], dtype=float)
    models = {}
    for label in ("1", "2"):
        y = np.asarray([labels[label][oid] for oid, _ in feature_rows], dtype=float)
        point, acc = grid_search(x, y, grid=SMALL_GRID, n_folds=4, seed=0)
        models[label] = ConfigModel(params=point, accuracy=acc, pipeline=fit_config_pipeline(x, y, point))
    priorities = assign_priorities({label: m.accuracy for label, m in models.items()})
    return ModelBundle(threshold=threshold, models=models, priorities=priorities)


def _train_bundle_data(grid=SMALL_GRID):
    feature_rows, runtime_rows = _bundle_training_data()
    return train_model_bundle(feature_rows, _all_configs(runtime_rows), grid=grid, n_folds=4, seed=0)


def test_train_model_bundle_small():
    bundle = _train_bundle_data()
    # only finished costs (all exactly 10) feed the threshold
    assert bundle.threshold == 10.0
    assert tuple(bundle.models) == CONFIG_NUMBERS
    assert bundle.models["1"].accuracy >= 0.9
    assert bundle.models["2"].accuracy >= 0.9
    assert sorted(bundle.priorities.values()) == list(range(1, 13))
    feature_rows, _ = _bundle_training_data()
    # low feature-0 ontologies are cheap under the odd configurations, high
    # ones under the even; ties in accuracy go to the lower number
    assert select_heuristic(bundle, feature_rows[0][1]) == "1"
    assert select_heuristic(bundle, feature_rows[-1][1]) == "2"
    # configurations 1 and 2 train as the two-model bundle's do
    small = _train_small_bundle()
    for label in ("1", "2"):
        _assert_same_record(bundle.models[label], small.models[label], f"models[{label}]")


def test_single_class_config_gets_constant_model():
    feature_rows, runtime_rows = _bundle_training_data()
    runtime_rows = _all_configs(runtime_rows)
    # configuration 3 times out on everything
    runtime_rows = [r for r in runtime_rows if r.config != "3"]
    runtime_rows += [RuntimeRow(oid, "3", 5000.0, TIMEOUT) for oid, _ in feature_rows]
    bundle = train_model_bundle(feature_rows, runtime_rows, grid=SMALL_GRID, n_folds=4, seed=0)
    m = bundle.models["3"]
    assert m.params is None
    assert m.accuracy == 1.0
    assert m.pipeline.constant == BAD
    assert predict_labels(bundle, feature_rows[0][1])["3"] == BAD


def test_configs_with_equal_labels_train_once(monkeypatch, inline):
    feature_rows, runtime_rows = _bundle_training_data()
    searches = []

    def counting(x, y, **kwargs):
        searches.append(len(x))
        return grid_search(x, y, **kwargs)

    monkeypatch.setattr(pipeline, "grid_search", counting)
    bundle = train_model_bundle(
        feature_rows, _all_configs(runtime_rows), grid=SMALL_GRID, n_folds=4, seed=0
    )
    assert len(searches) == 2
    assert bundle.models["3"] is bundle.models["1"]
    # priorities stay per configuration; the accuracy tie goes to config 1
    assert bundle.priorities["1"] < bundle.priorities["3"]
    assert sorted(bundle.priorities.values()) == list(range(1, 13))


def test_train_model_bundle_requires_rows():
    # rows of configurations 1 and 2 only
    feature_rows, runtime_rows = _bundle_training_data()
    with pytest.raises(ValueError, match="no runtime rows for configuration 3"):
        train_model_bundle(feature_rows, runtime_rows)


# ---------------------------------------------------- worker processes


def _saved_bytes(bundle, path):
    save_bundle(bundle, str(path))
    return path.read_bytes()


def _small_corpus_training_data():
    instances = generate_corpus(CorpusSpec(count=24, seed=11))
    bench = run_benchmark([(inst.ontology_id, inst.text) for inst in instances], budget=2000)
    eligible, _ = filter_eligible(bench.rows)
    rows = [r for r in eligible if r.config in CONFIG_NUMBERS]
    features = [(oid, bench.features[oid]) for oid in sorted({r.ontology_id for r in rows})]
    return features, rows


def _train_small_corpus(grid):
    features, rows = _small_corpus_training_data()
    return train_model_bundle(features, rows, grid=grid, n_folds=4, seed=1)


@pytest.mark.parametrize(
    "train, grid",
    [
        (_train_bundle_data, SMALL_GRID),
        (_train_bundle_data, QUICK_GRID),
        (_train_small_corpus, QUICK_GRID),
    ],
)
def test_pooled_bundle_bytes_equal_inline(monkeypatch, tmp_path, pools, train, grid):
    set_workers(monkeypatch, 1)
    inline = _saved_bytes(train(grid), tmp_path / "inline.json")
    assert pools == []
    set_workers(monkeypatch, 2)
    pooled = _saved_bytes(train(grid), tmp_path / "pooled.json")
    # the small corpus is swept in a pool of its own first
    trainings = [pool for pool in pools if pool.fn is pipeline._train_config]
    assert len(trainings) == 1 and len(trainings[0].tasks) >= 2
    assert pooled == inline
    assert_no_children()


def test_pooled_path_submits_one_task_per_label_vector(monkeypatch, pools):
    set_workers(monkeypatch, 2)
    bundle = _train_bundle_data()
    assert len(pools) == 1
    label_vectors = [tuple(y) for _, y, *_ in pools[0].tasks]
    assert len(label_vectors) == 2 and label_vectors[0] != label_vectors[1]
    assert bundle.models["3"] is bundle.models["1"]
    assert bundle.models["2"] is not bundle.models["1"]


def _overflowing_data():
    """`_bundle_training_data` with +-1e300 in the informative column, which
    overflow its standard deviation under both labellings, and its rows
    copied to all twelve configurations."""
    feature_rows, runtime_rows = _bundle_training_data()
    overflowing = []
    for i, (oid, fv) in enumerate(feature_rows):
        values = [float(v) for v in fv.values]
        values[0] = {1: 1e300, 2: -1e300}.get(i, values[0])
        overflowing.append((oid, FeatureVector(tuple(values))))
    return overflowing, _all_configs(runtime_rows)


def _training_error(data):
    with pytest.raises(DegenerateData) as info:
        train_model_bundle(*data, grid=QUICK_GRID, n_folds=4, seed=0)
    return info.value


def test_worker_exception_reaches_caller(monkeypatch, pools):
    set_workers(monkeypatch, 1)
    inline = _training_error(_overflowing_data())
    set_workers(monkeypatch, 2)
    pooled = _training_error(_overflowing_data())
    assert len(pools) == 1
    assert type(pooled) is type(inline)
    assert str(pooled) == str(inline) == "a feature column's mean or standard deviation is not finite"
    assert_no_children()


def test_train_cli_exits_2_when_a_worker_raises(monkeypatch, tmp_path, capsys, pools):
    feature_rows, runtime_rows = _overflowing_data()
    features, runtimes, model = (str(tmp_path / n) for n in ("f.csv", "r.csv", "m.json"))
    write_feature_csv(feature_rows, features)
    write_runtime_csv(runtime_rows, runtimes)
    set_workers(monkeypatch, 2)
    rc = main(
        ["train", "--features", features, "--runtimes", runtimes,
         "--folds", "2", "--quick", "--out", model]
    )
    assert rc == 2
    assert len(pools) == 1
    assert capsys.readouterr().err == (
        "error: a feature column's mean or standard deviation is not finite\n"
    )
    assert not os.path.exists(model)
    assert_no_children()


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


@pytest.mark.parametrize("condition", [_one_cpu, _no_fork])
def test_trains_inline_without_a_usable_pool(monkeypatch, tmp_path, pools, condition):
    want = _saved_bytes(_train_bundle_data(), tmp_path / "want.json")
    pools.clear()
    condition(monkeypatch)
    assert workers._worker_count(2) == 1
    assert _saved_bytes(_train_bundle_data(), tmp_path / "got.json") == want
    assert pools == []


def test_one_problem_trains_inline(pools):
    feature_rows, runtime_rows = _bundle_training_data()
    # every configuration copies the labels of configuration 1
    runtime_rows = _all_configs(runtime_rows, copies=lambda c: "1")
    bundle = train_model_bundle(feature_rows, runtime_rows, grid=SMALL_GRID, n_folds=4, seed=0)
    assert pools == []
    assert bundle.models["12"] is bundle.models["1"]
    assert bundle.models["1"].accuracy >= 0.9


def test_worker_count_follows_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert [workers._worker_count(n) for n in (0, 1, 2, 5, 8, 12)] == [1, 1, 2, 5, 8, 8]
    # without an affinity mask the CPU count stands in for it
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert workers._worker_count(12) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert workers._worker_count(12) == 1


def _openblas():
    """The path and handle of the first mapped OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return None
    for path in sorted({f[5] for f in fields if len(f) == 6 and "openblas" in f[5].lower()}):
        return path, ctypes.CDLL(path)
    return None


def _blas_function(lib, kind: str):
    """OpenBLAS's thread-count ``"get"`` or ``"set"`` function in `lib`."""
    for name in workers._BLAS_THREAD_SETTERS:
        fn = getattr(lib, name.replace("_set_", f"_{kind}_"), None)
        if fn is not None:
            fn.argtypes, fn.restype = ([], ctypes.c_int) if kind == "get" else ([ctypes.c_int], None)
            return fn
    return None


def _blas_threads():
    """OpenBLAS's thread count in this process, or None where it cannot be
    read."""
    found = _openblas()
    getter = found and _blas_function(found[1], "get")
    return getter() if getter else None


def test_workers_run_blas_on_one_thread(monkeypatch, pools):
    if _blas_threads() is None:
        pytest.skip("no OpenBLAS thread count to read")
    set_workers(monkeypatch, 2)
    assert workers.ordered_map(_blas_threads, [(), ()]) == [1, 1]
    assert len(pools) == 1
    assert_no_children()


def test_blas_is_found_under_a_directory_whose_name_has_a_space(monkeypatch, tmp_path):
    """The mapped path is the sixth field of a maps line and may hold
    spaces; a deleted file or one that will not load is passed over."""
    found = _openblas()
    if found is None or _blas_function(found[1], "get") is None:
        pytest.skip("no OpenBLAS thread count to read")
    path, lib = found
    spaced = tmp_path / "with space"
    spaced.mkdir()
    (spaced / os.path.basename(path)).symlink_to(path)
    (spaced / "a-libopenblas-that-will-not-load.so").write_text("not a library\n")
    mapped = [*sorted(str(p) for p in spaced.iterdir()), "/gone/libopenblas.so (deleted)"]
    maps = "".join(
        f"7f00000{i}0000-7f00000{i}1000 r-xp 00000000 08:01 {i + 1}    {p}\n" for i, p in enumerate(mapped)
    )
    monkeypatch.setattr(workers, "open", lambda *args, **kwargs: io.StringIO(maps), raising=False)
    before, set_threads = _blas_threads(), _blas_function(lib, "set")
    try:
        set_threads(2)
        if _blas_threads() != 2:
            pytest.skip("OpenBLAS does not run two threads here")
        workers._one_blas_thread()
        assert _blas_threads() == 1
    finally:
        set_threads(before)


def test_daemonic_process_trains_the_same_bundle(tmp_path):
    """A daemonic `multiprocessing` child, which that module forbids to
    have children of its own, still trains the bundle this process does."""
    ctx = multiprocessing.get_context("fork")
    path = tmp_path / "model.json"
    child = ctx.Process(target=lambda: save_bundle(_train_bundle_data(), str(path)), daemon=True)
    child.start()
    child.join(60)
    assert child.exitcode == 0
    assert path.read_bytes() == _saved_bytes(_train_bundle_data(), tmp_path / "here.json")


# ------------------------------------------------------------ persistence


def _assert_same_record(a, b, where):
    """Every field of two records equal, nested records field by field and
    arrays by shape and value."""
    assert type(a) is type(b), where
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_same_record(x, y, f"{where}.{f.name}")
        elif isinstance(x, np.ndarray):
            assert y.dtype == x.dtype and np.array_equal(x, y), f"{where}.{f.name}"
        else:
            assert type(y) is type(x) and y == x, f"{where}.{f.name}"


def test_save_load_round_trip(tmp_path):
    trained = _train_small_bundle()
    # one trained SVM and one constant model
    constant = ConfigModel(params=None, accuracy=1.0, pipeline=_const_pipeline(BAD))
    bundle = dataclasses.replace(trained, models={"1": trained.models["1"], "2": constant})
    path = str(tmp_path / "model.json")
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.threshold == bundle.threshold
    assert loaded.priorities == bundle.priorities
    assert tuple(loaded.models) == tuple(bundle.models)
    for label, m in bundle.models.items():
        _assert_same_record(m, loaded.models[label], f"models[{label}]")
    assert loaded.models["1"].pipeline.svm is not None
    assert loaded.models["2"].pipeline.pca_components.shape == (0, 0)
    feature_rows, _ = _bundle_training_data()
    for oid, fv in feature_rows:
        assert predict_labels(loaded, fv) == predict_labels(bundle, fv), oid
    # a second save of the loaded bundle is byte-identical
    path2 = str(tmp_path / "model2.json")
    save_bundle(loaded, path2)
    assert Path(path).read_text() == Path(path2).read_text()


def test_load_rejects_other_versions(tmp_path):
    bundle = _train_small_bundle()
    path = str(tmp_path / "model.json")
    save_bundle(bundle, path)
    doc = json.loads(Path(path).read_text())
    doc["version"] = 999
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load_bundle(path)


@pytest.mark.parametrize(
    "content",
    [
        "not json at all",
        "[]",
        "{}",
        '{"version": 1, "feature_names": ["wrong"], "threshold": 1.0, "priorities": {}, "models": {}}',
        '{"version": 1}',
    ],
)
def test_load_rejects_corrupt_files(tmp_path, content):
    path = str(tmp_path / "model.json")
    with open(path, "w") as fh:
        fh.write(content)
    with pytest.raises(CorruptModel):
        load_bundle(path)


@functools.cache
def _small_bundle_json() -> bytes:
    """The small bundle as saved, trained once for all the load tests."""
    with tempfile.TemporaryDirectory() as tmp:
        return _saved_bytes(_train_small_bundle(), Path(tmp) / "model.json")


def test_small_bundle_bytes_are_pinned():
    # any change to the saved format or to the learner's arithmetic shows here
    assert hashlib.sha256(_small_bundle_json()).hexdigest() == (
        "1595ddba862c6dc6d96462a4a22446013a6fc492a7e3db09f110e03fad445e3e"
    )


def _leaf_fields(record, doc_path):
    return [(doc_path, f.name) for f in dataclasses.fields(record)]


@pytest.mark.parametrize(
    "doc_path, key",
    _leaf_fields(GridPoint, ("params",))
    + _leaf_fields(FittedPipeline, ("pipeline",))
    + _leaf_fields(SvmModel, ("pipeline", "svm")),
)
def test_load_rejects_a_missing_field(tmp_path, doc_path, key):
    def edit(doc):
        record = doc["models"]["1"]
        for step in doc_path:
            record = record[step]
        del record[key]

    with pytest.raises(CorruptModel, match="malformed"):
        _load_edited(tmp_path, edit)


def _load_edited(tmp_path, edit):
    path = tmp_path / "model.json"
    doc = json.loads(_small_bundle_json())
    edit(doc)
    path.write_text(json.dumps(doc))
    return load_bundle(str(path))


def test_load_rejects_selected_index_out_of_range(tmp_path):
    def edit(doc):
        doc["models"]["1"]["pipeline"]["selected"] = [99]

    with pytest.raises(CorruptModel, match="out of range"):
        _load_edited(tmp_path, edit)


@pytest.mark.parametrize("key", ["scaler_mean", "pca_components", "svm"])
def test_load_rejects_mismatched_array_shapes(tmp_path, key):
    def edit(doc):
        p = doc["models"]["2"]["pipeline"]
        if key == "svm":
            p["svm"]["alpha"].pop()
        else:
            p[key] = [[0.0, 0.0]] if key == "pca_components" else [0.0, 0.0]

    with pytest.raises(CorruptModel, match="shapes"):
        _load_edited(tmp_path, edit)


def test_load_rejects_priorities_without_models(tmp_path):
    with pytest.raises(CorruptModel, match="priorities"):
        _load_edited(tmp_path, lambda doc: doc["priorities"].pop("2"))


@pytest.mark.parametrize(
    "values",
    [[1, 1], [1.7, 1.7], [True, True], [-5, -5], [1, 3], ["1", "2"], [1.0, 2.0], [False, True]],
)
def test_load_rejects_priorities_that_do_not_rank_the_models(tmp_path, values):
    # selection picks by priority, so anything but 1..n once each would pick by dict order
    def edit(doc):
        doc["priorities"] = dict(zip(doc["priorities"], values))

    with pytest.raises(CorruptModel, match="priorities"):
        _load_edited(tmp_path, edit)


@pytest.mark.parametrize("key", ["priorities", "models"])
def test_load_rejects_lists_for_maps(tmp_path, key):
    with pytest.raises(CorruptModel, match="malformed"):
        _load_edited(tmp_path, lambda doc: doc.update({key: []}))


def test_load_missing_file_is_corrupt(tmp_path):
    with pytest.raises(CorruptModel):
        load_bundle(str(tmp_path / "missing.json"))
