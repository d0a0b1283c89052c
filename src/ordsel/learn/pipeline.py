"""Training pipeline: from runtime tables to one cost classifier per
expansion-ordering configuration, plus the priority scheme that turns the
twelve classifiers' verdicts into a single chosen ordering.

Per configuration the pipeline is: mutual-information feature selection on
the raw features, standardization of the selected columns, PCA, then a
binary SVM predicting whether the configuration solves an ontology cheaply
("good", cost at most the global threshold) or not.  Hyperparameters are
chosen by stratified k-fold cross-validation over an ordered grid; ties
resolve toward the earlier grid point, and a point stops training once
it cannot win.  Classifier priorities rank the
configurations by cross-validated accuracy (ties toward the lower
configuration number), and selection trusts the highest-priority positive
verdict — or falls back to the lowest-priority configuration when every
classifier votes negative.

The configurations' trainings are independent, so `train_model_bundle` runs
them through `workers.ordered_map`, the one pool of forked worker processes
that the benchmark sweep uses too; the models are the same bits as inline.

`save_bundle` writes `model.json`.  Its top level is spelled out key by key,
so side data that `ConfigModel` or `ModelBundle` may gain stays out of the
file.  Below it, each `GridPoint`, `FittedPipeline` and `SvmModel` is written
field by field under the field's own name, and `load_bundle` rebuilds it from
those names.  The float-array fields (`scaler_mean`, `scaler_std`,
`pca_mean`, `pca_components`, and the SVM's `x`, `y` and `alpha`) are written
as nested lists.
"""

from __future__ import annotations

import heapq
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ..features import FEATURE_NAMES, FeatureVector
from ..heuristics import CONFIG_NUMBERS
from ..runtimes import FINISHED, RuntimeRow
from ..workers import ordered_map
from .svm import LINEAR, RBF, SingleClass, SvmModel, svm_predict, svm_train
from .transforms import (
    apply_scaler,
    fit_scaler,
    mutual_information,
    pca_fit,
    pca_transform,
    select_top_k,
)

MODEL_FORMAT_VERSION = 1

GOOD = 1.0
BAD = -1.0


class VersionMismatch(ValueError):
    """Raised when a saved model bundle has a different format version."""


class CorruptModel(ValueError):
    """Raised when a saved model bundle cannot be decoded."""


# Loaded SVM multipliers may leave [0, c] by this much times c: training
# leaves some up to about 4e-16 * c outside by rounding.
ALPHA_TOL = 1e-9


# ------------------------------------------------------------- threshold


def combine_threshold_stats(stats: list[tuple[float, float]]) -> float:
    """Global cost threshold from per-configuration (mean, std) cost pairs:
    the average over configurations of mean + one standard deviation."""
    if not stats:
        raise ValueError("no per-configuration statistics")
    return sum(m + s for m, s in stats) / len(stats)


def compute_threshold(rows: list[RuntimeRow]) -> float:
    """Threshold from a runtime table: per configuration take mean plus
    population std of the finished costs, then average over configurations.
    Configurations with no finished run, and rows of other labels such as
    ``default``, contribute nothing."""
    finished: dict[str, list[float]] = {}
    for r in rows:
        if r.outcome == FINISHED:
            finished.setdefault(r.config, []).append(r.cost)
    stats: list[tuple[float, float]] = []
    for label in CONFIG_NUMBERS:
        costs = finished.get(label)
        if costs:
            arr = np.asarray(costs, dtype=float)
            stats.append((float(arr.mean()), float(arr.std())))
    return combine_threshold_stats(stats)


def label_examples(rows: list[RuntimeRow], threshold: float) -> dict[str, dict[str, float]]:
    """Per configuration, map ontology id to GOOD/BAD: good means the run
    finished within the cost threshold.  Rows of other labels are skipped."""
    out: dict[str, dict[str, float]] = {label: {} for label in CONFIG_NUMBERS}
    for r in rows:
        if r.config in out:
            good = r.outcome == FINISHED and r.cost <= threshold
            out[r.config][r.ontology_id] = GOOD if good else BAD
    return out


# ------------------------------------------------------ fitted pipelines


@dataclass(frozen=True)
class GridPoint:
    k: int
    n_components: int
    kernel: str
    c: float
    gamma: float | None = None


@dataclass(frozen=True)
class FittedPipeline:
    selected: tuple[int, ...]
    scaler_mean: np.ndarray = field(repr=False)
    scaler_std: np.ndarray = field(repr=False)
    pca_mean: np.ndarray = field(repr=False)
    pca_components: np.ndarray = field(repr=False)
    svm: SvmModel | None
    constant: float | None = None

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))[:, self.selected]
        x = apply_scaler(x, self.scaler_mean, self.scaler_std)
        return pca_transform(x, self.pca_mean, self.pca_components)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.constant is not None:
            return np.full(x.shape[0], self.constant)
        return svm_predict(self.svm, self.transform(x))


def _transform_shape(scores: np.ndarray, n_rows: int, params: GridPoint) -> tuple:
    """(selected columns, PCA component count) that `params` asks of a
    training set with these MI scores and rows, clamped to what it has."""
    selected = tuple(select_top_k(scores, params.k))
    return selected, max(min(params.n_components, len(selected), n_rows - 1), 1)


def _fit_transforms(x: np.ndarray, selected: tuple, n_comp: int) -> tuple:
    """Scaler and PCA fit on the selected columns of the training rows, as a
    pipeline without a model, and the training rows it projects."""
    sub = x[:, selected]
    mean, std = fit_scaler(sub)
    scaled = apply_scaler(sub, mean, std)
    pmean, comps = pca_fit(scaled, n_comp)
    prep = FittedPipeline(selected, mean, std, pmean, comps, svm=None)
    return prep, pca_transform(scaled, pmean, comps)


def fit_config_pipeline(x: np.ndarray, y: np.ndarray, params: GridPoint) -> FittedPipeline:
    """Fit selection, scaling, PCA, and the SVM on one training set."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise SingleClass("training labels contain a single class")
    prep, reduced = _fit_transforms(x, *_transform_shape(mutual_information(x, y), len(x), params))
    model = svm_train(reduced, y, kernel=params.kernel, c=params.c, gamma=params.gamma)
    return replace(prep, svm=model)


# -------------------------------------------------------- cross-validation


def check_folds(n_folds: int) -> None:
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")


def stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Fold index per sample: each class is shuffled with the seeded
    generator and dealt round-robin, so fold class balance is within one."""
    check_folds(n_folds)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    fold = np.empty(len(y), dtype=int)
    for cls in (GOOD, BAD):
        idx = np.flatnonzero(y == cls)
        perm = rng.permutation(len(idx))
        for pos, p in enumerate(perm):
            fold[idx[p]] = pos % n_folds
    return fold


def cross_validate(
    x: np.ndarray, y: np.ndarray, params: GridPoint, n_folds: int = 10, seed: int = 0
) -> float:
    """Pooled accuracy over stratified folds: `grid_search` over this one
    point, which it trains on every usable fold."""
    return grid_search(x, y, [params], n_folds, seed)[1]


# ------------------------------------------------------------ grid search


def default_grid() -> list[GridPoint]:
    """Ordered hyperparameter grid over the 39 feature columns: selection
    size x component count x kernel settings.  Duplicate points after
    clamping the component count keep their first position only."""
    points: list[GridPoint] = []
    seen: set[tuple] = set()
    for k in (5, 10, 20, 39):
        for nc in (2, 5, 10, "all"):
            nc_eff = k if nc == "all" else min(nc, k)
            kernel_settings: list[tuple[str, float, float | None]] = []
            for c in (0.1, 1.0, 10.0, 100.0):
                kernel_settings.append(("linear", c, None))
            for c in (0.1, 1.0, 10.0, 100.0):
                for gamma in (1.0 / nc_eff, 0.1, 1.0):
                    kernel_settings.append(("rbf", c, gamma))
            for kernel, c, gamma in kernel_settings:
                key = (k, nc_eff, kernel, c, gamma)
                if key in seen:
                    continue
                seen.add(key)
                points.append(GridPoint(k=k, n_components=nc_eff, kernel=kernel, c=c, gamma=gamma))
    return points


def grid_search(
    x: np.ndarray,
    y: np.ndarray,
    grid: list[GridPoint] | None = None,
    n_folds: int = 10,
    seed: int = 0,
) -> tuple[GridPoint, float]:
    """Best grid point by pooled accuracy over stratified folds, and that
    accuracy; the earlier point wins ties.  Transforms are fit on the
    training folds only.  Folds with a single-class training side are
    skipped; with none left the answer is (grid[0], 0.0).

    Best-first and exact: a heap holds (errors so far, grid index, folds
    done) per point, and the least is trained on its next fold.  Errors
    only grow, so the first entry on top with every fold done is the
    winner, and a point that cannot beat it is never trained again.  Each
    fold's rows and MI scores are built once, and its projections once per
    (selected columns, component count) that a trained point asks for."""
    if grid is None:
        grid = default_grid()
    if not grid:
        raise ValueError("empty hyperparameter grid")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fold = stratified_folds(y, n_folds, seed)
    states: list[tuple] = []  # per usable fold; the winner reaches every one
    for f in np.unique(fold):  # only folds that hold a sample: at most len(y)
        val = fold == f
        xt, yt = x[~val], y[~val]
        if len(np.unique(yt)) >= 2:
            states.append((xt, yt, x[val], y[val], mutual_information(xt, yt), {}))
    total = sum(len(state[3]) for state in states)
    heap = [(0, i, 0) for i in range(len(grid))]  # sorted, so already a heap
    while True:
        errors, i, done = heap[0]
        if done == len(states):
            return grid[i], (total - errors) / total if total else 0.0
        heapq.heapreplace(heap, (errors + _fold_errors(states[done], grid[i]), i, done + 1))


def _fold_errors(state: tuple, p: GridPoint) -> int:
    """Validation rows of one fold that `p`, trained on the fold's training
    rows, labels wrongly; `state` is the fold's from `grid_search`."""
    xt, yt, xv, yv, scores, projected = state
    shape = _transform_shape(scores, len(xt), p)
    if shape not in projected:
        prep, reduced = _fit_transforms(xt, *shape)
        projected[shape] = reduced, prep.transform(xv)
    reduced, reduced_val = projected[shape]
    model = svm_train(reduced, yt, kernel=p.kernel, c=p.c, gamma=p.gamma)
    return int(np.count_nonzero(svm_predict(model, reduced_val) != yv))


# ------------------------------------------------------------- the bundle


@dataclass(frozen=True)
class ConfigModel:
    params: GridPoint | None
    accuracy: float
    pipeline: FittedPipeline


@dataclass(frozen=True)
class ModelBundle:
    threshold: float
    models: dict[str, ConfigModel]
    priorities: dict[str, int]


def assign_priorities(accuracies: dict[str, float]) -> dict[str, int]:
    """Priority 1 goes to the most accurate classifier; accuracy ties are
    broken toward the lower configuration number."""
    order = sorted(accuracies, key=lambda label: (-accuracies[label], int(label)))
    return {label: rank for rank, label in enumerate(order, start=1)}


def _train_config(
    x: np.ndarray, y: np.ndarray, grid: list[GridPoint] | None, n_folds: int, seed: int
) -> ConfigModel:
    if len(np.unique(y)) < 2:
        pipeline = FittedPipeline(
            selected=(),
            scaler_mean=np.zeros(0),
            scaler_std=np.zeros(0),
            pca_mean=np.zeros(0),
            pca_components=np.zeros((0, 0)),
            svm=None,
            constant=float(y[0]),
        )
        return ConfigModel(params=None, accuracy=1.0, pipeline=pipeline)
    point, acc = grid_search(x, y, grid=grid, n_folds=n_folds, seed=seed)
    return ConfigModel(params=point, accuracy=acc, pipeline=fit_config_pipeline(x, y, point))


def train_model_bundle(
    feature_rows: list[tuple[str, FeatureVector]],
    runtime_rows: list[RuntimeRow],
    grid: list[GridPoint] | None = None,
    n_folds: int = 10,
    seed: int = 0,
) -> ModelBundle:
    """Train the full bundle: threshold, a classifier for each of the
    twelve configurations with the hyperparameters `grid_search` picks
    refit on all data, and priorities.  Every configuration needs runtime
    rows; rows of other labels, such as ``default``, are ignored.  The fold
    count is checked before any work, even when no grid search would run.

    A configuration whose labels are single-class gets a constant predictor
    with accuracy equal to that class's share (1.0), recorded without grid
    parameters.  Configurations with the same examples and labels share one
    model, trained once; their priorities are still assigned per
    configuration.

    The distinct (examples, labels) problems train in parallel through
    `workers.ordered_map` (inline with one problem or one usable CPU).
    Either way the models are the same bits, and a failing training raises
    its own exception, the first in configuration order.
    """
    check_folds(n_folds)
    threshold = compute_threshold(runtime_rows)
    labels = label_examples(runtime_rows, threshold)
    feat_by_id = dict(feature_rows)
    order = [oid for oid, _ in feature_rows]
    # check every configuration before any (slow) grid search
    ids_by_label = {label: [oid for oid in order if oid in lab] for label, lab in labels.items()}
    for label, ids in ids_by_label.items():
        if not ids:
            raise ValueError(f"no runtime rows for configuration {label}")
    keys: dict[str, tuple] = {}  # label -> (ids, labels)
    tasks: dict[tuple, tuple] = {}  # (ids, labels) -> _train_config arguments
    for label, ids in ids_by_label.items():
        lab = labels[label]
        key = keys[label] = (tuple(ids), tuple(lab[oid] for oid in ids))
        if key not in tasks:
            x = np.asarray([feat_by_id[oid].values for oid in ids], dtype=float)
            tasks[key] = (x, np.asarray(key[1], dtype=float), grid, n_folds, seed)
    trained = dict(zip(tasks, ordered_map(_train_config, list(tasks.values()))))
    models = {label: trained[key] for label, key in keys.items()}
    priorities = assign_priorities({label: m.accuracy for label, m in models.items()})
    return ModelBundle(threshold=threshold, models=models, priorities=priorities)


# --------------------------------------------------------------- selection


def predict_labels(bundle: ModelBundle, fv: FeatureVector) -> dict[str, float]:
    """Each configuration's label for one feature vector.  Values far
    outside the training data overflow silently; ValueError when one makes
    a decision value not finite (`svm_predict`)."""
    x = np.asarray(fv.values, dtype=float)[None, :]
    with np.errstate(all="ignore"):
        return {label: float(m.pipeline.predict(x)[0]) for label, m in bundle.models.items()}


def select_heuristic(bundle: ModelBundle, fv: FeatureVector) -> str:
    """The configuration ``choose_heuristic`` picks for one feature vector."""
    return choose_heuristic(bundle, predict_labels(bundle, fv))


def choose_heuristic(bundle: ModelBundle, preds: dict[str, float]) -> str:
    """The highest-priority configuration predicted good (``preds`` as from
    ``predict_labels``); when every classifier predicts bad, the
    lowest-priority configuration."""
    good = [label for label, p in preds.items() if p == GOOD]
    if good:
        return min(good, key=lambda label: bundle.priorities[label])
    return max(preds, key=lambda label: bundle.priorities[label])


def f_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 with the good class as positive; 0 when precision and recall are
    both undefined or zero."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    tp = int(np.count_nonzero((y_pred == GOOD) & (y_true == GOOD)))
    fp = int(np.count_nonzero((y_pred == GOOD) & (y_true == BAD)))
    fn = int(np.count_nonzero((y_pred == BAD) & (y_true == GOOD)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ------------------------------------------------------------ persistence


# The leaf-record fields that hold float arrays; every other field is saved
# and loaded as the JSON value it is.
_FLOAT_ARRAYS = {"scaler_mean", "scaler_std", "pca_mean", "pca_components", "x", "y", "alpha"}


def _record(cls, d: dict):
    """The leaf record `cls` from its saved fields: a missing one raises
    KeyError, and extra keys are ignored."""
    return cls(**{
        f.name: np.asarray(d[f.name], dtype=float) if f.name in _FLOAT_ARRAYS else d[f.name]
        for f in fields(cls)
    })


def _pipeline_from_json(d: dict) -> FittedPipeline:
    p = _record(FittedPipeline, d)
    comps = p.pca_components if p.pca_components.size else np.zeros((0, 0))
    svm = None if p.svm is None else _record(SvmModel, p.svm)
    return replace(p, selected=tuple(p.selected), pca_components=comps, svm=svm)


def _check_pipeline(label: str, p: FittedPipeline) -> None:
    """Reject a loaded pipeline whose arrays `predict` could not combine, or
    whose kernel, numbers or arrays it could not use: an unknown kernel, a
    non-positive or non-finite RBF gamma, a non-finite c or bias, a
    non-finite array entry, SVM labels other than +1/-1, a multiplier
    outside [0, c] by more than `ALPHA_TOL * c`, or a constant other than
    +1/-1."""
    k = len(p.selected)
    if any(type(i) is not int or not 0 <= i < len(FEATURE_NAMES) for i in p.selected):
        raise CorruptModel(f"model {label}: selected feature index out of range")
    if (p.svm is None) == (p.constant is None):
        raise CorruptModel(f"model {label}: needs exactly one of an SVM and a constant")
    comps = p.pca_components
    shapes = p.scaler_mean.shape == p.scaler_std.shape == p.pca_mean.shape == (k,)
    shapes = shapes and comps.ndim == 2 and comps.shape[1] == k
    if p.svm is not None:
        y = p.svm.y
        shapes = shapes and y.ndim == 1 and p.svm.alpha.shape == y.shape
        shapes = shapes and p.svm.x.shape == (len(y), comps.shape[0])
    if not shapes:
        raise CorruptModel(f"model {label}: array shapes disagree with {k} selected features")
    arrays = [p.scaler_mean, p.scaler_std, p.pca_mean, comps]
    if p.svm is not None:
        arrays += [p.svm.x, p.svm.y, p.svm.alpha]
    if not all(np.isfinite(a).all() for a in arrays):
        raise CorruptModel(f"model {label}: arrays hold non-finite values")
    if p.svm is None:
        if not (_finite_number(p.constant) and p.constant in (GOOD, BAD)):
            raise CorruptModel(f"model {label}: constant prediction is not +1 or -1")
        return
    m = p.svm
    if m.kernel not in (LINEAR, RBF):
        raise CorruptModel(f"model {label}: unknown kernel {m.kernel!r}")
    if m.kernel == RBF and not (_finite_number(m.gamma) and m.gamma > 0):
        raise CorruptModel(f"model {label}: rbf gamma is not a finite positive number")
    if not (_finite_number(m.c) and _finite_number(m.bias)):
        raise CorruptModel(f"model {label}: SVM c and bias must be finite numbers")
    tol = ALPHA_TOL * m.c
    if not ((m.alpha >= -tol) & (m.alpha <= m.c + tol)).all():
        raise CorruptModel(f"model {label}: SVM multipliers lie outside [0, c]")
    if not np.isin(m.y, (GOOD, BAD)).all():
        raise CorruptModel(f"model {label}: SVM labels are not +1 or -1")


def _finite_number(v) -> bool:
    # an int past the float range is as unusable as inf
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def save_bundle(bundle: ModelBundle, path: str) -> None:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "threshold": bundle.threshold,
        "priorities": bundle.priorities,
        "models": {
            label: {
                "params": None if m.params is None else asdict(m.params),
                "accuracy": m.accuracy,
                "pipeline": asdict(m.pipeline),
            }
            for label, m in bundle.models.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, default=np.ndarray.tolist)
        fh.write("\n")


def load_bundle(path: str) -> ModelBundle:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptModel(f"cannot read model bundle {path}: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CorruptModel("model bundle lacks a version field")
    if doc["version"] != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"model format {doc['version']!r}, expected {MODEL_FORMAT_VERSION!r}"
        )
    if doc.get("feature_names") != list(FEATURE_NAMES):
        raise CorruptModel("model bundle was trained on a different feature schema")
    try:
        models = {
            label: ConfigModel(
                params=None if m["params"] is None else _record(GridPoint, m["params"]),
                accuracy=m["accuracy"],
                pipeline=_pipeline_from_json(m["pipeline"]),
            )
            for label, m in doc["models"].items()
        }
        priorities = dict(doc["priorities"].items())
        threshold = doc["threshold"]
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CorruptModel(f"malformed model bundle: {exc}") from exc
    if not _finite_number(threshold):
        raise CorruptModel("model bundle threshold is not a finite number")
    if set(priorities) != set(models):
        raise CorruptModel("model bundle priorities and models name different configurations")
    if sorted(v for v in priorities.values() if type(v) is int) != list(range(1, len(models) + 1)):
        raise CorruptModel("model bundle priorities do not rank its models 1..n")
    unknown = sorted(set(models) - set(CONFIG_NUMBERS))
    if unknown:
        raise CorruptModel(f"model bundle has unknown configurations {unknown}")
    for label, m in models.items():
        if not _finite_number(m.accuracy):
            raise CorruptModel(f"model {label}: accuracy is not a finite number")
        _check_pipeline(label, m.pipeline)
    return ModelBundle(float(threshold), models, priorities)
