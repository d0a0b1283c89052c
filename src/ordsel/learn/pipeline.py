"""Training pipeline: from runtime tables to one cost classifier per
expansion-ordering configuration, plus the priority scheme that turns the
twelve classifiers' verdicts into a single chosen ordering.

Per configuration the pipeline is: mutual-information feature selection on
the raw features, standardization of the selected columns, PCA, then a
binary SVM predicting whether the configuration solves an ontology cheaply
("good", cost at most the global threshold) or not.  Hyperparameters are
chosen by stratified k-fold cross-validation over an ordered grid; ties
resolve toward the earlier grid point.  Classifier priorities rank the
configurations by cross-validated accuracy (ties toward the lower
configuration number), and selection trusts the highest-priority positive
verdict — or falls back to the lowest-priority configuration when every
classifier votes negative.

The configurations' trainings are independent, so `train_model_bundle` runs
them in a pool of worker processes: one per CPU this process may use, at
most one per distinct training problem, each running BLAS on one thread so
that the workers do not oversubscribe the CPUs.  Workers are forked rather
than spawned: a `spawn` or `forkserver` worker would import numpy and ordsel
again (about 0.2 s each), while a forked one starts with them loaded.
Results come back in submission order and are bit for bit those of training
inline, which is what happens with one problem, one usable CPU, no `fork`
start method, or a daemonic caller (which may not have children).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..features import FEATURE_NAMES, FeatureVector
from ..heuristics import CONFIG_NUMBERS
from ..runtimes import FINISHED, RuntimeRow, rows_by_config
from .svm import LINEAR, RBF, SingleClass, SvmModel, kernel_matrix, svm_predict, svm_train
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


def compute_threshold(rows: list[RuntimeRow], configs: tuple[str, ...] = CONFIG_NUMBERS) -> float:
    """Threshold from a runtime table: per configuration take mean plus
    population std of the finished costs, then average over configurations.
    Configurations with no finished run contribute nothing."""
    by_config = rows_by_config(rows)
    stats: list[tuple[float, float]] = []
    for label in configs:
        costs = [r.cost for r in by_config.get(label, ()) if r.outcome == FINISHED]
        if costs:
            arr = np.asarray(costs, dtype=float)
            stats.append((float(arr.mean()), float(arr.std())))
    return combine_threshold_stats(stats)


def label_examples(
    rows: list[RuntimeRow], threshold: float, configs: tuple[str, ...] = CONFIG_NUMBERS
) -> dict[str, dict[str, float]]:
    """Per configuration, map ontology id to GOOD/BAD: good means the run
    finished within the cost threshold."""
    out: dict[str, dict[str, float]] = {label: {} for label in configs}
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
    model: SvmModel | None
    constant: float | None = None

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))[:, self.selected]
        x = apply_scaler(x, self.scaler_mean, self.scaler_std)
        return pca_transform(x, self.pca_mean, self.pca_components)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.constant is not None:
            return np.full(x.shape[0], self.constant)
        return svm_predict(self.model, self.transform(x))


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
    prep = FittedPipeline(selected, mean, std, pmean, comps, model=None)
    return prep, pca_transform(scaled, pmean, comps)


def fit_config_pipeline(x: np.ndarray, y: np.ndarray, params: GridPoint) -> FittedPipeline:
    """Fit selection, scaling, PCA, and the SVM on one training set."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise SingleClass("training labels contain a single class")
    prep, reduced = _fit_transforms(x, *_transform_shape(mutual_information(x, y), len(x), params))
    model = svm_train(reduced, y, kernel=params.kernel, c=params.c, gamma=params.gamma)
    return replace(prep, model=model)


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


def cv_accuracies(
    x: np.ndarray, y: np.ndarray, grid: list[GridPoint], n_folds: int, seed: int
) -> list[float]:
    """Pooled accuracy of every grid point over the same stratified folds.
    Per fold, MI runs once, the selection once per distinct (k, n_components),
    scaler and PCA once per distinct (selected, n_comp), and the training
    and validation kernel rows once per distinct kernel setting on those;
    only the SVM is trained per point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fold = stratified_folds(y, n_folds, seed)
    correct = [0] * len(grid)
    total = 0
    for f in range(n_folds):
        val = fold == f
        train = ~val
        if not val.any() or len(np.unique(y[train])) < 2:
            continue
        xt, yt = x[train], y[train]
        scores = mutual_information(xt, yt)
        shapes, preps, grams = {}, {}, {}
        for i, p in enumerate(grid):
            shape = shapes.get((p.k, p.n_components))
            if shape is None:
                shape = shapes[p.k, p.n_components] = _transform_shape(scores, len(xt), p)
            if shape not in preps:
                prep, reduced = _fit_transforms(xt, *shape)
                preps[shape] = reduced, prep.transform(x[val])
            reduced, reduced_val = preps[shape]
            key = (shape, p.kernel, p.gamma)
            if key not in grams:
                grams[key] = (
                    kernel_matrix(p.kernel, p.gamma, reduced, reduced),
                    kernel_matrix(p.kernel, p.gamma, reduced_val, reduced),
                )
            gram, k_val = grams[key]
            model = svm_train(reduced, yt, kernel=p.kernel, c=p.c, gamma=p.gamma, gram=gram)
            correct[i] += int(np.count_nonzero(svm_predict(model, reduced_val, k=k_val) == y[val]))
        total += int(val.sum())
    return [c / total if total else 0.0 for c in correct]


def cross_validate(
    x: np.ndarray, y: np.ndarray, params: GridPoint, n_folds: int = 10, seed: int = 0
) -> float:
    """Pooled accuracy over stratified folds.  All transforms are fit on the
    training folds only.  Folds with an empty validation side or a
    single-class training side are skipped; returns 0.0 if nothing could be
    validated."""
    return cv_accuracies(x, y, [params], n_folds, seed)[0]


# ------------------------------------------------------------ grid search


def default_grid(n_features: int = len(FEATURE_NAMES)) -> list[GridPoint]:
    """Ordered hyperparameter grid: selection size x component count x
    kernel settings.  Duplicate points after clamping keep their first
    position only."""
    points: list[GridPoint] = []
    seen: set[tuple] = set()
    for k in (5, 10, 20, 39):
        k_eff = min(k, n_features)
        for nc in (2, 5, 10, "all"):
            nc_eff = k_eff if nc == "all" else min(nc, k_eff)
            kernel_settings: list[tuple[str, float, float | None]] = []
            for c in (0.1, 1.0, 10.0, 100.0):
                kernel_settings.append(("linear", c, None))
            for c in (0.1, 1.0, 10.0, 100.0):
                for gamma in (1.0 / nc_eff, 0.1, 1.0):
                    kernel_settings.append(("rbf", c, gamma))
            for kernel, c, gamma in kernel_settings:
                key = (k_eff, nc_eff, kernel, c, gamma)
                if key in seen:
                    continue
                seen.add(key)
                points.append(GridPoint(k=k_eff, n_components=nc_eff, kernel=kernel, c=c, gamma=gamma))
    return points


def grid_search(
    x: np.ndarray,
    y: np.ndarray,
    grid: list[GridPoint] | None = None,
    n_folds: int = 10,
    seed: int = 0,
) -> tuple[GridPoint, float]:
    """Best grid point by cross-validated accuracy; earlier point wins ties."""
    if grid is None:
        grid = default_grid(np.asarray(x).shape[1])
    if not grid:
        raise ValueError("empty hyperparameter grid")
    accs = cv_accuracies(x, y, grid, n_folds, seed)
    best = max(accs)
    return grid[accs.index(best)], best


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
            model=None,
            constant=float(y[0]),
        )
        return ConfigModel(params=None, accuracy=1.0, pipeline=pipeline)
    point, acc = grid_search(x, y, grid=grid, n_folds=n_folds, seed=seed)
    return ConfigModel(params=point, accuracy=acc, pipeline=fit_config_pipeline(x, y, point))


# Names of OpenBLAS's thread-count setter: plain, and as numpy's wheels
# build it (64-bit integers, `scipy_` prefix).
_BLAS_THREAD_SETTERS = tuple(
    f"{prefix}openblas_set_num_threads{suffix}"
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64")
)


def _one_blas_thread() -> None:
    """Pool initializer: run this worker's BLAS on one thread.  The workers
    already fill the CPUs, and a second OpenBLAS thread in each worker spins
    on a CPU another worker needs: without this, `QUICK_GRID` training ran
    about 2.5 times slower than in one process on a 2-CPU host.  Finds
    OpenBLAS among the mapped libraries (Linux); does nothing where it
    cannot."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    import ctypes

    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _worker_count(n_problems: int) -> int:
    """Worker processes for `n_problems` independent trainings: one per CPU
    this process may use, at most one per problem.  1 means train inline:
    also when there is no `fork` start method or the caller is a daemonic
    process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, n_problems)
    if workers < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return workers


def _train_all(tasks: list[tuple]) -> list[ConfigModel]:
    """`_train_config` of every task, in task order.  A failing task raises
    its own exception, the first in task order as inline, once the tasks
    already running have finished; the tasks not started are cancelled.  No
    worker outlives the call, and none is ever killed: a worker killed while
    it sends a result would leave its queue locked."""
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [_train_config(*task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_one_blas_thread) as pool:
        return list(pool.map(_train_config, *zip(*tasks)))


def train_model_bundle(
    feature_rows: list[tuple[str, FeatureVector]],
    runtime_rows: list[RuntimeRow],
    grid: list[GridPoint] | None = None,
    n_folds: int = 10,
    seed: int = 0,
    configs: tuple[str, ...] = CONFIG_NUMBERS,
) -> ModelBundle:
    """Train the full bundle: threshold, per-configuration classifier with
    grid-searched hyperparameters refit on all data, and priorities.

    A configuration whose labels are single-class gets a constant predictor
    with accuracy equal to that class's share (1.0), recorded without grid
    parameters.  Configurations with the same examples and labels share one
    model, trained once; their priorities are still assigned per
    configuration.

    The distinct (examples, labels) problems train in parallel: in a pool of
    forked workers, one per CPU this process may use (its affinity mask,
    else `os.cpu_count()`) and at most one per problem, each with BLAS on
    one thread; the pool is closed and joined before the function returns
    or raises.  They train inline when there is one problem, one usable CPU,
    no `fork` start method or a daemonic caller.  Either way the models are
    the same bits, and a failing training raises its own exception, the
    first in configuration order.
    """
    threshold = compute_threshold(runtime_rows, configs)
    labels = label_examples(runtime_rows, threshold, configs)
    feat_by_id = dict(feature_rows)
    order = [oid for oid, _ in feature_rows]
    # check every configuration before any (slow) grid search
    ids_by_label = {label: [oid for oid in order if oid in labels[label]] for label in configs}
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
    trained = dict(zip(tasks, _train_all(list(tasks.values()))))
    models = {label: trained[key] for label, key in keys.items()}
    priorities = assign_priorities({label: m.accuracy for label, m in models.items()})
    return ModelBundle(threshold=threshold, models=models, priorities=priorities)


# --------------------------------------------------------------- selection


def predict_labels(bundle: ModelBundle, fv: FeatureVector) -> dict[str, float]:
    x = np.asarray(fv.values, dtype=float)[None, :]
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


def _pipeline_to_json(p: FittedPipeline) -> dict:
    d: dict = {
        "selected": list(p.selected),
        "scaler_mean": p.scaler_mean.tolist(),
        "scaler_std": p.scaler_std.tolist(),
        "pca_mean": p.pca_mean.tolist(),
        "pca_components": p.pca_components.tolist(),
        "constant": p.constant,
    }
    if p.model is not None:
        d["svm"] = {
            "kernel": p.model.kernel,
            "c": p.model.c,
            "gamma": p.model.gamma,
            "x": p.model.x.tolist(),
            "y": p.model.y.tolist(),
            "alpha": p.model.alpha.tolist(),
            "bias": p.model.bias,
        }
    else:
        d["svm"] = None
    return d


def _pipeline_from_json(d: dict) -> FittedPipeline:
    svm = d["svm"]
    model = None
    if svm is not None:
        model = SvmModel(
            kernel=svm["kernel"],
            c=svm["c"],
            gamma=svm["gamma"],
            x=np.asarray(svm["x"], dtype=float),
            y=np.asarray(svm["y"], dtype=float),
            alpha=np.asarray(svm["alpha"], dtype=float),
            bias=svm["bias"],
        )
    comps = np.asarray(d["pca_components"], dtype=float)
    if comps.size == 0:
        comps = comps.reshape((0, 0))
    return FittedPipeline(
        selected=tuple(d["selected"]),
        scaler_mean=np.asarray(d["scaler_mean"], dtype=float),
        scaler_std=np.asarray(d["scaler_std"], dtype=float),
        pca_mean=np.asarray(d["pca_mean"], dtype=float),
        pca_components=comps,
        model=model,
        constant=d["constant"],
    )


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
    if (p.model is None) == (p.constant is None):
        raise CorruptModel(f"model {label}: needs exactly one of an SVM and a constant")
    comps = p.pca_components
    shapes = p.scaler_mean.shape == p.scaler_std.shape == p.pca_mean.shape == (k,)
    shapes = shapes and comps.ndim == 2 and comps.shape[1] == k
    if p.model is not None:
        y = p.model.y
        shapes = shapes and y.ndim == 1 and p.model.alpha.shape == y.shape
        shapes = shapes and p.model.x.shape == (len(y), comps.shape[0])
    if not shapes:
        raise CorruptModel(f"model {label}: array shapes disagree with {k} selected features")
    arrays = [p.scaler_mean, p.scaler_std, p.pca_mean, comps]
    if p.model is not None:
        arrays += [p.model.x, p.model.y, p.model.alpha]
    if not all(np.isfinite(a).all() for a in arrays):
        raise CorruptModel(f"model {label}: arrays hold non-finite values")
    if p.model is None:
        if not (_finite_number(p.constant) and p.constant in (GOOD, BAD)):
            raise CorruptModel(f"model {label}: constant prediction is not +1 or -1")
        return
    m = p.model
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
    return type(v) in (int, float) and math.isfinite(v)


def save_bundle(bundle: ModelBundle, path: str) -> None:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "threshold": bundle.threshold,
        "priorities": bundle.priorities,
        "models": {
            label: {
                "params": None
                if m.params is None
                else {
                    "k": m.params.k,
                    "n_components": m.params.n_components,
                    "kernel": m.params.kernel,
                    "c": m.params.c,
                    "gamma": m.params.gamma,
                },
                "accuracy": m.accuracy,
                "pipeline": _pipeline_to_json(m.pipeline),
            }
            for label, m in bundle.models.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_bundle(path: str) -> ModelBundle:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptModel(f"cannot read model bundle: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CorruptModel("model bundle lacks a version field")
    if doc["version"] != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"model format {doc['version']!r}, expected {MODEL_FORMAT_VERSION!r}"
        )
    try:
        if doc["feature_names"] != list(FEATURE_NAMES):
            raise CorruptModel("model bundle was trained on a different feature schema")
        models: dict[str, ConfigModel] = {}
        for label, m in doc["models"].items():
            params = None
            if m["params"] is not None:
                pd = m["params"]
                params = GridPoint(
                    k=pd["k"],
                    n_components=pd["n_components"],
                    kernel=pd["kernel"],
                    c=pd["c"],
                    gamma=pd["gamma"],
                )
            models[label] = ConfigModel(
                params=params,
                accuracy=m["accuracy"],
                pipeline=_pipeline_from_json(m["pipeline"]),
            )
        priorities = {label: int(v) for label, v in doc["priorities"].items()}
        bundle = ModelBundle(
            threshold=float(doc["threshold"]), models=models, priorities=priorities
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (VersionMismatch, CorruptModel)):
            raise
        raise CorruptModel(f"malformed model bundle: {exc}") from exc
    if not math.isfinite(bundle.threshold):
        raise CorruptModel("model bundle threshold is not finite")
    if set(priorities) != set(models):
        raise CorruptModel("model bundle priorities and models name different configurations")
    unknown = sorted(set(models) - set(CONFIG_NUMBERS))
    if unknown:
        raise CorruptModel(f"model bundle has unknown configurations {unknown}")
    for label, m in models.items():
        _check_pipeline(label, m.pipeline)
    return bundle
