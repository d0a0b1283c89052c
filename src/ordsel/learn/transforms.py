"""Feature-space transforms: standardization, mutual-information feature
selection, and principal-component projection.

All functions take and return plain numpy arrays so they can be fit on a
training fold and replayed on held-out data.  Population (not sample)
statistics are used throughout; a feature that is constant on the training
data standardizes to exactly 0 everywhere.
"""

from __future__ import annotations

import numpy as np


class DegenerateData(ValueError):
    """Raised when a transform cannot be fit on the given data shape."""


# ---------------------------------------------------------------- scaling


def fit_scaler(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation of a 2-D array.
    Both must be finite: values near the float limit (±1e300) overflow
    them, and a scaler fit on them would standardize to NaN."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DegenerateData("scaler needs a non-empty 2-D array")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = x.mean(axis=0), x.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise DegenerateData("a feature column's mean or standard deviation is not finite")
    return mean, std


def apply_scaler(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Standardize columns; constant columns (std 0) map to 0, not NaN."""
    x = np.asarray(x, dtype=float)
    safe = np.where(std > 0.0, std, 1.0)
    out = (x - mean) / safe
    return np.where(std > 0.0, out, 0.0)


# ------------------------------------------- mutual information selection

# Equal-frequency bins per feature column when estimating MI.
MI_BINS = 4


def mutual_information(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """MI (bits) between each column of `x` and the label vector `y`.

    Columns are discretized into `MI_BINS` equal-frequency bins in one pass
    over the matrix: one `np.quantile` call gives every column's inner
    edges, and a value's bin is the number of its column's edges strictly
    below it.  Collapsed quantile edges (heavily tied data) simply yield
    fewer bins.  One `np.bincount` counts every column's (bin, label)
    pairs; a column's joint table keeps its non-empty bins in ascending
    order, so a constant column has a one-row table and zero MI.

    The terms ``p * log2(p / (px * py))`` of every table are computed at
    once.  A column's MI is the NaN-skipping sum of its non-empty cells in
    row-major order, taken per group of columns with the same number of
    non-empty bins, so each sum adds the same values in the same order as
    a sum over that column's table alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DegenerateData("feature matrix and labels disagree on sample count")
    labels, label_ids = np.unique(y, return_inverse=True)
    n_cols, n_labels = x.shape[1], len(labels)
    edges = np.quantile(x, np.linspace(0.0, 1.0, MI_BINS + 1)[1:-1], axis=0)
    bins = (x[None, :, :] > edges[:, None, :]).sum(axis=0)
    cells = (np.arange(n_cols) * MI_BINS + bins) * n_labels + label_ids[:, None]
    counts = np.bincount(cells.ravel(), minlength=n_cols * MI_BINS * n_labels)
    tables = counts.reshape(n_cols, MI_BINS, n_labels)
    p = tables / x.shape[0]
    px = p.sum(axis=2, keepdims=True)
    py = p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log2(p / (px * py))
    kept = tables.sum(axis=2) > 0
    rows = kept.sum(axis=1)
    scores = np.empty(n_cols)
    for k in np.unique(rows):
        group = rows == k
        nonempty = terms[group][kept[group]].reshape(-1, k * n_labels)
        scores[group] = np.nansum(nonempty, axis=1)
    return scores


def select_top_k(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the k best scores, ascending index order on output; ties
    between scores resolve toward the lower index."""
    n = len(scores)
    k = max(0, min(k, n))
    ranked = sorted(range(n), key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


# ------------------------------------------------------------------- PCA


def pca_fit(x: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Principal axes of `x` via the eigendecomposition of the covariance.

    Returns (mean, components) with components of shape (n_components, dims),
    ordered by descending eigenvalue.  Each component's sign is canonicalized
    so its largest-magnitude coefficient is positive (first such coefficient
    on ties), making the projection reproducible across platforms.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DegenerateData("PCA needs at least two samples")
    dims = x.shape[1]
    if not 1 <= n_components <= dims:
        raise DegenerateData(f"cannot extract {n_components} components from {dims} dims")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    comps = eigvecs[:, order[:n_components]].T
    for row in comps:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return mean, comps


def pca_transform(x: np.ndarray, mean: np.ndarray, components: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=float) - mean) @ np.asarray(components).T
