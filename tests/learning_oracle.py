"""Scalar-numpy learner kernels: the reference for the learner hot path.

Verbatim copies of ``svm_train`` and ``mutual_information`` (with its
per-column ``_bin_column`` and ``mi_from_joint``) from before the package
ran the SMO inner loop on Python floats and binned and scored every
feature column in one pass.  They do each step with numpy scalars and
per-column loops, so the identity tests require the package's kernels to
return exactly the same bits.
"""

from __future__ import annotations

import numpy as np

from ordsel.learn.svm import (
    _EPS,
    _TOL,
    LINEAR,
    SingleClass,
    SvmModel,
    TooFewExamples,
    kernel_matrix,
)
from ordsel.learn.transforms import MI_BINS, DegenerateData

_MAX_UPDATES = 100_000


def svm_train(
    x: np.ndarray,
    y: np.ndarray,
    kernel: str = LINEAR,
    c: float = 1.0,
    gamma: float | None = None,
    gram: np.ndarray | None = None,
) -> SvmModel:
    """Fit a binary SVM on labels in {-1, +1}.  `gram`, when given, must be
    `kernel_matrix(kernel, gamma, x, x)`, computed once by the caller."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise TooFewExamples(f"need at least 2 examples, got {n}")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ValueError("labels must be -1 or +1")
    if len(np.unique(y)) < 2:
        raise SingleClass("training labels contain a single class")

    k = kernel_matrix(kernel, gamma, x, x) if gram is None else gram
    alpha = np.zeros(n)
    bias = 0.0
    updates = 0

    while updates < _MAX_UPDATES:
        changed = 0
        # Fresh error vector each pass; kept incrementally within the pass.
        e = (alpha * y) @ k + bias - y
        for i in range(n):
            ei = e[i]
            if not ((y[i] * ei < -_TOL and alpha[i] < c) or (y[i] * ei > _TOL and alpha[i] > 0)):
                continue
            gaps = np.abs(ei - e)
            gaps[i] = -1.0
            j = int(np.argmax(gaps))  # argmax takes the lowest index on ties
            if j == i:
                continue
            ej = e[j]
            ai_old, aj_old = alpha[i], alpha[j]
            if y[i] != y[j]:
                lo, hi = max(0.0, aj_old - ai_old), min(c, c + aj_old - ai_old)
            else:
                lo, hi = max(0.0, ai_old + aj_old - c), min(c, ai_old + aj_old)
            if hi - lo < _EPS:
                continue
            eta = 2.0 * k[i, j] - k[i, i] - k[j, j]
            if eta >= 0:
                continue
            aj = np.clip(aj_old - y[j] * (ei - ej) / eta, lo, hi)
            if abs(aj - aj_old) < _EPS:
                continue
            ai = ai_old + y[i] * y[j] * (aj_old - aj)
            alpha[i], alpha[j] = ai, aj
            db = -bias
            b1 = bias - ei - y[i] * (ai - ai_old) * k[i, i] - y[j] * (aj - aj_old) * k[i, j]
            b2 = bias - ej - y[i] * (ai - ai_old) * k[i, j] - y[j] * (aj - aj_old) * k[j, j]
            if 0.0 < ai < c:
                bias = b1
            elif 0.0 < aj < c:
                bias = b2
            else:
                bias = (b1 + b2) / 2.0
            db += bias
            e = e + y[i] * (ai - ai_old) * k[i] + y[j] * (aj - aj_old) * k[j] + db
            changed += 1
            updates += 1
            if updates >= _MAX_UPDATES:
                break
        if changed == 0:
            break

    return SvmModel(kernel=kernel, c=c, gamma=gamma, x=x, y=y, alpha=alpha, bias=bias)


def mi_from_joint(joint: np.ndarray) -> float:
    """Mutual information in bits from a (non-normalized) joint count table."""
    joint = np.asarray(joint, dtype=float)
    total = joint.sum()
    if total <= 0:
        return 0.0
    p = joint / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log2(p / (px * py))
    return float(np.nansum(terms))


def _bin_column(col: np.ndarray) -> np.ndarray:
    """Equal-frequency discretization into at most `MI_BINS` integer bins."""
    edges = np.quantile(col, np.linspace(0.0, 1.0, MI_BINS + 1)[1:-1])
    return np.digitize(col, np.unique(edges), right=True)


def mutual_information(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """MI (bits) between each column of `x` and the label vector `y`.

    Continuous columns are discretized into equal-frequency bins; collapsed
    quantile edges (heavily tied data) simply yield fewer bins.  A constant
    column has zero MI by construction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DegenerateData("feature matrix and labels disagree on sample count")
    labels = np.unique(y)
    scores = np.empty(x.shape[1])
    for j in range(x.shape[1]):
        xb = _bin_column(x[:, j])
        xvals = np.unique(xb)
        joint = np.zeros((len(xvals), len(labels)))
        for a, xv in enumerate(xvals):
            for b, yv in enumerate(labels):
                joint[a, b] = np.count_nonzero((xb == xv) & (y == yv))
        scores[j] = mi_from_joint(joint)
    return scores
