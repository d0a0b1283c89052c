"""A small deterministic soft-margin SVM.

Training uses sequential minimal optimization with a fully deterministic
working-set choice: scan the first multiplier in index order, pick the
partner maximizing |E1 - E2| (lower index on ties).  No randomness is
involved anywhere, so training the same data twice yields bit-identical
models.  Intended for the few-hundred-sample problems produced by the
benchmark harness, not for large-scale use.

The inner loop runs on Python floats: the multipliers, the labels, the
Gram diagonal and the current error vector are lists, and the KKT test,
the box bounds, `eta`, the clip and the bias rule are scalar arithmetic.
numpy is used only for the per-pass error vector, the partner `argmax`
and the rank-2 error update after each step.  These are the same IEEE
double operations, in the same order, as a loop on numpy scalars, so the
model is bit-identical to that loop's (`tests/learning_oracle.py` keeps
one as the reference); Python floats only avoid boxing each scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LINEAR = "linear"
RBF = "rbf"

_TOL = 1e-3
_EPS = 1e-8
_MAX_UPDATES = 100_000


class SingleClass(ValueError):
    """Raised when training labels contain only one class."""


class TooFewExamples(ValueError):
    """Raised when there are not enough examples to train."""


@dataclass(frozen=True)
class SvmModel:
    kernel: str
    c: float
    gamma: float | None
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    bias: float


def kernel_matrix(kernel: str, gamma: float | None, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kernel == LINEAR:
        return a @ b.T
    if kernel == RBF:
        if gamma is None:
            raise ValueError("rbf kernel requires gamma")
        sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.exp(-gamma * np.maximum(sq, 0.0))
    raise ValueError(f"unknown kernel {kernel!r}")


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
    yl = y.tolist()
    diag = k.diagonal().tolist()
    alpha = [0.0] * n
    bias = 0.0
    updates = 0

    while updates < _MAX_UPDATES:
        changed = 0
        # Fresh error vector each pass; kept incrementally within the pass.
        e = (np.array(alpha) * y) @ k + bias - y
        el = e.tolist()
        for i in range(n):
            ei, yi, ai_old = el[i], yl[i], alpha[i]
            if not ((yi * ei < -_TOL and ai_old < c) or (yi * ei > _TOL and ai_old > 0)):
                continue
            gaps = np.abs(ei - e)
            gaps[i] = -1.0
            j = int(gaps.argmax())  # argmax takes the lowest index on ties
            if j == i:
                continue
            ej, yj, aj_old = el[j], yl[j], alpha[j]
            if yi != yj:
                lo, hi = max(0.0, aj_old - ai_old), min(c, c + aj_old - ai_old)
            else:
                lo, hi = max(0.0, ai_old + aj_old - c), min(c, ai_old + aj_old)
            if hi - lo < _EPS:
                continue
            kij = k.item(i, j)
            eta = 2.0 * kij - diag[i] - diag[j]
            if eta >= 0:
                continue
            aj = aj_old - yj * (ei - ej) / eta
            aj = lo if aj < lo else hi if aj > hi else aj
            if abs(aj - aj_old) < _EPS:
                continue
            ai = ai_old + yi * yj * (aj_old - aj)
            alpha[i], alpha[j] = ai, aj
            db = -bias
            b1 = bias - ei - yi * (ai - ai_old) * diag[i] - yj * (aj - aj_old) * kij
            b2 = bias - ej - yi * (ai - ai_old) * kij - yj * (aj - aj_old) * diag[j]
            if 0.0 < ai < c:
                bias = b1
            elif 0.0 < aj < c:
                bias = b2
            else:
                bias = (b1 + b2) / 2.0
            db += bias
            e = e + yi * (ai - ai_old) * k[i] + yj * (aj - aj_old) * k[j] + db
            el = e.tolist()
            changed += 1
            updates += 1
            if updates >= _MAX_UPDATES:
                break
        if changed == 0:
            break

    alpha = np.array(alpha, dtype=float)
    return SvmModel(kernel=kernel, c=c, gamma=gamma, x=x, y=y, alpha=alpha, bias=bias)


def svm_decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k = kernel_matrix(model.kernel, model.gamma, x, model.x)
    return k @ (model.alpha * model.y) + model.bias


def svm_predict(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Class labels in {-1, +1}; the decision boundary itself maps to +1."""
    return np.where(svm_decision(model, x) >= 0.0, 1.0, -1.0)
