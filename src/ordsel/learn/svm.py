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
numpy is used only for the per-pass error vector, one `argsort` of it and
the rank-2 error update after each step.  These are the same IEEE double
operations, in the same order, as a loop on numpy scalars, so the model is
bit-identical to that loop's (`tests/learning_oracle.py` keeps one as the
reference); Python floats only avoid boxing each scalar.

The partner search sorts the error vector once per version of it: at the
first KKT violator after a pass starts or after an update.  Most
violators fail the box or the step test, so one version serves several
searches.  Every maximizer of |E1 - E2| sits in a run at one end of that
order.  `fl(E1 - x)` is monotone in `x` and round-to-nearest is
sign-symmetric, so the gap cannot rise as `x` falls toward `E1` from
either side; along the sorted errors it falls, then rises.  `_partner`
compares the two ends, walks the equal-gap run at the winning end (both
ends on a tie) and returns its lowest index, which is what
`argmax(|E1 - e|)` with the violator's own gap masked would return.  The
walk needs finite errors, since `argmax` would return the first NaN and a
sort puts NaN last, so `svm_train` rejects a Gram matrix with a
non-finite entry.
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
    yl = y.tolist()
    labels = set(yl)
    if not labels <= {-1.0, 1.0}:
        raise ValueError("labels must be -1 or +1")
    if len(labels) < 2:
        raise SingleClass("training labels contain a single class")

    k = kernel_matrix(kernel, gamma, x, x) if gram is None else gram
    if not np.isfinite(k).all():
        raise ValueError("Gram matrix holds non-finite values")
    diag = k.diagonal().tolist()
    alpha = [0.0] * n
    bias = 0.0
    updates = 0

    while updates < _MAX_UPDATES:
        changed = 0
        # Fresh error vector each pass; kept incrementally within the pass.
        e = (np.array(alpha) * y) @ k + bias - y
        el = e.tolist()
        srt = None  # argsort of the current `e`, made at its first violator
        for i in range(n):
            ei, yi, ai_old = el[i], yl[i], alpha[i]
            if not ((yi * ei < -_TOL and ai_old < c) or (yi * ei > _TOL and ai_old > 0)):
                continue
            if srt is None:
                srt = e.argsort().tolist()
            j = _partner(i, ei, el, srt)
            ej, yj, aj_old = el[j], yl[j], alpha[j]
            # `d if d > 0.0 else 0.0` is `max(0.0, d)`, signed zeros included
            if yi != yj:
                d, u = aj_old - ai_old, c + aj_old - ai_old
            else:
                d, u = ai_old + aj_old - c, ai_old + aj_old
            lo = d if d > 0.0 else 0.0
            hi = u if u < c else c
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
            di, dj = yi * (ai - ai_old), yj * (aj - aj_old)
            db = -bias
            b1 = bias - ei - di * diag[i] - dj * kij
            b2 = bias - ej - di * kij - dj * diag[j]
            if 0.0 < ai < c:
                bias = b1
            elif 0.0 < aj < c:
                bias = b2
            else:
                bias = (b1 + b2) / 2.0
            db += bias
            e = e + di * k[i] + dj * k[j] + db
            el = e.tolist()
            srt = None
            changed += 1
            updates += 1
            if updates >= _MAX_UPDATES:
                break
        if changed == 0:
            break

    alpha = np.array(alpha, dtype=float)
    return SvmModel(kernel=kernel, c=c, gamma=gamma, x=x, y=y, alpha=alpha, bias=bias)


def _partner(i: int, ei: float, el: list[float], srt: list[int]) -> int:
    """The lowest `j != i` maximizing `abs(ei - el[j])`, given `srt`, the
    indices of the finite errors `el` in ascending order of value.  The
    maximizers form a run of equal gaps at one end of `srt` or at both, so
    only those runs are walked."""
    a, b = 0, len(srt) - 1
    if srt[a] == i:
        a += 1
    if srt[b] == i:
        b -= 1
    ga, gb = abs(ei - el[srt[a]]), abs(ei - el[srt[b]])
    best = ga if ga > gb else gb
    j = len(srt)
    if ga == best:
        while a <= b:
            s = srt[a]
            if s != i:
                if abs(ei - el[s]) != best:
                    break
                if s < j:
                    j = s
            a += 1
    if gb == best:
        while b >= a:
            s = srt[b]
            if s != i:
                if abs(ei - el[s]) != best:
                    break
                if s < j:
                    j = s
            b -= 1
    return j


def svm_decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k = kernel_matrix(model.kernel, model.gamma, x, model.x)
    return k @ (model.alpha * model.y) + model.bias


def svm_predict(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Class labels in {-1, +1}; the decision boundary itself maps to +1."""
    return np.where(svm_decision(model, x) >= 0.0, 1.0, -1.0)
