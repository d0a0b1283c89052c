"""Differential tests of the learner kernels against `learning_oracle`.

`svm_train` runs SMO on Python floats and `mutual_information` bins every
column in one pass; both must return exactly the bits of the scalar-numpy
copies in `tests/learning_oracle.py`, and a bundle trained through the
oracles must save to the same `model.json` bytes.  The SMO partner search
walks a sorted error vector; it must pick the index a numpy `argmax` over
the gaps picks."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import learning_oracle
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.bench.harness import filter_eligible, run_benchmark
from ordsel.cli import QUICK_GRID
from ordsel.heuristics import CONFIG_NUMBERS
from ordsel.learn import pipeline, svm
from ordsel.learn.svm import LINEAR, RBF, svm_train
from ordsel.learn.transforms import mutual_information

# Each example is a seed of a numpy generator, so there is nothing to shrink.
DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=20, phases=(Phase.generate,)
)
SEEDS = st.integers(0, 2**32 - 1)
KERNELS = [(LINEAR, None), (RBF, 0.5)]
CS = [0.1, 1.0, 10.0, 100.0]


def _problem(seed, duplicates=False):
    """A labelled problem with both classes; with `duplicates` every row is
    one of a few distinct rows, so errors tie and the partner argmax meets
    ties."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    x = rng.normal(size=(n, int(rng.integers(1, 5))))
    if duplicates:
        x = x[rng.integers(0, max(1, n // 4), size=n)]
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return x, y


def _assert_same_model(x, y, kernel, c, gamma):
    got = svm_train(x, y, kernel=kernel, c=c, gamma=gamma)
    want = learning_oracle.svm_train(x, y, kernel=kernel, c=c, gamma=gamma)
    assert got.alpha.tobytes() == want.alpha.tobytes(), (kernel, c)
    assert got.bias == want.bias, (kernel, c)
    return got


@DETERMINISTIC
@given(SEEDS, st.booleans())
def test_svm_matches_oracle(seed, duplicates):
    x, y = _problem(seed, duplicates)
    for kernel, gamma in KERNELS:
        for c in CS:
            _assert_same_model(x, y, kernel, c, gamma)


@DETERMINISTIC
@given(SEEDS)
def test_svm_matches_oracle_at_update_cap(seed):
    x, y = _problem(seed, duplicates=seed % 2 == 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svm, "_MAX_UPDATES", 7)
        mp.setattr(learning_oracle, "_MAX_UPDATES", 7)
        for kernel, gamma in KERNELS:
            for c in CS:
                _assert_same_model(x, y, kernel, c, gamma)


def test_update_cap_stops_training(monkeypatch):
    # the cap binds on this problem: training stops before convergence
    x, y = _problem(3)
    full = svm_train(x, y, kernel=RBF, c=10.0, gamma=0.5)
    monkeypatch.setattr(svm, "_MAX_UPDATES", 7)
    monkeypatch.setattr(learning_oracle, "_MAX_UPDATES", 7)
    capped = _assert_same_model(x, y, RBF, 10.0, 0.5)
    assert capped.alpha.tobytes() != full.alpha.tobytes()


def _argmax_partner(i, e):
    """The partner as a numpy `argmax` defines it: the lowest index of the
    largest gap, with the violator's own gap masked."""
    gaps = np.abs(e[i] - e)
    gaps[i] = -1.0
    return int(gaps.argmax())


def _tied_errors(rng):
    """An error vector with ties: few distinct values (so runs at both
    ends, and all-equal vectors), signed zeros, or values a few ulps apart
    next to a large one, whose gaps to them round to equal values."""
    n = int(rng.integers(2, 14))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        pool = rng.normal(size=int(rng.integers(1, 4)))
    elif kind == 1:
        pool = np.array([0.0, -0.0, float(rng.normal())])
    else:
        base = float(rng.normal())
        big = float(rng.choice([1e4, 1e16, 1e17]))
        ulps = [base]
        for _ in range(3):
            ulps = [np.nextafter(ulps[0], -np.inf), *ulps, np.nextafter(ulps[-1], np.inf)]
        pool = np.array(ulps + [big, -big])
    return pool[rng.integers(0, len(pool), size=n)]


@DETERMINISTIC
@given(SEEDS)
def test_partner_matches_argmax(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        e = _tied_errors(rng)
        el = e.tolist()
        # any ascending order of the values will do, whatever it does on ties
        orders = [e.argsort().tolist(), np.lexsort((rng.random(len(e)), e)).tolist()]
        for i in range(len(e)):
            want = _argmax_partner(i, e)
            for srt in orders:
                assert svm._partner(i, el[i], el, srt) == want, (e.tolist(), i, srt)


@pytest.mark.parametrize(
    "e",
    [
        [1.0, 1.0],  # n = 2, equal
        [0.0, -0.0],  # n = 2, signed zeros
        [-0.0, 0.0, 0.0, -0.0, 5.0],
        [2.0, 2.0, 2.0, 2.0],  # all equal
        [3.0, -1.0, 3.0, 0.5, -1.0, 3.0, -1.0],  # runs at both ends, i inside them
        [1.0, 0.0, -1.0, 1.0, -1.0, 0.5],  # equal gaps at both ends for i = 1
        [1.0, 1.0 + 2**-52, 1.0 - 2**-53, 1e17, 1.0 + 2**-51, 1.0],  # gaps round equal
    ],
)
def test_partner_matches_argmax_on_small_cases(e):
    e = np.asarray(e)
    el = e.tolist()
    ids = np.arange(len(e))
    # ties in ascending and in descending index order
    for srt in (np.lexsort((ids, e)).tolist(), np.lexsort((-ids, e)).tolist()):
        for i in range(len(e)):
            assert svm._partner(i, el[i], el, srt) == _argmax_partner(i, e), (i, srt)


def test_svm_matches_oracle_when_gaps_round_equal(monkeypatch):
    # nine inputs a few ulps from 1 next to +-1e4: after the first update the
    # errors of the nine differ by ulps, and the partner of a large error
    # is a run of distinct values whose gaps round to one value
    x = np.array([1.0 + s * 2**-52 for s in (-2, 1, -2, 1, 2, 2, -2, 2, 2)] + [1e4, -1e4])
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    partner, distinct_runs = svm._partner, []

    def spy(i, ei, el, srt):
        e = np.asarray(el)
        gaps = np.abs(ei - e)
        gaps[i] = -1.0
        distinct_runs.append(len(set(e[gaps == gaps.max()].tolist())) > 1)
        return partner(i, ei, el, srt)

    monkeypatch.setattr(svm, "_partner", spy)
    for c in CS:
        _assert_same_model(x[:, None], y, LINEAR, c, None)
    assert any(distinct_runs)


def test_svm_rejects_non_finite_gram():
    x, y = _problem(5)
    for bad in (np.nan, np.inf, -np.inf):
        xb = x.copy()
        xb[0, 0] = bad
        assert not np.isfinite(svm.kernel_matrix(LINEAR, None, xb, xb)).all()
        with pytest.raises(ValueError, match="non-finite"):
            svm_train(xb, y)


def _assert_same_mi(x, y):
    got = mutual_information(x, y)
    want = learning_oracle.mutual_information(x, y)
    assert got.tobytes() == want.tobytes()


@DETERMINISTIC
@given(SEEDS)
def test_mutual_information_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    cols = [
        rng.normal(size=n),
        rng.integers(0, 3, size=n).astype(float),  # tied quantile edges
        np.where(rng.random(n) < 0.9, 0.0, 1.0),  # mostly one value
        np.full(n, rng.normal()),  # constant
    ]
    x = np.column_stack([cols[i] for i in rng.integers(0, len(cols), size=6)])
    _assert_same_mi(x, rng.integers(0, 2, size=n))
    _assert_same_mi(x, rng.integers(0, 3, size=n))  # three labels
    _assert_same_mi(x, np.where(rng.random(n) < 0.5, 1.0, -1.0))


@pytest.mark.parametrize(
    "x, y",
    [
        ([[0.0, 1.0], [1.0, 1.0]], [1.0, -1.0]),  # n = 2
        ([[5.0], [5.0]], [0, 1]),  # n = 2, constant
        ([[0.0], [0.0], [0.0], [1.0], [1.0], [2.0]], [0, 1, 2, 0, 1, 2]),
        ([[3.0], [3.0], [3.0], [3.0], [7.0]], [1, 1, 2, 2, 2]),  # three tied edges
    ],
)
def test_mutual_information_matches_oracle_on_small_cases(x, y):
    _assert_same_mi(np.asarray(x), np.asarray(y))


def test_bundle_bytes_match_oracle_training(monkeypatch, tmp_path):
    instances = generate_corpus(CorpusSpec(count=24, seed=11))
    bench = run_benchmark([(inst.ontology_id, inst.text) for inst in instances], budget=2000)
    eligible, _ = filter_eligible(bench.rows)
    rows = [r for r in eligible if r.config in CONFIG_NUMBERS]
    features = [(oid, bench.features[oid]) for oid in sorted({r.ontology_id for r in rows})]

    def train(path):
        bundle = pipeline.train_model_bundle(features, rows, grid=QUICK_GRID, n_folds=4, seed=1)
        pipeline.save_bundle(bundle, str(path))
        return path.read_bytes()

    got = train(tmp_path / "model.json")
    monkeypatch.setattr(pipeline, "svm_train", learning_oracle.svm_train)
    monkeypatch.setattr(pipeline, "mutual_information", learning_oracle.mutual_information)
    assert got == train(tmp_path / "oracle.json")
