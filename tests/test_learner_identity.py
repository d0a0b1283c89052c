"""Differential tests of the learner kernels against `learning_oracle`.

`svm_train` runs SMO on Python floats and `mutual_information` bins every
column in one pass; both must return exactly the bits of the scalar-numpy
copies in `tests/learning_oracle.py`, and a bundle trained through the
oracles must save to the same `model.json` bytes."""

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
