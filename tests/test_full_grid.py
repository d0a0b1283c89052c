"""Acceptance run of the full default grid.

Trains the bundle over all 196 points of `default_grid` with 10-fold CV
on the frozen training split in `perfbench/data` and pins the saved
`model.json` by its sha256.  Any change to the learner's arithmetic shows
here.  The best-first grid search trains about 4,600 of the 19,600
fold SVMs, so the run takes a few seconds and tier 1 includes it."""

import hashlib
import json
from pathlib import Path

from ordsel.features import read_feature_csv
from ordsel.learn.pipeline import save_bundle, train_model_bundle
from ordsel.runtimes import read_runtime_csv

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
BUNDLE_SHA256 = "c9ec5766a25d641d0599b7e87045a9358f9b1429b89631199cca0d7a28b79a9c"


def test_full_default_grid_bundle_is_pinned(tmp_path):
    train = set(json.loads((DATA / "train_ids.json").read_text()))
    features = [(oid, fv) for oid, fv in read_feature_csv(str(DATA / "features.csv")) if oid in train]
    rows = [r for r in read_runtime_csv(str(DATA / "runtimes.csv")) if r.ontology_id in train]
    bundle = train_model_bundle(features, rows, grid=None, n_folds=10, seed=42)
    path = tmp_path / "model.json"
    save_bundle(bundle, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUNDLE_SHA256
