"""Fuzz tests at the input boundary: whatever text a runtime CSV, a feature
CSV or a model bundle holds, reading it returns a result or raises a
ValueError subclass (which the CLI turns into exit 2), never anything else;
whatever a corpus spec holds, `gen-corpus` exits 0, or 2 with one error line.

Bounded and derandomized, so the suite stays fast and every run tries the
same inputs."""

import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ordsel.bench.corpus import CorpusSpec
from ordsel.cli import main
from ordsel.features import FEATURE_NAMES, read_feature_csv
from ordsel.learn.pipeline import load_bundle
from ordsel.runtimes import read_runtime_csv

from test_learning import _small_bundle_json

DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=150, phases=(Phase.generate,)
)

TEXT = st.text(st.characters(codec="utf-8"), max_size=300)

# CSV-shaped text: short fields of delimiters, quotes, numbers and words,
# half the time under the reader's own header, in rows of a few fields or
# of the header's width, so that rows get parsed too
FIELD = st.text(st.sampled_from('ab1.e-,"\n\r \t'), max_size=6) | st.sampled_from(
    ["1", "1.5", "nan", "inf", "-0.0", "1e999", "finished", "timeout", "inconsistent"]
)


def _csv_inputs(header: list[str]):
    row = st.lists(FIELD, max_size=5) | st.lists(FIELD, min_size=len(header), max_size=len(header))
    rows = st.lists(row.map(",".join), max_size=4).map("\n".join)
    head = st.sampled_from(["", ",".join(header) + "\n"])
    return TEXT | st.tuples(head, rows).map("".join)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read(reader, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        reader(str(path))
    except ValueError:
        pass


@DETERMINISTIC
@given(text=_csv_inputs(["id", "config", "cost", "outcome"]))
def test_runtime_csv_reader_returns_rows_or_raises_value_error(path, text):
    _read(read_runtime_csv, path, text)


@DETERMINISTIC
@given(text=_csv_inputs(["id", *FEATURE_NAMES]))
def test_feature_csv_reader_returns_rows_or_raises_value_error(path, text):
    _read(read_feature_csv, path, text)


# ints past the float range included: float() of them overflows
SCALAR = (
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400)
    | st.floats() | st.text(max_size=4)
)
JSON = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _places(node, where=()):
    """The path of every value inside a JSON document."""
    yield where
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _places(child, where + (key,))


BUNDLE = json.loads(_small_bundle_json())
PLACES = [where for where in _places(BUNDLE) if where]


def _edited(where, value) -> str:
    """The small bundle with the value at `where` replaced, or dropped when
    `value` is the sentinel ``...``."""
    doc = json.loads(_small_bundle_json())
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is ...:
        parent.pop(where[-1])
    else:
        parent[where[-1]] = value
    return json.dumps(doc)


@DETERMINISTIC
@given(text=TEXT | st.builds(_edited, st.sampled_from(PLACES), SCALAR | JSON | st.just(...)))
def test_bundle_loader_returns_a_bundle_or_raises_value_error(path, text):
    _read(load_bundle, path, text)


# Corpus specs: `count` and some other known fields, well-formed, then up to
# two fields, most often known ones, set to any small JSON value.  Every
# integer drawn is small (a well-formed `count` 1 to 3), so that a valid
# spec stays cheap to generate.
SMALL = st.none() | st.booleans() | st.integers(-1, 6) | st.floats() | st.text(max_size=3)
SPEC_VALUE = SMALL | st.recursive(
    SMALL,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
PAIR = st.lists(st.integers(0, 4), min_size=2, max_size=2).map(sorted)
WELL_FORMED = {
    "count": st.integers(1, 3),
    "seed": st.integers(0, 6),
    "classes": st.lists(st.integers(3, 6), min_size=2, max_size=2).map(sorted),
    "roles": PAIR,
    "axioms": PAIR,
    "quantifier_depth": PAIR,
    "disjunction_density": st.floats(0, 1),
    "sensitive_fraction": st.floats(0, 1),
    "hot_fraction": st.floats(0, 1),
    "warm_widths": st.lists(st.integers(1, 6), min_size=1, max_size=2),
    "hot_width": st.integers(1, 6),
    "all_timeout_count": st.integers(0, 3),
}
FIELDS = [f.name for f in dataclasses.fields(CorpusSpec)]


@st.composite
def corpus_specs(draw) -> dict:
    spec = {name: draw(WELL_FORMED[name]) for name in FIELDS if name == "count" or draw(st.booleans())}
    for _ in range(draw(st.integers(0, 2))):
        known = draw(st.integers(0, 3)) > 0
        spec[draw(st.sampled_from(FIELDS) if known else st.text(max_size=4))] = draw(SPEC_VALUE)
    return spec


@settings(DETERMINISTIC, max_examples=60)
@given(spec=corpus_specs())
def test_gen_corpus_spec_exits_0_or_2_with_one_error_line(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("spec")
    (tmp / "spec.json").write_text(json.dumps(spec))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["gen-corpus", "--spec", str(tmp / "spec.json"), "--out", str(tmp / "out")])
    lines = err.getvalue().splitlines()
    assert (rc, lines) == (0, []) or rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
