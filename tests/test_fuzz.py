"""Fuzz tests at the input boundary: whatever text a runtime CSV, a feature
CSV or a model bundle holds, reading it returns a result or raises a
ValueError subclass (which the CLI turns into exit 2), never anything else;
whatever a corpus spec holds, `gen-corpus` exits 0, or 2 with one error line;
and so does every subcommand, whatever its command line holds.

Bounded and derandomized, so the suite stays fast and every run tries the
same inputs."""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import BASIC_TEXT, BRANCHY_TEXT, assert_no_children
from ordsel.bench.corpus import CorpusSpec
from ordsel.cli import main
from ordsel.features import FEATURE_NAMES, read_feature_csv
from ordsel.learn.pipeline import load_bundle
from ordsel.runtimes import read_runtime_csv, write_runtime_csv

from test_cli import trained  # noqa: F401 (a fixture)
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


# Command lines: every subcommand, its flags most often present, each set to
# a value drawn from a small pool: well-formed, huge, negative, NaN, empty,
# and paths that are missing, a directory or a file of another kind.  The
# inputs are tiny (two hand-written ontologies, a spec of eight small plain
# ones, CSVs of eight rows), so a valid draw never sweeps a full corpus nor
# one that could time out.  Outputs never point at an input.
HUGE = "1000000000000000000"
ODD = ["-1", "0", "1" + "0" * 30, "nan", "inf", "", "1e3", "x", "--"]


def _values(*good):
    """(well-formed values, any value of the pool)"""
    return st.sampled_from(good), st.sampled_from([*good, *ODD])


def _paths(*good):
    inputs = ["KRSS", "CORPUS", "SPEC", "FEATURES", "RUNTIMES", "COSTS", "MODEL", "MISSING", "DIR", ""]
    return st.sampled_from(good), st.sampled_from(inputs)


BUDGET = _values("1", "2000", HUGE)
SEED = _values("0", "7", HUGE)
FOLDS = _values("2", "3", HUGE)
FRACTION = _values("0.25", "0.5", "1e-300")
CONFIG = _values("1", "12", "0", "default", "Sap", "Fdn")
FILE_OUT = st.sampled_from(["OUT"]), st.sampled_from(["OUT", "MISSING", "DIR", ""])
DIR_OUT = st.sampled_from(["OUTDIR"]), st.sampled_from(["OUTDIR", "OUT", ""])
FLAG = None  # a flag that takes no value
ALWAYS = "always"  # a flag present on every draw

# flag: (required, values), --quick counted as required.  A spec is always
# given: the default one is a full corpus.
COMMANDS = {
    "sat": {"--ontology": (True, _paths("KRSS")), "--config": (False, CONFIG),
            "--budget": (False, BUDGET), "--class": (False, _values("A", "C", "Nope"))},
    "sweep": {"--ontology": (True, _paths("KRSS")), "--config": (False, CONFIG),
              "--budget": (False, BUDGET), "--out": (False, FILE_OUT)},
    "features": {"--ontology": (True, _paths("KRSS")), "--out": (False, FILE_OUT)},
    "gen-corpus": {"--spec": (ALWAYS, _paths("SPEC")), "--out": (True, DIR_OUT)},
    "bench": {"--corpus": (True, _paths("CORPUS")), "--budget": (False, BUDGET),
              "--out": (True, FILE_OUT), "--features-out": (False, FILE_OUT),
              "--configs": (False, _values("1,5,default", "3", "default", ",", "1,1", "99"))},
    "filter": {"--runtimes": (True, _paths("RUNTIMES")), "--out": (True, FILE_OUT),
               "--log": (True, FILE_OUT)},
    "split": {"--runtimes": (True, _paths("RUNTIMES")), "--test-fraction": (False, FRACTION),
              "--seed": (False, SEED), "--train-out": (True, FILE_OUT), "--test-out": (True, FILE_OUT)},
    "train": {"--features": (True, _paths("FEATURES")), "--runtimes": (True, _paths("RUNTIMES")),
              "--seed": (False, SEED), "--folds": (False, FOLDS), "--quick": (True, FLAG),
              "--out": (True, FILE_OUT)},
    "predict": {"--features": (True, _paths("FEATURES")), "--model": (True, _paths("MODEL")),
                "--out": (False, FILE_OUT)},
    "report": {"--learned": (True, _paths("COSTS")), "--standard": (True, _paths("COSTS")),
               "--out": (False, FILE_OUT)},
    "pipeline": {"--spec": (ALWAYS, _paths("SPEC")), "--budget": (False, BUDGET), "--seed": (False, SEED),
                 "--folds": (False, FOLDS), "--test-fraction": (False, FRACTION),
                 "--quick": (True, FLAG), "--out-dir": (True, DIR_OUT)},
}


@st.composite
def command_lines(draw) -> list[str]:
    """A subcommand's argv, clean two times in three (the required flags,
    well-formed values), else not: each flag present or not, a required one
    most often, each value most often well-formed, sometimes a stray
    argument."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    clean = draw(st.integers(0, 2)) > 0
    argv = [command]
    for flag, (required, values) in COMMANDS[command].items():
        if required is ALWAYS or clean:
            present = required
        else:
            present = draw(st.integers(0, 3)) > (0 if required else 1)
        if not present:
            continue
        argv.append(flag)
        if values is not FLAG:
            argv.append(draw(values[0] if clean or draw(st.integers(0, 3)) else values[1]))
    if not clean and draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "", "--"])))
    return argv


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory, trained):
    """Each placeholder's path; every input is written once, the CSVs of
    eight rows and the model by `trained`."""
    root = tmp_path_factory.mktemp("argv")
    corpus = root / "corpus"
    corpus.mkdir()
    (corpus / "basic.krss").write_text(BASIC_TEXT)
    (corpus / "branchy.krss").write_text(BRANCHY_TEXT)
    (root / "basic.krss").write_text(BASIC_TEXT)
    spec = {"count": 8, "seed": 1, "classes": [3, 4], "roles": [1, 1], "axioms": [2, 3],
            "quantifier_depth": [1, 1], "sensitive_fraction": 0.0, "hot_fraction": 0.0,
            "all_timeout_count": 0}
    (root / "spec.json").write_text(json.dumps(spec))
    costs = [r for r in read_runtime_csv(trained["runtimes"]) if r.config == "1"]
    write_runtime_csv(costs, str(root / "costs.csv"))
    (root / "out").mkdir()
    (root / "out" / "file").touch()
    paths = {"KRSS": "basic.krss", "CORPUS": "corpus", "SPEC": "spec.json", "COSTS": "costs.csv",
             "MISSING": "missing/x", "DIR": "out", "OUT": "out/file", "OUTDIR": "out/dir"}
    return {name: str(root / rel) for name, rel in paths.items()} | {
        "FEATURES": trained["features"], "RUNTIMES": trained["runtimes"], "MODEL": trained["model"]
    }


def _outcome(argv: list[str]) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage lines, then one error line
            rc = exc.code
    return rc, err.getvalue().splitlines()


@settings(DETERMINISTIC, max_examples=200, phases=(Phase.explicit, Phase.generate))
@example(argv=["train", "--features", "FEATURES", "--runtimes", "RUNTIMES", "--folds", HUGE, "--quick",
               "--out", "OUT"])
@example(argv=["pipeline", "--spec", "SPEC", "--folds", HUGE, "--quick", "--out-dir", "OUTDIR"])
@given(argv=command_lines())
def test_command_lines_exit_0_or_2_with_one_error_line(cli_paths, argv):
    argv = [cli_paths.get(arg, arg) for arg in argv]
    rc, lines = _outcome(argv)
    if rc == 0:
        assert lines == [] or argv[0] == "bench" and all(x.startswith("parse failure: ") for x in lines)
    else:
        assert rc == 2, (argv, lines)
        errors = [line for line in lines if "error: " in line]
        assert len(errors) == 1 and not any("Traceback" in line for line in lines), (argv, lines)
        assert lines == errors and errors[0].startswith("error: ") or lines[0].startswith("usage: ")
    assert_no_children()


_FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5

def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_under_the_warning_filters(tmp_path):
    # Hypothesis's failure report imports libcst, whose import warns; under
    # `filterwarnings = ["error"]` alone that aborted the whole run
    (tmp_path / "test_meta.py").write_text(_FAILING_GIVEN)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "test_meta.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
