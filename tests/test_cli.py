"""End-to-end tests of the command-line interface, run in-process.

Success paths must exit 0 and produce the documented artifacts; validation
failures (bad flags, unreadable input, malformed CSV, corrupt models) must
exit 2 with a diagnostic on stderr rather than raising."""

import csv
import json
import os

import numpy as np
import pytest

from ordsel import cli
from ordsel.bench.corpus import FAMILY_FAST, SIZE_LIMITS, CorpusSpec, generate_corpus
from ordsel.cli import main
from ordsel.concepts import walk
from ordsel.dag import encode_dag
from ordsel.features import (
    FEATURE_NAMES,
    N_FEATURES,
    FeatureVector,
    extract_features,
    read_feature_csv,
    write_feature_csv,
)
from ordsel.heuristics import CONFIG_NUMBERS, DEFAULT_MIN_GCIS, default_config
from ordsel.krss import parse_ontology
from ordsel.runtimes import RuntimeRow, read_runtime_csv, write_runtime_csv

from conftest import BASIC_TEXT, assert_no_children, set_workers
from test_tableau import _default_recursion_limit
from trees import assert_same, first_difference

SPEC = {"count": 10, "seed": 3, "all_timeout_count": 1, "hot_fraction": 0.0}


@pytest.fixture(scope="module")
def basic_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("onts") / "basic.krss"
    path.write_text(BASIC_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = root / "krss"
    assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Hand-built feature/runtime tables plus a model trained on them."""
    root = tmp_path_factory.mktemp("train")
    rng = np.random.default_rng(2)
    feature_rows = []
    runtime_rows = []
    for i in range(8):
        vals = rng.normal(size=N_FEATURES) * 0.01
        vals[0] = float(i)
        oid = f"t{i}"
        feature_rows.append((oid, FeatureVector(tuple(float(v) for v in vals))))
        for c in CONFIG_NUMBERS:
            if i < 4:
                runtime_rows.append(RuntimeRow(oid, c, 10.0, "finished"))
            else:
                runtime_rows.append(RuntimeRow(oid, c, 5000.0, "timeout"))
    features = str(root / "features.csv")
    runtimes = str(root / "runtimes.csv")
    model = str(root / "model.json")
    write_feature_csv(feature_rows, features)
    write_runtime_csv(runtime_rows, runtimes)
    rc = main(
        ["train", "--features", features, "--runtimes", runtimes,
         "--folds", "2", "--quick", "--out", model]
    )
    assert rc == 0
    return {"features": features, "runtimes": runtimes, "model": model}


# -------------------------------------------------------------------- sat


def test_sat_tbox_and_class(basic_path, capsys):
    assert main(["sat", "--ontology", basic_path]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "satisfiable" and len(out) == 3
    assert main(["sat", "--ontology", basic_path, "--class", "A", "--config", "Sap"]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "satisfiable"
    assert int(out[1]) > 0


def test_sat_numeric_and_unsorted_configs(basic_path, capsys):
    for cfg in ("5", "0", "Ddn"):
        assert main(["sat", "--ontology", basic_path, "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("satisfiable")


def test_sat_error_paths(basic_path, capsys):
    assert main(["sat", "--ontology", basic_path, "--class", "Nope"]) == 2
    assert "Nope" in capsys.readouterr().err
    assert main(["sat", "--ontology", basic_path, "--config", "Zap"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sat", "--ontology", "/nonexistent.krss"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sat", "sweep"])
@pytest.mark.parametrize("flag", ["--gci-threshold", "--abox-threshold"])
def test_default_rule_has_no_threshold_options(basic_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--ontology", basic_path, flag, "5"])
    assert exc.value.code == 2


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ------------------------------------------------------------------ sweep


def test_sweep_csv_shape(basic_path, capsys):
    assert main(["sweep", "--ontology", basic_path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "class,outcome,steps"
    assert len(lines) == 6  # four classes + total row
    names = [line.split(",")[0] for line in lines[1:-1]]
    assert names == ["C", "D", "F", "A"]  # declaration order
    total = lines[-1].split(",")
    assert total[0] == "#total" and total[1] == "finished"
    assert int(total[2]) == sum(int(line.split(",")[2]) for line in lines[1:-1])


def test_sweep_to_file(basic_path, tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--ontology", basic_path, "--out", out]) == 0
    assert open(out).read().startswith("class,outcome,steps\n")


def _sweep_total(path, config, capsys):
    assert main(["sweep", "--ontology", path, "--config", config, "--budget", "12000"]) == 0
    return capsys.readouterr().out.strip().split("\n")[-1]


def test_gci_rich_default_is_fdn_in_sweep_and_bench(tmp_path, capsys):
    # A trap that c1 (Sap) escapes and c10 (Fdn) detonates, plus enough GCIs
    # for the default rule to pick Fdn: sweep and bench must both apply it.
    trap = next(
        inst
        for inst in generate_corpus(CorpusSpec(count=8, seed=0, sensitive_fraction=1.0))
        if inst.family is not None
        and 1 in FAMILY_FAST[inst.family]
        and 10 not in FAMILY_FAST[inst.family]
    )
    gcis = "".join(f"(implies (and G{i} H{i}) J{i})\n" for i in range(DEFAULT_MIN_GCIS))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "trap.krss"
    path.write_text(trap.text + gcis)

    default = _sweep_total(str(path), "default", capsys)
    assert default == _sweep_total(str(path), "10", capsys)
    assert default != _sweep_total(str(path), "1", capsys)

    out = str(tmp_path / "runtimes.csv")
    rc = main(["bench", "--corpus", str(corpus), "--configs", "1,10,default", "--out", out])
    assert rc == 0
    rows = {r.config: r for r in read_runtime_csv(out)}
    assert (rows["default"].cost, rows["default"].outcome) == (
        rows["10"].cost,
        rows["10"].outcome,
    )
    assert rows["1"].cost != rows["10"].cost


_GCIS = "".join(f"(implies (and G{i} H{i}) J{i})\n" for i in range(DEFAULT_MIN_GCIS))


@pytest.mark.parametrize(
    "text, label",
    [
        (BASIC_TEXT + _GCIS, "Fdn"),
        (BASIC_TEXT, "Sap"),
        # more instances than the rule allows (`sat` and `sweep` reject ABoxes)
        (BASIC_TEXT + _GCIS + "".join(f"(instance a{i} C)\n" for i in range(11)), "Sap"),
    ],
)
def test_default_ordering_is_the_rule_on_the_full_features(monkeypatch, text, label):
    onto = parse_ontology(text)
    dag = encode_dag(onto)
    want = default_config(extract_features(onto, dag))
    assert want.label == label

    def full_features(*args):
        raise AssertionError("the default rule reads only numGCIs and numInstances")

    monkeypatch.setattr(cli, "extract_features", full_features)
    assert cli._ordered(dag, onto, "default").config == want


# --------------------------------------------------------------- features


def test_features_stdout(basic_path, capsys):
    assert main(["features", "--ontology", basic_path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 39
    assert lines[0] == "numNominals,0.0"


def test_features_csv(basic_path, tmp_path):
    out = str(tmp_path / "f.csv")
    assert main(["features", "--ontology", basic_path, "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("basic,")  # id from the file name


# ------------------------------------------------------------- gen-corpus


def test_gen_corpus_writes_files(corpus_dir):
    names = sorted(os.listdir(corpus_dir))
    assert names == [f"ont{i:04d}.krss" for i in range(10)]


def test_gen_corpus_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text('{"count": 4, "mystery": 1}')
    assert main(["gen-corpus", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "mystery" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["gen-corpus", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text('{"classes": [2, 5]}')
    assert main(["gen-corpus", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


# Wrong types used to end in a TypeError traceback, and out-of-range
# values in a silently odd corpus (a negative count wrote none).
@pytest.mark.parametrize("command", ["gen-corpus", "pipeline"])
@pytest.mark.parametrize(
    "spec",
    [
        {"count": "x"},
        {"count": 2.5},
        {"count": -3},
        {"seed": 1.5},
        {"seed": True},
        {"classes": [3, "9"]},
        {"classes": [3, 5, 9]},
        {"roles": 2},
        {"axioms": [-1, 4]},
        {"disjunction_density": "a"},
        {"disjunction_density": -0.1},
        {"sensitive_fraction": None},
        {"hot_fraction": 2},
        {"hot_fraction": float("nan")},
        {"all_timeout_count": -1},
        {"warm_widths": [10, 0]},
        {"warm_widths": 10},
        {"hot_width": 0},
    ],
)
def test_bad_spec_exits_2_with_one_error_line(tmp_path, capsys, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    flag = "--out" if command == "gen-corpus" else "--out-dir"
    assert main([command, "--spec", str(path), flag, str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    assert not out.exists()


def _size(name: str, value: int):
    """A spec value for size field `name` whose largest value is `value`."""
    if name in ("classes", "roles", "axioms", "quantifier_depth"):
        return [3, value]
    return [10, value] if name == "warm_widths" else value


@pytest.mark.parametrize("name", sorted(SIZE_LIMITS))
def test_a_size_past_its_limit_exits_2_before_generating(tmp_path, capsys, monkeypatch, name):
    CorpusSpec(**{name: _size(name, SIZE_LIMITS[name])})  # the limit itself is a valid size
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({name: _size(name, SIZE_LIMITS[name] + 1)}))
    out = tmp_path / "out"
    assert main(["gen-corpus", "--spec", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: corpus spec {name} must be at most {SIZE_LIMITS[name]}, got {SIZE_LIMITS[name] + 1}\n"
    )
    assert not out.exists()


# ------------------------------------------------------------------ bench


def test_bench_subset_of_configs(corpus_dir, tmp_path, capsys):
    out = str(tmp_path / "runtimes.csv")
    rc = main(
        ["bench", "--corpus", corpus_dir, "--budget", "2000",
         "--configs", "1,2,default", "--out", out]
    )
    assert rc == 0
    rows = read_runtime_csv(out)
    assert {r.config for r in rows} == {"1", "2", "default"}
    assert len(rows) == 30  # 10 ontologies x 3 configurations
    assert "wrote 30 rows" in capsys.readouterr().out


def test_bench_reports_parse_failures(corpus_dir, tmp_path, capsys):
    broken_dir = tmp_path / "broken"
    broken_dir.mkdir()
    (broken_dir / "good.krss").write_text(BASIC_TEXT)
    (broken_dir / "zzz.krss").write_text("(implies A")
    out = str(tmp_path / "r.csv")
    rc = main(["bench", "--corpus", str(broken_dir), "--configs", "1", "--out", out])
    assert rc == 0
    captured = capsys.readouterr()
    assert "parse failure: zzz" in captured.err
    assert {r.ontology_id for r in read_runtime_csv(out)} == {"good"}


def test_bench_counts_repeated_files_once(tmp_path, capsys):
    repeats = tmp_path / "repeats"
    repeats.mkdir()
    for name, text in (("a", BASIC_TEXT), ("b", BASIC_TEXT), ("c", "(implies A")):
        (repeats / f"{name}.krss").write_text(text)
    out = str(tmp_path / "r.csv")
    assert main(["bench", "--corpus", str(repeats), "--configs", "1", "--out", out]) == 0
    captured = capsys.readouterr()
    assert f"wrote 2 rows to {out} (3 ontologies, 2 distinct texts)" in captured.out
    assert "parse failure: c" in captured.err
    assert [(r.ontology_id, r.config) for r in read_runtime_csv(out)] == [("a", "1"), ("b", "1")]


def test_bench_error_paths(corpus_dir, tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    assert main(["bench", "--corpus", corpus_dir, "--configs", "1,99", "--out", out]) == 2
    assert "99" in capsys.readouterr().err
    assert main(["bench", "--corpus", corpus_dir, "--configs", "1,2,1", "--out", out]) == 2
    assert capsys.readouterr().err == "error: repeated configs in '1,2,1'\n"
    assert main(["bench", "--corpus", corpus_dir, "--configs", " , ", "--out", out]) == 2
    assert capsys.readouterr().err == "error: no configs in ' , '\n"
    assert not os.path.exists(out)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--corpus", str(empty), "--out", out]) == 2
    assert main(["bench", "--corpus", str(tmp_path / "missing"), "--out", out]) == 2
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "only.krss").write_text("(implies A")
    capsys.readouterr()
    assert main(["bench", "--corpus", str(broken), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "parse failure: only" in err
    assert err.splitlines()[-1].startswith("error:")


# The tableau honours neither RBox axioms nor ABox assertions, so `sat`,
# `sweep` and `bench` refuse them instead of answering as if they were not
# there: with the transitive role A is unsatisfiable (it used to print
# `satisfiable 5 0`), and bob makes the ontology inconsistent (it used to
# print `satisfiable 0 0`).  `features` still reads them.
UNSUPPORTED = [
    (
        "(transitive R)\n(implies A (some R B))\n(implies B (some R C))\n"
        "(implies A (all R (not C)))\n",
        "A",
        "RBox axiom (transitive R)",
    ),
    ("(implies X Y)\n(instance bob (and X (not Y)))\n", "X", "ABox assertion (instance bob ...)"),
    ("(implies A B)\n(implies-role R S)\n", "A", "RBox axiom (implies-role R S)"),
    ("(implies A B)\n(related bob alice R)\n", "A", "ABox assertion (related bob alice R)"),
]


@pytest.mark.parametrize("text, name, axiom", UNSUPPORTED)
def test_reasoning_commands_reject_rbox_and_abox_axioms(tmp_path, capsys, text, name, axiom):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "extra.krss"
    path.write_text(text)
    expected = f"error: {axiom} is not supported by the reasoner\n"
    for argv in (["sat"], ["sat", "--class", name], ["sweep"]):
        assert main([*argv, "--ontology", str(path)]) == 2
        assert capsys.readouterr().err == expected
    assert main(["features", "--ontology", str(path)]) == 0
    (corpus / "good.krss").write_text(BASIC_TEXT)
    out = str(tmp_path / "r.csv")
    assert main(["bench", "--corpus", str(corpus), "--configs", "1", "--out", out]) == 0
    assert capsys.readouterr().err == f"parse failure: extra: {expected[len('error: '):]}"
    assert {r.ontology_id for r in read_runtime_csv(out)} == {"good"}


TBOX_HEADS = ("implies A", "implies A2", "equivalent E")
QUANTIFIED = ("(some R ", "(not ", "(and C ", "(all S ", "(or D ")
QUANTIFIER_FREE = ("(not ", "(and C ", "(not ", "(or D ")
DEEP = 100_000  # levels in one axiom: a hundred times the default recursion limit


def _nested_text(depth, heads=TBOX_HEADS + ("instance a",), ops=QUANTIFIED):
    """Axioms whose parentheses nest exactly `depth` levels deep, all over
    one concept, so encoding hash-conses equal deep concepts too."""
    inner = "".join(ops[i % len(ops)] for i in range(depth - 1)) + "B" + ")" * (depth - 1)
    return "".join(f"({head} {inner})\n" for head in heads)


def test_deep_quantified_nesting_needs_no_more_recursion(tmp_path, capsys):
    # a quantified chain still costs quadratic time in subset blocking, so
    # the commands that search run it at 2,000 levels
    depth = 2_000
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "deep.krss"
    # the reasoner refuses ABox assertions; `features` reads them
    path.write_text(_nested_text(depth, TBOX_HEADS))
    with_abox = tmp_path / "deep-abox.krss"
    with_abox.write_text(_nested_text(depth))
    out = str(tmp_path / "r.csv")
    with _default_recursion_limit():
        assert main(["sat", "--ontology", str(path), "--class", "A"]) == 0
        assert main(["sweep", "--ontology", str(path)]) == 0
        assert main(["features", "--ontology", str(with_abox)]) == 0
        assert main(["bench", "--corpus", str(corpus), "--configs", "1", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert {r.ontology_id for r in read_runtime_csv(out)} == {"deep"}


def test_deepest_nesting_needs_no_recursion(tmp_path, capsys):
    text = _nested_text(DEEP, ("implies A",))
    path = tmp_path / "deep.krss"
    path.write_text(_nested_text(DEEP, ("implies A",), QUANTIFIER_FREE))
    with _default_recursion_limit():
        onto = parse_ontology(text)
        features = extract_features(onto, encode_dag(onto))
        deep, again = onto.tbox[0].rhs, parse_ontology(text).tbox[0].rhs
        assert deep is not again and deep != again  # by identity
        assert_same(deep, again)
        # the one leaf is the last node either walk reaches
        last = sum(1 for _ in walk(deep)) - 1
        other = parse_ontology(text.replace("B)", "E)", 1)).tbox[0].rhs
        assert first_difference(deep, other) == f"concept node {last}: ('Atomic', 'B', 0) against ('Atomic', 'E', 0)"
        assert main(["sat", "--ontology", str(path), "--class", "A"]) == 0
        assert main(["sweep", "--ontology", str(path)]) == 0
    # `some` and `all` open 40,000 of the 99,999 levels below the axiom's own
    assert features["maxConceptDepth"] == 40_000
    assert capsys.readouterr().err == ""


# ------------------------------------------------------- filter and split


def test_filter_cli(tmp_path):
    rows = []
    for c in CONFIG_NUMBERS:
        rows.append(RuntimeRow("ok", c, 10.0 + int(c), "finished"))
        rows.append(RuntimeRow("dead", c, 500.0, "timeout"))
    src = str(tmp_path / "r.csv")
    write_runtime_csv(rows, src)
    out, log = str(tmp_path / "kept.csv"), str(tmp_path / "log.csv")
    assert main(["filter", "--runtimes", src, "--out", out, "--log", log]) == 0
    assert {r.ontology_id for r in read_runtime_csv(out)} == {"ok"}
    assert open(log).read() == "id,reason\ndead,all-timeout\n"


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("filter", "", "no runtime rows"),
        ("filter", "a,1,5.0\n", "r.csv, line 2: expected 4 fields, got 3"),
        ("report", "a,5,nan,finished\n", "r.csv, line 2: cost nan is not"),
        ("report", "a,5,-1.0,finished\n", "r.csv, line 2: cost -1.0 is not"),
    ],
)
def test_bad_runtime_csv_exits_2(tmp_path, capsys, command, body, message):
    src = tmp_path / "r.csv"
    src.write_text("id,config,cost,outcome\n" + body)
    if command == "filter":
        out, log = str(tmp_path / "kept.csv"), str(tmp_path / "log.csv")
        argv = ["filter", "--runtimes", str(src), "--out", out, "--log", log]
    else:
        argv = ["report", "--learned", str(src), "--standard", str(src)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# A field over the csv module's 131,072-character limit is a csv.Error, which
# is no ValueError; it used to end in a traceback.
@pytest.mark.parametrize("command", ["filter", "split", "report", "train", "predict"])
def test_oversized_csv_field_exits_2(trained, tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    if command in ("train", "predict"):
        header = ",".join(["id", *FEATURE_NAMES])
        bad.write_text(f"{header}\n{'x' * 200_000}{',0.0' * N_FEATURES}\n")
    else:
        bad.write_text(f"id,config,cost,outcome\n{'x' * 200_000},1,1.0,finished\n")
    out = str(tmp_path / "out.csv")
    argv = {
        "filter": ["--runtimes", str(bad), "--out", out, "--log", str(tmp_path / "log.csv")],
        "split": ["--runtimes", str(bad), "--train-out", out, "--test-out", out],
        "report": ["--learned", str(bad), "--standard", str(bad)],
        "train": ["--features", str(bad), "--runtimes", trained["runtimes"], "--out", out],
        "predict": ["--features", str(bad), "--model", trained["model"], "--out", out],
    }[command]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}, line 2: field larger than field limit (131072)"]
    assert not os.path.exists(out)


# JSON nested past the recursion limit used to end in a RecursionError
# traceback.
@pytest.mark.parametrize("command", ["predict", "gen-corpus", "pipeline"])
def test_deeply_nested_json_exits_2(trained, tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    out = tmp_path / "out"
    argv = {
        "predict": ["--features", trained["features"], "--model", str(deep)],
        "gen-corpus": ["--spec", str(deep), "--out", str(out)],
        "pipeline": ["--spec", str(deep), "--quick", "--out-dir", str(out)],
    }[command]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "maximum recursion depth exceeded" in err[0]
    assert not out.exists()


# An id holding a comma and a quote, as a corpus file named `on,"t1.krss`
# gives, must come back whole from every CSV the CLI writes.
ODD_ID = 'on,"t1'


def test_odd_ids_round_trip_through_filter_split_and_predict(trained, tmp_path):
    rows = [RuntimeRow(ODD_ID, c, 500.0, "timeout") for c in CONFIG_NUMBERS]
    rows += [RuntimeRow(f"o{i}", "1", 1.0, "finished") for i in range(7)]
    runtimes = str(tmp_path / "r.csv")
    write_runtime_csv(rows, runtimes)

    def table(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    log = str(tmp_path / "log.csv")
    argv = ["filter", "--runtimes", runtimes, "--out", str(tmp_path / "kept.csv"), "--log", log]
    assert main(argv) == 0
    assert table(log) == [["id", "reason"], [ODD_ID, "all-timeout"]]

    train, test = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    argv = ["split", "--runtimes", runtimes, "--train-out", train, "--test-out", test]
    assert main(argv) == 0
    ids = table(train)[1:] + table(test)[1:]
    assert sorted(ids) == sorted([[ODD_ID]] + [[f"o{i}"] for i in range(7)])

    features = read_feature_csv(trained["features"])
    features[0] = (ODD_ID, features[0][1])
    odd_features = str(tmp_path / "f.csv")
    write_feature_csv(features, odd_features)
    selections = str(tmp_path / "sel.csv")
    argv = ["predict", "--features", odd_features, "--model", trained["model"]]
    assert main(argv + ["--out", selections]) == 0
    assert [row[0] for row in table(selections)] == ["id"] + [oid for oid, _ in features]


def test_filter_has_no_closeness_option():
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--runtimes", "r.csv", "--out", "o.csv", "--log", "l.csv",
              "--closeness", "0.1"])
    assert exc.value.code == 2


def test_split_cli(tmp_path):
    rows = [RuntimeRow(f"o{i}", "1", 1.0, "finished") for i in range(8)]
    src = str(tmp_path / "r.csv")
    write_runtime_csv(rows, src)
    train_out, test_out = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    rc = main(
        ["split", "--runtimes", src, "--test-fraction", "0.25", "--seed", "7",
         "--train-out", train_out, "--test-out", test_out]
    )
    assert rc == 0
    train = open(train_out).read().strip().split("\n")
    test = open(test_out).read().strip().split("\n")
    assert train[0] == "id" and test[0] == "id"
    assert len(train) - 1 == 6 and len(test) - 1 == 2
    assert sorted(train[1:] + test[1:]) == [f"o{i}" for i in range(8)]


def test_split_refuses_a_fraction_that_leaves_no_training_ids(tmp_path, capsys):
    src = str(tmp_path / "r.csv")
    write_runtime_csv([RuntimeRow(f"o{i}", "1", 1.0, "finished") for i in range(6)], src)
    train_out, test_out = tmp_path / "train.csv", tmp_path / "test.csv"
    rc = main(
        ["split", "--runtimes", src, "--test-fraction", "0.99",
         "--train-out", str(train_out), "--test-out", str(test_out)]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: test fraction 0.99 of 6 ids leaves none for training\n"
    assert not train_out.exists() and not test_out.exists()


def test_split_too_few(tmp_path, capsys):
    src = str(tmp_path / "r.csv")
    write_runtime_csv([RuntimeRow("a", "1", 1.0, "finished")], src)
    rc = main(
        ["split", "--runtimes", src, "--train-out", str(tmp_path / "a.csv"),
         "--test-out", str(tmp_path / "b.csv")]
    )
    assert rc == 2
    assert "at least 4" in capsys.readouterr().err


# -------------------------------------------------------- train / predict


def test_train_prints_threshold_and_accuracy(trained, capsys, tmp_path):
    # retrain to capture the output of a known-good invocation
    model = str(tmp_path / "m.json")
    rc = main(
        ["train", "--features", trained["features"], "--runtimes", trained["runtimes"],
         "--folds", "2", "--quick", "--out", model]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("threshold 10.0")
    assert "accuracy 1:" in out
    assert os.path.exists(model)


def test_train_rejects_empty_features(trained, tmp_path, capsys):
    empty = str(tmp_path / "f.csv")
    write_feature_csv([], empty)
    rc = main(
        ["train", "--features", empty, "--runtimes", trained["runtimes"],
         "--out", str(tmp_path / "m.json")]
    )
    assert rc == 2
    assert "no rows" in capsys.readouterr().err


@pytest.mark.parametrize("folds", ["0", "1"])
def test_train_rejects_fewer_than_two_folds(trained, tmp_path, capsys, folds):
    rc = main(
        ["train", "--features", trained["features"], "--runtimes", trained["runtimes"],
         "--folds", folds, "--quick", "--out", str(tmp_path / "m.json")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: need at least 2 folds, got {folds}\n"


@pytest.mark.parametrize("folds", ["0", "1"])
def test_train_checks_folds_when_every_labelling_is_single_class(
    tmp_path, capsys, monkeypatch, pools, folds
):
    # odd configurations finish every ontology at the threshold, even ones
    # time out on all: two single-class labellings, so no grid search runs
    feature_rows = [(f"s{i}", FeatureVector((float(i),) * N_FEATURES)) for i in range(6)]
    runtime_rows = [
        RuntimeRow(oid, c, 10.0, "finished" if int(c) % 2 else "timeout")
        for oid, _ in feature_rows
        for c in CONFIG_NUMBERS
    ]
    features, runtimes, model = (tmp_path / n for n in ("f.csv", "r.csv", "m.json"))
    write_feature_csv(feature_rows, str(features))
    write_runtime_csv(runtime_rows, str(runtimes))
    set_workers(monkeypatch, 2)
    rc = main(
        ["train", "--features", str(features), "--runtimes", str(runtimes),
         "--folds", folds, "--quick", "--out", str(model)]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: need at least 2 folds, got {folds}\n"
    assert not model.exists()
    assert pools == []
    assert_no_children()


def test_train_with_a_huge_fold_count_equals_one_fold_per_row(trained, tmp_path):
    models = []
    for folds in ("1000000000000000000", "8"):  # the fixture has 8 rows
        models.append(tmp_path / f"m{len(models)}.json")
        rc = main(
            ["train", "--features", trained["features"], "--runtimes", trained["runtimes"],
             "--folds", folds, "--quick", "--out", str(models[-1])]
        )
        assert rc == 0
    assert models[0].read_bytes() == models[1].read_bytes()


# A repeated feature row would be trained on twice; a repeated runtime row
# would be counted twice by the threshold while labelling kept the last.
@pytest.mark.parametrize(
    "table, message",
    [("features", "duplicate id 't1'"), ("runtimes", "duplicate row for id 't0' under config '1'")],
)
def test_train_rejects_duplicate_rows(trained, tmp_path, capsys, table, message):
    path = tmp_path / f"{table}.csv"
    with open(trained[table]) as fh:
        lines = fh.read().splitlines()
    if table == "features":
        lines.append(lines[2])
    else:
        lines.append(",".join(lines[1].split(",")[:2] + ["1.0", "finished"]))
    path.write_text("\n".join(lines) + "\n")
    tables = {**trained, table: str(path)}
    rc = main(
        ["train", "--features", tables["features"], "--runtimes", tables["runtimes"],
         "--folds", "2", "--quick", "--out", str(tmp_path / "m.json")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}, line {len(lines)}: {message}\n"


def test_train_rejects_features_too_large_to_standardize(trained, tmp_path, capsys):
    # +-1e300 in the one informative column overflow its standard deviation;
    # the bundle would hold NaN and Infinity that `predict` refuses
    features = tmp_path / "f.csv"
    with open(trained["features"]) as fh:
        lines = fh.read().splitlines()
    for row, value in ((1, "1e300"), (2, "-1e300")):
        cells = lines[row].split(",")
        cells[1] = value
        lines[row] = ",".join(cells)
    features.write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.json"
    rc = main(
        ["train", "--features", str(features), "--runtimes", trained["runtimes"],
         "--folds", "2", "--quick", "--out", str(model)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: a feature column's mean or standard deviation is not finite\n"
    assert not model.exists()


def _no_corpus(*_args, **_kwargs):
    raise AssertionError("the corpus was generated before the arguments were checked")


def test_pipeline_rejects_fewer_than_two_folds(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    argv = ["pipeline", "--spec", str(spec_path), "--folds", "1", "--quick",
            "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: need at least 2 folds, got 1\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_pipeline_rejects_a_budget_below_1_before_generating(
    tmp_path, capsys, monkeypatch, pools, budget
):
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    set_workers(monkeypatch, 2)
    out = tmp_path / "run"
    argv = ["pipeline", "--budget", budget, "--quick", "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: budget must be >= 1\n"
    assert pools == []
    assert not out.exists()
    assert_no_children()


@pytest.mark.parametrize("command", ["split", "train", "pipeline"])
def test_negative_seed_is_rejected_before_any_work(
    trained, tmp_path, capsys, monkeypatch, pools, command
):
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    set_workers(monkeypatch, 2)
    out = tmp_path / "out"
    args = {
        "split": ["--runtimes", trained["runtimes"], "--train-out", str(out), "--test-out", str(out)],
        "train": ["--features", trained["features"], "--runtimes", trained["runtimes"],
                  "--quick", "--out", str(out)],
        "pipeline": ["--quick", "--out-dir", str(out)],
    }[command]
    assert main([command, "--seed", "-1", *args]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert pools == []
    assert not out.exists()
    assert_no_children()


def test_pipeline_refuses_a_test_fraction_that_leaves_no_training_ids(
    tmp_path, capsys, monkeypatch
):
    # refused against the spec's count, before the corpus is generated
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "run"
    argv = ["pipeline", "--spec", str(spec_path), "--test-fraction", "0.99", "--quick",
            "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: test fraction 0.99 of 10 ids leaves none for training\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, fraction, message",
    [
        ({"count": 20, "seed": 3}, "0.97", "test fraction 0.97 of 20 ids leaves none for training"),
        ({"count": 3}, "0.25", "need at least 4 examples to split, got 3"),
    ],
    ids=["fraction", "count"],
)
def test_pipeline_refuses_a_spec_too_small_to_split_before_generating(
    tmp_path, capsys, monkeypatch, spec, fraction, message
):
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    argv = ["pipeline", "--spec", str(spec_path), "--test-fraction", fraction, "--quick",
            "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_pipeline_generates_a_spec_whose_split_can_leave_training_ids(
    tmp_path, monkeypatch
):
    # 18 of 20 ids go to the test side: the run goes on to generate
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"count": 20, "seed": 3}))
    argv = ["pipeline", "--spec", str(spec_path), "--test-fraction", "0.9", "--quick",
            "--out-dir", str(tmp_path / "run")]
    with pytest.raises(AssertionError, match="generated"):
        main(argv)


def test_pipeline_refuses_an_out_dir_that_is_a_file_before_generating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    out = tmp_path / "run"
    out.write_text("")
    assert main(["pipeline", "--quick", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0], err


def test_gen_corpus_refuses_an_out_that_is_a_file_before_generating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    out = tmp_path / "corpus"
    out.write_text("")
    assert main(["gen-corpus", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0], err


@pytest.mark.parametrize("fraction", ["1.5", "0", "nan"])
def test_pipeline_rejects_bad_test_fraction(tmp_path, capsys, monkeypatch, fraction):
    monkeypatch.setattr(cli, "generate_corpus", _no_corpus)
    argv = ["pipeline", "--test-fraction", fraction, "--quick", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: fraction must be strictly between 0 and 1\n"


def test_predict_lists_choices(trained, capsys):
    rc = main(["predict", "--features", trained["features"], "--model", trained["model"]])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "id,config,label"
    assert len(lines) == 9
    for line in lines[1:]:
        oid, config, label = line.split(",")
        assert config in CONFIG_NUMBERS
        assert len(label) == 3


def test_predict_rejects_corrupt_model(trained, tmp_path, capsys):
    bad = str(tmp_path / "model.json")
    with open(bad, "w") as fh:
        fh.write("{}")
    assert main(["predict", "--features", trained["features"], "--model", bad]) == 2
    assert "version" in capsys.readouterr().err


def test_predict_rejects_bad_inputs(trained, tmp_path, capsys):
    features = tmp_path / "f.csv"
    with open(trained["features"]) as fh:
        features.write_text(fh.read() + "t9,1.0\n")
    assert main(["predict", "--features", str(features), "--model", trained["model"]]) == 2
    assert "f.csv, line 10: expected 40 fields, got 2" in capsys.readouterr().err
    with open(trained["model"]) as fh:
        doc = json.load(fh)
    doc["models"]["1"]["pipeline"]["selected"] = [99]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["predict", "--features", trained["features"], "--model", str(model)]) == 2
    assert capsys.readouterr().err.startswith("error: model 1: selected feature index")


def _svm_edit(**fields):
    return lambda p: p["svm"].update(fields)


def _nan_alpha(p):
    p["svm"]["alpha"][0] = float("nan")


def _nan_scaler(p):
    p["scaler_mean"][0] = float("nan")


def _negated_alpha(p):
    p["svm"]["alpha"] = [-a for a in p["svm"]["alpha"]]


def _alpha_over_c(p):
    p["svm"]["alpha"][0] = p["svm"]["c"] * 1.001


def _bad_constant(p):
    p["svm"], p["constant"] = None, 0.5


def _scaled_labels(p):
    p["svm"]["y"] = [5.0 * v for v in p["svm"]["y"]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_svm_edit(kernel="rbf", gamma="x"), "rbf gamma"),
        (_svm_edit(kernel="rbf", gamma=0.0), "rbf gamma"),
        (_svm_edit(kernel="rbf", gamma=float("inf")), "rbf gamma"),
        (_svm_edit(bias="x"), "c and bias"),
        (_svm_edit(bias=float("nan")), "c and bias"),
        (_svm_edit(c=float("inf")), "c and bias"),
        (_nan_alpha, "non-finite"),
        (_nan_scaler, "non-finite"),
        (_negated_alpha, "multipliers lie outside [0, c]"),
        (_alpha_over_c, "multipliers lie outside [0, c]"),
        (_svm_edit(kernel="poly"), "unknown kernel 'poly'"),
        (_bad_constant, "constant"),
        (_scaled_labels, "labels"),
    ],
    ids=[
        "gamma-text", "gamma-zero", "gamma-inf", "bias-text", "bias-nan", "c-inf",
        "alpha-nan", "scaler-nan", "alpha-negated", "alpha-over-c", "unknown-kernel",
        "constant", "labels",
    ],
)
def test_predict_rejects_bad_svm_fields(trained, tmp_path, capsys, edit, message):
    with open(trained["model"]) as fh:
        doc = json.load(fh)
    edit(doc["models"]["1"]["pipeline"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["predict", "--features", trained["features"], "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model 1: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_predict_rejects_non_finite_features(trained, tmp_path, capsys, value):
    features = tmp_path / "f.csv"
    with open(trained["features"]) as fh:
        lines = fh.read().splitlines()
    cells = lines[3].split(",")
    cells[5] = value
    lines[3] = ",".join(cells)
    features.write_text("\n".join(lines) + "\n")
    assert main(["predict", "--features", str(features), "--model", trained["model"]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {features}, line 4: feature values must be finite\n"


# ----------------------------------------------------------------- report


def _write_cost_csv(path, rows):
    write_runtime_csv(rows, path)


def test_report_text(tmp_path, capsys):
    learned = str(tmp_path / "learned.csv")
    standard = str(tmp_path / "standard.csv")
    _write_cost_csv(learned, [RuntimeRow("a", "5", 100.0, "finished")])
    _write_cost_csv(standard, [RuntimeRow("a", "default", 1000.0, "finished")])
    assert main(["report", "--learned", learned, "--standard", standard]) == 0
    out = capsys.readouterr().out
    assert "geometric mean ratio  10.00" in out
    assert "ontologies            1" in out


def test_report_rejects_duplicate_and_mismatched_ids(tmp_path, capsys):
    learned = str(tmp_path / "learned.csv")
    standard = str(tmp_path / "standard.csv")
    _write_cost_csv(
        learned,
        [RuntimeRow("a", "5", 1.0, "finished"), RuntimeRow("a", "6", 2.0, "finished")],
    )
    _write_cost_csv(standard, [RuntimeRow("a", "default", 1.0, "finished")])
    assert main(["report", "--learned", learned, "--standard", standard]) == 2
    assert "duplicate" in capsys.readouterr().err
    _write_cost_csv(learned, [RuntimeRow("b", "5", 1.0, "finished")])
    assert main(["report", "--learned", learned, "--standard", standard]) == 2


# --------------------------------------------------------------- pipeline

ARTIFACTS = (
    "runtimes.csv",
    "features.csv",
    "exclusions.csv",
    "train.csv",
    "test.csv",
    "model.json",
    "selections.csv",
    "report.txt",
)


def test_pipeline_writes_all_artifacts(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    argv = ["pipeline", "--spec", str(spec_path), "--budget", "12000",
            "--folds", "3", "--quick", "--out-dir", out1]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "eligible" in stdout and "geomean speedup" in stdout
    for name in ARTIFACTS:
        assert os.path.exists(os.path.join(out1, name)), name
    assert "ont0000,all-timeout" in open(os.path.join(out1, "exclusions.csv")).read()
    # a rerun of the same spec is byte-identical artifact for artifact
    argv[-1] = out2
    assert main(argv) == 0
    capsys.readouterr()
    for name in ARTIFACTS:
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name
