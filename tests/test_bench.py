"""Tests for corpus generation, the benchmark harness, eligibility
filtering, the train/test split, and speedup reporting."""

import functools
import gc
import hashlib
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ordsel import tableau
from ordsel.bench import corpus as corpus_mod
from ordsel.bench import harness
from ordsel.bench.corpus import (
    FAMILY_FAST,
    CorpusSpec,
    generate_corpus,
)
from ordsel.bench.harness import (
    DEFAULT_LABEL,
    MismatchedIds,
    check_split,
    filter_eligible,
    run_benchmark,
    run_pipeline,
    speedup_report,
    split_train_test,
)
from ordsel.cli import main
from ordsel.dag import encode_dag, nondeterministic_vertices
from ordsel.heuristics import (
    CONFIG_NUMBERS,
    DEFAULT_MIN_GCIS,
    apply_ordering,
    default_config,
    parse_config,
)
from ordsel.krss import parse_ontology
from ordsel.learn.pipeline import GridPoint
from ordsel.learn.svm import TooFewExamples
from ordsel.runtimes import FINISHED, INCONSISTENT, TIMEOUT, RuntimeRow, write_runtime_csv
from ordsel.tableau import satisfiability_sweep

from chronological import reference_rows
from conftest import BASIC_TEXT, assert_no_children, random_ontology_text, set_workers

# A small, fast corpus: 5 ordering-sensitive instances (one hopeless
# all-timeout trap, the rest warm) and 5 plain ones.
SMALL_SPEC = CorpusSpec(count=10, seed=3, all_timeout_count=1, hot_fraction=0.0)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(SMALL_SPEC)


# ----------------------------------------------------------------- corpus


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(classes=(2, 5))  # too few classes
    with pytest.raises(ValueError):
        CorpusSpec(axioms=(9, 4))  # empty range
    with pytest.raises(ValueError):
        CorpusSpec(sensitive_fraction=1.5)
    with pytest.raises(ValueError):
        CorpusSpec(warm_widths=())


def test_generate_corpus_deterministic(small_corpus):
    again = generate_corpus(SMALL_SPEC)
    assert again == small_corpus
    assert [i.text for i in again] == [i.text for i in small_corpus]


def test_generate_corpus_empty():
    assert generate_corpus(CorpusSpec(count=0)) == []


def test_corpus_instances_valid(small_corpus):
    assert len(small_corpus) == 10
    assert [i.ontology_id for i in small_corpus] == [f"ont{i:04d}" for i in range(10)]
    # five trap instances lead the corpus, the one hopeless instance first
    assert [i.family is not None for i in small_corpus] == [True] * 5 + [False] * 5
    assert small_corpus[0].family == 5
    for inst in small_corpus:
        onto = parse_ontology(inst.text)  # must parse
        assert nondeterministic_vertices(encode_dag(onto)), inst.ontology_id


def test_each_config_fast_and_slow_somewhere():
    # Over the families that actually occur in generated corpora, every
    # configuration must be fast on some family and slow on another, so no
    # single ordering can dominate the benchmark.
    occurring = [f for f in FAMILY_FAST if FAMILY_FAST[f]]
    for c in range(1, 13):
        assert any(c in FAMILY_FAST[f] for f in occurring), c
        assert any(c not in FAMILY_FAST[f] for f in occurring), c


def _sweep_steps(text, config, budget):
    odag = apply_ordering(encode_dag(parse_ontology(text)), parse_config(config))
    return satisfiability_sweep(odag, budget).total_steps


def test_trap_family_orderings_gap(small_corpus):
    # instance 1 is a warm trap whose safe branch wins on descending orders
    trap = small_corpus[1]
    assert trap.family == 1
    fast = _sweep_steps(trap.text, "2", 12000)
    slow = _sweep_steps(trap.text, "1", 12000)
    assert slow >= 10 * fast
    assert fast < 200


# ---------------------------------------------------------------- harness


def test_run_benchmark_rows_and_defaults():
    corpus = [("a", BASIC_TEXT), ("bad", "((("), ("b", BASIC_TEXT)]
    res = run_benchmark(corpus, configs=("1", "2", DEFAULT_LABEL))
    assert [oid for oid, _ in res.parse_failures] == ["bad"]
    assert set(res.features) == {"a", "b"}
    defaults = {oid: default_config(fv).number for oid, fv in res.features.items()}
    assert defaults == {"a": 1, "b": 1}
    by_key = {(r.ontology_id, r.config): r for r in res.rows}
    assert set(by_key) == {(o, c) for o in ("a", "b") for c in ("1", "2", DEFAULT_LABEL)}
    # the default pseudo-configuration replays the default label's sweep
    for oid in ("a", "b"):
        assert by_key[(oid, DEFAULT_LABEL)].cost == by_key[(oid, "1")].cost
        assert by_key[(oid, DEFAULT_LABEL)].outcome == by_key[(oid, "1")].outcome
        assert by_key[(oid, "1")].outcome == FINISHED


def test_run_benchmark_rows_match_direct_sweeps():
    # Reused sweeps must give the rows a fresh sweep per config would.
    instances = generate_corpus(CorpusSpec(count=8, seed=7))
    corpus = [(inst.ontology_id, inst.text) for inst in instances]
    budget = 3000
    res = run_benchmark(corpus, budget=budget)
    shared = 0
    expected = []
    for oid, text in corpus:
        d = encode_dag(parse_ontology(text))
        seen = set()
        direct = {}
        for label in CONFIG_NUMBERS:
            odag = apply_ordering(d, parse_config(label))
            key = tuple(odag.permutations.values())
            shared += key in seen
            seen.add(key)
            sweep = satisfiability_sweep(odag, budget)
            if sweep.timed_out:
                direct[label] = (float(budget), TIMEOUT)
            elif not sweep.consistent:
                direct[label] = (float(sweep.total_steps), INCONSISTENT)
            else:
                direct[label] = (float(sweep.total_steps), FINISHED)
            expected.append(RuntimeRow(oid, label, *direct[label]))
        default_label = str(default_config(res.features[oid]).number)
        expected.append(RuntimeRow(oid, DEFAULT_LABEL, *direct[default_label]))
    assert shared > 0  # the corpus exercises reuse
    assert res.rows == expected


# The harness shares rule rows and results between the orderings of an
# ontology; its rows must be those of one unshared chronological sweep per
# (ontology, ordering).
BUDGETS = (37, 400, 12000)


@pytest.fixture(scope="module", params=[CorpusSpec(count=40, seed=7), CorpusSpec(count=40, seed=3)])
def corpus40(request):
    return [(inst.ontology_id, inst.text) for inst in generate_corpus(request.param)]


@pytest.mark.parametrize("budget", BUDGETS)
def test_run_benchmark_rows_match_unshared_sweeps(corpus40, budget):
    assert run_benchmark(corpus40, budget=budget).rows == reference_rows(corpus40, budget)


# Axioms the corpus and `random_ontology_text` do not write: general
# inclusions with *top* and *bottom*, a definition, and one that makes the
# TBox inconsistent.
_EXTRA_AXIOMS = (
    "(implies *top* (or C0 (not C1) (some R0 C1)))",
    "(implies (and C0 (some R0 C1)) (or C1 *bottom*))",
    "(equivalent C1 (or C0 (all R0 *bottom*)))",
    "(implies C0 (or *bottom* (and C1 (not C0))))",
    "(implies *top* (and C0 (not C0)))",
)


@settings(
    derandomize=True, database=None, deadline=None, max_examples=15, phases=(Phase.generate,)
)
@given(st.integers(0, 2**32 - 1))
def test_run_benchmark_rows_match_unshared_sweeps_on_random_tboxes(seed):
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(4):
        extra = [ax for ax in _EXTRA_AXIOMS[:-1] if rng.random() < 0.5]
        if rng.random() < 0.1:
            extra.append(_EXTRA_AXIOMS[-1])
        corpus.append((f"r{i}", random_ontology_text(rng) + "\n".join(extra) + "\n"))
    for budget in BUDGETS:
        assert run_benchmark(corpus, budget=budget).rows == reference_rows(corpus, budget)


@pytest.fixture(scope="module")
def corpus8():
    return [(inst.ontology_id, inst.text) for inst in generate_corpus(CorpusSpec(count=8, seed=7))]


def test_per_dag_state_dies_with_its_dags(corpus8, monkeypatch, inline):
    dags = []

    def encode(onto):
        d = encode_dag(onto)
        dags.append(weakref.ref(d))
        return d

    monkeypatch.setattr(harness, "encode_dag", encode)
    gc.collect()
    before = (len(tableau._RULES), len(tableau._ORDERINGS))
    run_benchmark(corpus8)
    gc.collect()
    assert len(dags) == len({text for _, text in corpus8}) < len(corpus8)
    assert all(ref() is None for ref in dags)
    assert (len(tableau._RULES), len(tableau._ORDERINGS)) == before


def test_second_benchmark_runs_every_search_again(corpus8, searches, monkeypatch, inline):
    tests = 0
    is_satisfiable = tableau.is_satisfiable

    def counting_test(*args):
        nonlocal tests
        tests += 1
        return is_satisfiable(*args)

    # the sweep calls `is_satisfiable` through the module, as the tracer needs
    monkeypatch.setattr(tableau, "is_satisfiable", counting_test)
    first = run_benchmark(corpus8).rows
    once = (len(searches), tests)
    assert 0 < once[0] < once[1]  # results are reused across orderings
    assert run_benchmark(corpus8).rows == first
    assert (len(searches), tests) == (2 * once[0], 2 * once[1])


def test_default_rows_search_nothing_more(corpus8, searches, inline):
    # The default ordering equals one of the twelve, so each of its tests
    # finds that ordering's variant; one text here makes the default Fdn.
    gcis = "".join(f"(implies (and G{i} H{i}) J{i})\n" for i in range(DEFAULT_MIN_GCIS))
    corpus = corpus8 + [("gci", corpus8[0][1] + gcis)]
    real = run_benchmark(corpus, configs=CONFIG_NUMBERS)
    n = len(searches)
    both = run_benchmark(corpus, configs=CONFIG_NUMBERS + (DEFAULT_LABEL,))
    assert len(searches) == 2 * n
    assert [r for r in both.rows if r.config != DEFAULT_LABEL] == real.rows
    by_key = {(r.ontology_id, r.config): r for r in both.rows}
    picks = {oid: str(default_config(fv).number) for oid, fv in both.features.items()}
    assert set(picks.values()) == {"1", "10"}
    for oid, label in picks.items():
        default, picked = by_key[(oid, DEFAULT_LABEL)], by_key[(oid, label)]
        assert (default.cost, default.outcome) == (picked.cost, picked.outcome)


def test_rows_follow_the_order_of_configs():
    res = run_benchmark([("a", BASIC_TEXT)], configs=(DEFAULT_LABEL, "2", "1"))
    assert [r.config for r in res.rows] == [DEFAULT_LABEL, "2", "1"]


@pytest.fixture(scope="module")
def repeating_corpus(corpus8):
    """`corpus8` (which already repeats one text) with more texts reused
    under new ids, and an unparseable and an RBox text, each repeated."""
    bad, rbox = "(implies A (and B", "(implies A (or B C))\n(transitive R)\n"
    texts = [text for _, text in corpus8]
    extra = [bad, texts[5], rbox, texts[0], bad, texts[5], rbox, texts[2]]
    return corpus8 + [(f"rep{i}", text) for i, text in enumerate(extra)]


def test_repeated_texts_get_the_rows_of_texts_run_alone(repeating_corpus):
    alone = [run_benchmark([entry]) for entry in repeating_corpus]
    got = run_benchmark(repeating_corpus)
    assert got.rows == [row for r in alone for row in r.rows]
    assert got.features == {oid: fv for r in alone for oid, fv in r.features.items()}
    assert got.parse_failures == [f for r in alone for f in r.parse_failures]
    assert [oid for oid, _ in got.parse_failures] == ["rep0", "rep2", "rep4", "rep6"]


def test_each_distinct_text_is_parsed_once(repeating_corpus, monkeypatch, inline):
    parsed = []

    def parse(text):
        parsed.append(text)
        return parse_ontology(text)

    monkeypatch.setattr(harness, "parse_ontology", parse)
    run_benchmark(repeating_corpus)
    assert sorted(parsed) == sorted({text for _, text in repeating_corpus})


def test_each_distinct_sensitive_text_is_validated_once(monkeypatch):
    checked = []
    validate = corpus_mod._validate

    def spy(text, *args, **kwargs):
        checked.append(text)
        return validate(text, *args, **kwargs)

    monkeypatch.setattr(corpus_mod, "_validate", spy)
    instances = generate_corpus(CorpusSpec(count=30, seed=7))
    sensitive = [inst.text for inst in instances if inst.family is not None]
    assert len(set(sensitive)) < len(sensitive)
    assert sorted(t for t in checked if t in set(sensitive)) == sorted(set(sensitive))


def test_runtime_table_is_pinned(tmp_path):
    instances = generate_corpus(CorpusSpec(count=30, seed=7))
    corpus = [(inst.ontology_id, inst.text) for inst in instances]
    path = tmp_path / "runtimes.csv"
    write_runtime_csv(run_benchmark(corpus).rows, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "393318a2385f39a3d027ee786334802be859abc29df95d7d5ea6e9696279bdaf"
    )


def test_run_benchmark_empty_corpus():
    with pytest.raises(ValueError):
        run_benchmark([])


# -------------------------------------------------------- worker processes


@pytest.fixture(scope="module")
def corpus24():
    return [(inst.ontology_id, inst.text) for inst in generate_corpus(CorpusSpec(count=24, seed=11))]


@pytest.mark.parametrize("corpus_name, budget", [("repeating_corpus", 400), ("corpus24", 2000)])
def test_pooled_benchmark_equals_inline(request, monkeypatch, pools, corpus_name, budget):
    corpus = request.getfixturevalue(corpus_name)
    set_workers(monkeypatch, 1)
    inline = run_benchmark(corpus, budget=budget)
    assert pools == []
    set_workers(monkeypatch, 2)
    pooled = run_benchmark(corpus, budget=budget)
    assert len(pools) == 1 and pools[0].fn is harness._benchmark_text
    # one task per distinct text, in corpus order
    assert [task[0] for task in pools[0].tasks] == list(dict.fromkeys(t for _, t in corpus))
    assert pooled == inline
    assert_no_children()


def _eight_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


def test_one_distinct_text_benchmarks_inline(monkeypatch, pools):
    _eight_cpus(monkeypatch)
    res = run_benchmark([("a", BASIC_TEXT), ("b", BASIC_TEXT)])
    assert pools == []
    assert [r.config for r in res.rows if r.ontology_id == "b"] == [
        *CONFIG_NUMBERS, DEFAULT_LABEL
    ]


def test_no_fork_benchmarks_inline(corpus8, monkeypatch, pools):
    want = run_benchmark(corpus8)
    pools.clear()
    _eight_cpus(monkeypatch)
    monkeypatch.delattr(os, "fork")
    assert run_benchmark(corpus8) == want
    assert pools == []


def _unencodable(onto):
    """Stands in for `encode_dag` in forked workers too: every text fails,
    each with a message of its own."""
    raise ValueError(f"cannot encode {onto.source_size} bytes")


def test_worker_exception_reaches_caller(corpus8, monkeypatch, pools):
    monkeypatch.setattr(harness, "encode_dag", _unencodable)
    errors = []
    for count in (1, 2):
        set_workers(monkeypatch, count)
        with pytest.raises(ValueError) as info:
            run_benchmark(corpus8)
        errors.append(info.value)
    inline, pooled = errors
    assert len(pools) == 1
    assert type(pooled) is type(inline)
    # the first failure in corpus order, as inline
    first = parse_ontology(corpus8[0][1]).source_size
    assert str(pooled) == str(inline) == f"cannot encode {first} bytes"
    assert_no_children()


def _corpus_dir(corpus, tmp_path):
    path = tmp_path / "corpus"
    path.mkdir()
    for oid, text in corpus:
        (path / f"{oid}.krss").write_text(text)
    return str(path)


def test_bench_cli_exits_2_when_a_worker_raises(corpus8, monkeypatch, tmp_path, capsys, pools):
    monkeypatch.setattr(harness, "encode_dag", _unencodable)
    out = tmp_path / "runtimes.csv"
    set_workers(monkeypatch, 2)
    assert main(["bench", "--corpus", _corpus_dir(corpus8, tmp_path), "--out", str(out)]) == 2
    assert len(pools) == 1
    first = parse_ontology(corpus8[0][1]).source_size
    assert capsys.readouterr().err == f"error: cannot encode {first} bytes\n"
    assert not out.exists()
    assert_no_children()


def _dies_in_worker(onto, parent):
    """Stands in for `encode_dag`: ends the forked worker it runs in."""
    if os.getpid() == parent:
        raise AssertionError("encoded in the calling process")
    os._exit(3)


def test_bench_cli_exits_2_when_a_worker_dies(corpus8, monkeypatch, tmp_path, capsys, pools):
    monkeypatch.setattr(harness, "encode_dag", functools.partial(_dies_in_worker, parent=os.getpid()))
    out = tmp_path / "runtimes.csv"
    set_workers(monkeypatch, 2)
    assert main(["bench", "--corpus", _corpus_dir(corpus8, tmp_path), "--out", str(out)]) == 2
    assert len(pools) == 1
    # every worker dies; the error names the first task in corpus order
    assert capsys.readouterr().err == "error: a worker died running task 0\n"
    assert not out.exists()
    assert_no_children()


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_bench_cli_refuses_a_budget_below_1_before_any_pool(
    corpus8, monkeypatch, tmp_path, capsys, pools, budget
):
    out = tmp_path / "runtimes.csv"
    set_workers(monkeypatch, 2)
    argv = ["bench", "--corpus", _corpus_dir(corpus8, tmp_path), "--budget", budget]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: budget must be >= 1\n"
    assert pools == []
    assert not out.exists()
    assert_no_children()


# -------------------------------------------------------------- filtering


def _full_table(oid, cost_fn, outcome_fn):
    return [
        RuntimeRow(oid, c, float(cost_fn(int(c))), outcome_fn(int(c))) for c in CONFIG_NUMBERS
    ]


def test_filter_eligible_reasons():
    rows = []
    rows += _full_table("inc", lambda c: 10 + c, lambda c: INCONSISTENT if c == 3 else FINISHED)
    rows += _full_table("slow", lambda c: 999, lambda c: TIMEOUT)
    rows += _full_table("ok", lambda c: 10 + c, lambda c: FINISHED)
    # a close cost spread is no reason to drop an ontology
    rows += _full_table("close", lambda c: {1: 99, 2: 101}.get(c, 100), lambda c: FINISHED)
    rows.append(RuntimeRow("slow", DEFAULT_LABEL, 999.0, TIMEOUT))
    kept, log = filter_eligible(rows)
    assert log == [("inc", "inconsistent"), ("slow", "all-timeout")]
    assert {r.ontology_id for r in kept} == {"ok", "close"}


def test_filter_eligible_requires_tables():
    with pytest.raises(ValueError):
        filter_eligible([])


# ------------------------------------------------------------------ split


def test_split_sizes_and_determinism():
    ids = [f"o{i:03d}" for i in range(143)]
    train, test = split_train_test(ids, fraction=0.25, seed=1)
    assert len(test) == 36 and len(train) == 107
    assert sorted(train + test) == ids
    assert not set(train) & set(test)
    assert train == sorted(train) and test == sorted(test)
    train2, test2 = split_train_test(list(reversed(ids)), fraction=0.25, seed=1)
    assert (train2, test2) == (train, test)


def test_split_minimum_and_fraction_validation():
    train, test = split_train_test(["a", "b", "c", "d"], fraction=0.25, seed=0)
    assert len(test) == 1 and len(train) == 3
    with pytest.raises(TooFewExamples):
        split_train_test(["a", "b", "c"], fraction=0.25)
    with pytest.raises(ValueError):
        split_train_test(["a", "b", "c", "d"], fraction=0.0)
    with pytest.raises(ValueError):
        split_train_test(["a", "b", "c", "d"], fraction=1.0)


def test_split_refuses_an_empty_training_side():
    ids = [f"o{i:03d}" for i in range(150)]
    # ceil(150 * 0.99) = 149 leaves one id to train on
    train, test = split_train_test(ids, fraction=0.99)
    assert len(train) == 1 and len(test) == 149
    with pytest.raises(TooFewExamples, match="test fraction 0.995 of 150 ids leaves none for training"):
        split_train_test(ids, fraction=0.995)


def test_a_split_refused_for_n_ids_is_refused_for_fewer():
    # what lets `pipeline` refuse a spec by its count before generating it
    for fraction in (0.1, 0.25, 0.5, 0.75, 0.9, 0.97, 0.99):
        refused = False
        for n in range(60, 0, -1):
            try:
                check_split(n, fraction)
            except TooFewExamples:
                refused = True
            else:
                assert not refused, (n, fraction)


# ---------------------------------------------------------------- speedup


def test_speedup_simple_ratio():
    rep = speedup_report({"a": (100.0, FINISHED)}, {"a": (1000.0, FINISHED)})
    assert rep.ids == ("a",)
    assert rep.max_ratio == rep.mean_ratio == 10.0
    assert math.isclose(rep.geomean_ratio, 10.0, rel_tol=1e-12)
    assert rep.learned_sum == 100.0 and rep.standard_sum == 1000.0
    assert rep.learned_timeouts == 0 and rep.standard_timeouts == 0


def test_speedup_equal_costs():
    rep = speedup_report({"a": (7.0, FINISHED)}, {"a": (7.0, FINISHED)})
    assert rep.geomean_ratio == 1.0


def test_speedup_counts_a_timeout_at_its_row_cost():
    # the harness writes a timeout row at the budget, and the report takes
    # whatever cost the row records
    rep = speedup_report({"a": (50.0, FINISHED)}, {"a": (123.0, TIMEOUT)})
    assert rep.max_ratio == 123.0 / 50.0
    assert rep.standard_timeouts == 1
    assert rep.standard_sum == 123.0


def test_speedup_floors_costs_at_one_step():
    rep = speedup_report({"a": (0.0, FINISHED)}, {"a": (3.0, FINISHED)})
    assert rep.max_ratio == 3.0


def test_speedup_against_reference_timeout():
    # one solved case against an exhausted reference-scale budget
    rep = speedup_report({"x": (9103.0, FINISHED)}, {"x": (500000.0, TIMEOUT)})
    assert math.isclose(rep.max_ratio, 54.928, abs_tol=0.01)


def test_speedup_aggregate_consistency():
    learned = {"a": (10.0, FINISHED), "b": (400.0, TIMEOUT), "c": (90.0, FINISHED)}
    standard = {"a": (100.0, FINISHED), "b": (400.0, TIMEOUT), "c": (9.0, FINISHED)}
    rep = speedup_report(learned, standard)
    n = len(rep.ids)
    assert rep.ids == ("a", "b", "c")
    assert math.isclose(rep.learned_mean, rep.learned_sum / n)
    assert math.isclose(rep.standard_mean, rep.standard_sum / n)
    assert rep.geomean_ratio <= rep.mean_ratio <= rep.max_ratio
    assert rep.learned_timeouts == rep.standard_timeouts == 1


def test_speedup_mismatched_ids():
    with pytest.raises(MismatchedIds):
        speedup_report({"a": (1.0, FINISHED)}, {"b": (1.0, FINISHED)})


def test_speedup_empty():
    with pytest.raises(ValueError):
        speedup_report({}, {})


# ------------------------------------------------------------- end to end


def test_run_pipeline_smoke(small_corpus):
    corpus = [(i.ontology_id, i.text) for i in small_corpus]
    # pad with a second generation so the split has enough material
    extra = generate_corpus(CorpusSpec(count=6, seed=4, all_timeout_count=0, hot_fraction=0.0))
    corpus += [(f"x{i.ontology_id}", i.text) for i in extra]
    res = run_pipeline(
        corpus,
        budget=12000,
        seed=9,
        grid=[GridPoint(5, 2, "linear", 1.0)],
        n_folds=3,
        test_fraction=0.25,
    )
    eligible_ids = {r.ontology_id for r in res.eligible_rows}
    assert ("ont0000", "all-timeout") in res.exclusions
    assert "ont0000" not in eligible_ids
    assert sorted(res.train_ids + res.test_ids) == sorted(eligible_ids)
    assert not set(res.train_ids) & set(res.test_ids)
    assert set(res.selections) == set(res.test_ids)
    assert res.report.ids == tuple(sorted(res.test_ids))
    assert set(res.selections.values()) <= set(CONFIG_NUMBERS)
    assert res.bundle.threshold > 0.0
    # one F-score per configuration
    lines = res.report_text.splitlines()
    at = lines.index("Classifier F-scores on the test split (good class positive)")
    assert lines[at + 1].split() == [f"c{c}" for c in CONFIG_NUMBERS]
    scores = [float(v) for v in lines[at + 2].split()]
    assert len(scores) == len(CONFIG_NUMBERS) and all(0.0 <= f <= 1.0 for f in scores)
    for heading in (
        "Per-ontology sweep costs",
        "Classifier F-scores",
        "Speedup of learned selection",
        "Cost totals",
    ):
        assert heading in res.report_text
