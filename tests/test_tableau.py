"""Tableau satisfiability: soundness cases, budgets, and sweeps."""

import contextlib
import random
import sys

import chronological
import pytest
from chronological import chronological_sat
from conftest import BASIC_TEXT, BRANCHY_TEXT, UNSAT_TEXT, replay_ontology_text
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from ordsel import tableau
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.cli import main
from ordsel.dag import AND, encode_dag
from ordsel.heuristics import CONFIGS, OrderedDag, apply_ordering, parse_config
from ordsel.krss import parse_ontology
from ordsel.tableau import (
    BUDGET_EXCEEDED,
    SATISFIABLE,
    UNSATISFIABLE,
    SatResult,
    check_tbox_consistency,
    class_ref,
    is_satisfiable,
    satisfiability_sweep,
)


def _ordered(text, config="Sap"):
    d = encode_dag(parse_ontology(text))
    return d, apply_ordering(d, parse_config(config))


def test_worked_example_step_accounting():
    d, odag = _ordered(BASIC_TEXT)
    expected = {
        "C": (SATISFIABLE, 2, 0),
        "D": (SATISFIABLE, 0, 0),
        "F": (SATISFIABLE, 0, 0),
        "A": (SATISFIABLE, 4, 1),
    }
    for name, (outcome, steps, branch_points) in expected.items():
        r = is_satisfiable(odag, class_ref(d, name), 10_000)
        assert (r.outcome, r.steps, r.branch_points) == (outcome, steps, branch_points)


def test_direct_contradiction():
    d, odag = _ordered(UNSAT_TEXT)
    assert is_satisfiable(odag, class_ref(d, "A"), 10_000).outcome == UNSATISFIABLE


def test_clash_inside_generated_successor():
    d, odag = _ordered("(implies A (some R (and B (not B))))")
    assert is_satisfiable(odag, class_ref(d, "A"), 10_000).outcome == UNSATISFIABLE


def test_universal_propagates_into_successors():
    d, odag = _ordered("(implies A (and (some R B) (all R (not B))))")
    assert is_satisfiable(odag, class_ref(d, "A"), 10_000).outcome == UNSATISFIABLE


def test_universal_without_witness_is_vacuous():
    d, odag = _ordered("(implies A (all R *bottom*))")
    assert is_satisfiable(odag, class_ref(d, "A"), 10_000).outcome == SATISFIABLE


def test_disjunction_needs_backtracking():
    d, odag = _ordered(BRANCHY_TEXT)
    # A conjoins two binary disjunctions with an unsatisfiable existential
    r = is_satisfiable(odag, class_ref(d, "A"), 10_000)
    assert r.outcome == UNSATISFIABLE
    assert r.branch_points >= 2
    # D recovers through its second disjunct
    r2 = is_satisfiable(odag, class_ref(d, "D"), 10_000)
    assert r2.outcome == SATISFIABLE
    assert r2.branch_points >= 1


def test_blocking_terminates_cyclic_generators():
    d, odag = _ordered("(implies A (some R A))")
    r = is_satisfiable(odag, class_ref(d, "A"), 10_000)
    assert r.outcome == SATISFIABLE

    d2, odag2 = _ordered("(implies A (and B (some R A)))\n(implies B (some S B))")
    assert is_satisfiable(odag2, class_ref(d2, "A"), 100_000).outcome == SATISFIABLE


def test_budget_exhaustion_is_reported():
    d, odag = _ordered(BRANCHY_TEXT)
    r = is_satisfiable(odag, class_ref(d, "A"), 1)
    assert r.outcome == BUDGET_EXCEEDED
    assert r.steps >= 1


def test_global_constraints_apply_to_every_node():
    # complex left-hand side forces internalization
    text = "(implies (or A B) C)\n(implies A (not C))\n"
    d, odag = _ordered(text)
    assert is_satisfiable(odag, class_ref(d, "A"), 10_000).outcome == UNSATISFIABLE
    assert is_satisfiable(odag, class_ref(d, "B"), 10_000).outcome == SATISFIABLE


def test_inconsistent_tbox():
    text = "(equivalent C1 (not C2))\n(implies C2 (and C2 C2))\n(equivalent C2 C1)\n"
    d, odag = _ordered(text)
    assert check_tbox_consistency(odag, 10_000).outcome == UNSATISFIABLE


# Reference 0 is the first declared class, positive: as a test target or as
# the global constraint it must not read as "no reference".
@pytest.mark.parametrize(
    "text, gci, outcomes",
    [
        ("(implies A *bottom*)\n", None, {"A": UNSATISFIABLE}),
        ("(implies (not A) A)\n(implies B (not A))\n", 0, {"A": SATISFIABLE, "B": UNSATISFIABLE}),
    ],
)
def test_reference_0_is_a_reference(text, gci, outcomes):
    d, odag = _ordered(text)
    assert class_ref(d, "A") == 0
    assert d.gci_constraint == gci
    for name, outcome in outcomes.items():
        assert is_satisfiable(odag, class_ref(d, name), 10_000).outcome == outcome, name
    assert is_satisfiable(odag, None, 10_000).outcome == SATISFIABLE
    assert check_tbox_consistency(odag, 10_000).outcome == SATISFIABLE
    _assert_chronological(text)


def test_consistency_of_told_only_tbox_is_trivial():
    d, odag = _ordered(BASIC_TEXT)
    r = check_tbox_consistency(odag, 10_000)
    assert r.outcome == SATISFIABLE
    assert r.steps == 0


def test_sweep_visits_classes_in_declaration_order():
    d, odag = _ordered(BASIC_TEXT)
    res = satisfiability_sweep(odag, 10_000)
    assert list(res.per_class) == ["C", "D", "F", "A"]
    assert res.consistent
    assert not res.timed_out
    assert res.total_steps == sum(r.steps for r in res.per_class.values())


def test_sweep_aborts_at_first_budget_exhaustion():
    # F's test is cheap; A's needs more than the per-test budget
    text = "(implies F G)\n" + BRANCHY_TEXT
    d, odag = _ordered(text)
    res = satisfiability_sweep(odag, 3)
    assert res.timed_out
    names = list(res.per_class)
    assert names[0] == "F"
    last = names[-1]
    assert res.per_class[last].outcome == BUDGET_EXCEEDED
    # nothing after the exhausted test is attempted
    declared = list(parse_ontology(text).classes)
    assert names == declared[: len(names)]


def test_sweep_on_inconsistent_tbox():
    text = "(equivalent C1 (not C2))\n(implies C2 (and C2 C2))\n(equivalent C2 C1)\n"
    d, odag = _ordered(text)
    res = satisfiability_sweep(odag, 10_000)
    assert not res.consistent


def test_orderings_change_steps_but_not_outcomes():
    # clash-first vs. clash-last exploration of the same disjunctions
    text = "(implies A (and (or (and B1 B2 B3 (not B1)) G) (or (and C1 C2 C3 (not C1)) H)))"
    d = encode_dag(parse_ontology(text))
    steps = {}
    for cfg_text in ("Sap", "Sdp"):
        odag = apply_ordering(d, parse_config(cfg_text))
        r = is_satisfiable(odag, class_ref(d, "A"), 100_000)
        assert r.outcome == SATISFIABLE
        steps[cfg_text] = r.steps
    # ascending size tries the small clean disjunct first
    assert steps["Sap"] < steps["Sdp"]


@contextlib.contextmanager
def _default_recursion_limit():
    """Run under the interpreter's default limit and check nobody raised it."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_long_disjunction_chain_needs_no_recursion(tmp_path, capsys):
    # 2000 choice points open at once
    n = 2000
    path = tmp_path / "chain.krss"
    path.write_text("".join(f"(implies A (or X{i} Y{i}))\n" for i in range(n)))
    with _default_recursion_limit():
        assert main(["sat", "--ontology", str(path), "--class", "A", "--config", "0"]) == 0
    # one unfolding of A, then the first disjunct of every branch point
    assert capsys.readouterr().out.split() == [SATISFIABLE, str(n + 1), str(n)]


def test_long_definition_chain_needs_no_recursion(tmp_path, capsys):
    # the search for definitional cycles follows 1500 links in one chain
    n = 1500
    path = tmp_path / "defs.krss"
    path.write_text("".join(f"(equivalent A{i} (and A{i + 1} X{i}))\n" for i in range(n)))
    with _default_recursion_limit():
        assert main(["sat", "--ontology", str(path), "--class", "A0", "--config", "0"]) == 0
    # one unfolding and one conjunction per link, no choice points
    assert capsys.readouterr().out.split() == [SATISFIABLE, str(2 * n), "0"]


def test_long_successor_chain_needs_no_recursion():
    n = 2000
    text = "".join(f"(implies A{i} (some R A{i + 1}))\n" for i in range(n))
    d, odag = _ordered(text)
    with _default_recursion_limit():
        r = is_satisfiable(odag, class_ref(d, "A0"), 100_000)
    # one unfolding and one successor per link: all n successors were built
    assert (r.outcome, r.steps, r.branch_points) == (SATISFIABLE, 2 * n, 0)


def test_failed_branch_leaves_nothing_in_the_label():
    # The first disjunct adds B, then both ways of its nested choice clash.
    # The second disjunct G forces (not B), which fits only if B was undone.
    text = (
        "(implies A (or (and B (or (and E (not E)) (and F (not F)))) G))\n"
        "(implies G (not B))\n"
    )
    d, odag = _ordered(text, "0")
    r = is_satisfiable(odag, class_ref(d, "A"), 10_000)
    assert (r.outcome, r.branch_points) == (SATISFIABLE, 2)


def test_blocked_node_drops_stale_successors():
    # The R-successor first takes X, whose (some S W) clashes; backtracking
    # to Y leaves it blocked by the root, so its other pending successor,
    # (some S Z), must not be built: that would cost one step more.
    text = (
        "(implies A (and B (some R B)))\n"
        "(implies B (or X Y))\n"
        "(implies X (and (some S W) (some S Z)))\n"
        "(implies W (and K (not K)))\n"
    )
    d, odag = _ordered(text, "0")
    r = is_satisfiable(odag, class_ref(d, "A"), 10_000)
    assert (r.outcome, r.steps, r.branch_points) == (SATISFIABLE, 24, 3)


# ------------------------------------------------------------ counted replay
# The search counts, instead of walking, the failed subtrees that inert
# disjunctions repeat (see the tableau module docstring).  Every result must
# stay that of the chronological search in tests/chronological.py.

BUDGETS = (12_000, 400, 37)


def _assert_chronological(text, budgets=BUDGETS):
    """Equal results for every ordering, budget and target: none, and each
    class positive and negated."""
    onto = parse_ontology(text)
    d = encode_dag(onto)
    targets = [None] + [2 * d.atom_ids[n] + neg for n in onto.classes for neg in (0, 1)]
    for cfg in (None, *CONFIGS):
        odag = apply_ordering(d, cfg)
        chronological = chronological_sat(odag)
        for budget in budgets:
            for target in targets:
                want = chronological(target, budget)
                assert is_satisfiable(odag, target, budget) == want, (cfg, budget, target)


# The example is a seed of the generator, so there is nothing to shrink.
@settings(
    derandomize=True, database=None, deadline=None, max_examples=25, phases=(Phase.generate,)
)
@given(st.integers(0, 2**32 - 1))
def test_replay_matches_chronological_search(seed):
    _assert_chronological(replay_ontology_text(random.Random(seed)))


def _bomb(width):
    pairs = " ".join(f"(or X{i} Y{i})" for i in range(width))
    return f"(implies A (and (some R (and Q P)) {pairs}))\n(implies A (all R (not Q)))\n"


def test_bomb_costs_every_chronological_copy():
    # Two steps to unfold A and its conjunction, one per entered branch
    # (2^(w+1) - 2), three per refuted leaf successor (3 * 2^w): 5 * 2^w
    # steps and 2^w - 1 branch points, here without walking 2^40 leaves.
    for width in (1, 3):
        _assert_chronological(_bomb(width))
    width = 40
    d, odag = _ordered(_bomb(width), "0")
    a = class_ref(d, "A")
    cost = 5 * 2**width
    assert is_satisfiable(odag, a, cost + 1) == SatResult(UNSATISFIABLE, cost, 2**width - 1)
    exceeded = is_satisfiable(odag, a, cost)
    assert (exceeded.outcome, exceeded.steps) == (BUDGET_EXCEEDED, cost)


def test_replay_budget_cut_inside_a_copy():
    # every budget that ends the search inside some copy, replayed or not
    _assert_chronological(_bomb(3), budgets=range(1, 5 * 2**3 + 2))


# Near misses: each breaks one condition of the replay, and each fails when
# the search drops the check of that condition.


def test_replay_near_miss_reused_atom():
    # X also occurs in another disjunction, where it is negated
    _assert_chronological(
        "(implies A (and (or X Y) (or (not X) E) (some R (and Q P)) (all R (not Q))))\n"
    )


def test_replay_near_miss_atom_with_a_told_subsumer():
    _assert_chronological(
        "(implies A (and (or X Y) (some R (and Q P)) (all R (not Q))))\n"
        "(implies X (and (some R P) (all R (not P))))\n"
    )


def test_replay_near_miss_target_in_the_label():
    # With the target (not Y), the root's alternative Y clashes at once
    # while X and Z each refute a successor.
    _assert_chronological("(implies *top* (and (or X Y Z) (some R (and Q P)) (all R (not Q))))\n")


def test_replay_near_miss_ancestor_blocks():
    # Every node branches on (or X Y Z).  When the root holds Y (as the
    # target, or after (not X) made it skip X), its R-successor is blocked
    # by the root with Y but refutes its S-successor with X or Z.
    _assert_chronological(
        "(implies *top* (and (or X Y Z) (some R (some S (and Q P)))"
        " (some S (and Q P)) (all S (not Q))))\n"
    )


def test_replay_near_miss_disjunction_at_ancestor_and_descendant():
    # The R-successor branches on the root's disjunction too, and it is
    # blocked by the root only when both took the same alternative.
    _assert_chronological(
        "(implies A (and (or X Y) (all R (or X Y)) (some R A)"
        " (some S (and Q P)) (all S (not Q))))\n"
    )


# ------------------------------------------------- work shared per DAG
# A DAG keeps the rows no ordering changes, and each ordering one set of
# tables built from them.  Every test is a search: results are never
# shared (see the tableau module docstring).


def test_shared_tables_equal_fresh_tables_for_every_ordering(searches):
    # Each ordering searches once, on its own tables built from the DAG's
    # shared rows; the first ordering is c1, not the identity, and the
    # small budgets keep the searches short.
    texts = [inst.text for inst in generate_corpus(CorpusSpec(count=12, seed=5))]
    texts += [replay_ontology_text(random.Random(seed)) for seed in range(20)]
    texts += [BASIC_TEXT, BRANCHY_TEXT]
    texts.append("(implies *top* (or A *bottom*))\n(equivalent B (and A C))\n")
    for text in texts:
        d = encode_dag(parse_ontology(text))
        for budget, cfg in enumerate((*CONFIGS, None), start=1):
            odag = apply_ordering(d, cfg)
            n = len(searches)
            is_satisfiable(odag, None, budget)
            assert len(searches) == n + 1
            got, want = searches[-1][0], chronological._Tables(odag)
            for row in ("expand", "disjuncts", "exists", "forall", "bottom", "gci"):
                assert getattr(got, row) == getattr(want, row), (text, cfg, row)


def _identity(d):
    return {v: tuple(range(len(x.children))) for v, x in enumerate(d.vertices) if x.op == AND}


def _disjunction_of(d, name):
    """The ``and`` vertex that holds the negated atom ``name`` as a child."""
    ref = 2 * d.atom_ids[name] + 1
    (vid,) = [v for v, x in enumerate(d.vertices) if x.op == AND and ref in x.children]
    return vid


# Near misses: two orderings that differ only in the disjunction
# (or (and P (not P)) Q), which the target reaches through nothing but a
# told subsumer, a definition (of a positive or a negated atom), or the
# global constraint.  The first ordering tries the clash first, the second
# tries Q first, so a result reused from the first would be wrong for the
# second.
@pytest.mark.parametrize(
    "text, target",
    [
        ("(implies A (or (and P (not P)) Q))\n", "A"),
        ("(equivalent A (or (and P (not P)) Q))\n", "A"),
        ("(implies B (not A))\n(equivalent A (not (or (and P (not P)) Q)))\n", "B"),
        ("(implies *top* (or (and P (not P)) Q))\n", "P"),
        ("(implies *top* (or (and P (not P)) Q))\n", None),
    ],
)
def test_result_is_not_reused_when_a_readable_row_differs(searches, text, target):
    d = encode_dag(parse_ontology(text))
    vid = _disjunction_of(d, "Q")
    clash_first = _identity(d)
    q_first = {**clash_first, vid: clash_first[vid][::-1]}
    ref = None if target is None else class_ref(d, target)
    results = []
    for perms in (clash_first, q_first):
        odag = OrderedDag(dag=d, config=None, permutations=perms)
        want = chronological_sat(odag)(ref, 100)
        assert is_satisfiable(odag, ref, 100) == want
        results.append(want)
    assert results[0] != results[1]
    assert len(searches) == 2


def test_two_tests_on_one_ordering_search_twice(searches):
    d = encode_dag(parse_ontology(BRANCHY_TEXT))
    odag = apply_ordering(d, parse_config("Fdn"))
    first = is_satisfiable(odag, None, 100)
    assert is_satisfiable(odag, None, 100) == first
    assert len(searches) == 2
    assert searches[0][0] is searches[1][0]  # on the ordering's one set of tables
    # the unordered rows leave every ``and`` row to the orderings
    unordered = tableau._RULES[d]
    assert all(unordered.expand[2 * v] is None for v in odag.permutations)
    assert all(unordered.disjuncts[2 * v + 1] is None for v in odag.permutations)


def test_unknown_class_is_a_value_error():
    d = encode_dag(parse_ontology(BASIC_TEXT))
    with pytest.raises(ValueError, match="unknown class 'Nope'"):
        class_ref(d, "Nope")
