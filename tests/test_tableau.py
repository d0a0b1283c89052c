"""Tableau satisfiability: soundness cases, budgets, and sweeps."""

import contextlib
import sys

from conftest import BASIC_TEXT, BRANCHY_TEXT, UNSAT_TEXT
from ordsel.cli import main
from ordsel.dag import encode_dag
from ordsel.heuristics import apply_ordering, parse_config
from ordsel.krss import parse_ontology
from ordsel.tableau import (
    BUDGET_EXCEEDED,
    SATISFIABLE,
    UNSATISFIABLE,
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
