"""Exhaustive bounded model search and its agreement with the tableau."""

import numpy as np
import pytest

from conftest import random_ontology_text
from modelsearch import (
    CapacityError,
    brute_force_satisfiable,
    class_satisfiability,
    concepts_equivalent,
)
from ordsel.concepts import And, Atomic, Not, Or, Some
from ordsel.dag import encode_dag
from ordsel.heuristics import CONFIGS, apply_ordering
from ordsel.krss import parse_ontology
from ordsel.tableau import (
    SATISFIABLE,
    UNSATISFIABLE,
    check_tbox_consistency,
    class_ref,
    is_satisfiable,
)

A, B = Atomic("A"), Atomic("B")
EMPTY = parse_ontology("")


def test_direct_satisfiability_queries():
    assert brute_force_satisfiable(EMPTY, A, max_domain=2)
    assert not brute_force_satisfiable(EMPTY, And((A, Not(A))), max_domain=2)
    assert brute_force_satisfiable(EMPTY, Some("R", A), max_domain=2)
    onto = parse_ontology("(implies A (not B))\n(implies A B)")
    assert not brute_force_satisfiable(onto, A, max_domain=3)


def test_domain_validation():
    with pytest.raises(ValueError):
        brute_force_satisfiable(EMPTY, A, max_domain=0)


def test_capacity_guard():
    text = "(implies C0 (some R0 (some R1 (and C1 C2 C3))))"
    with pytest.raises(CapacityError):
        class_satisfiability(parse_ontology(text), max_domain=3, limit=1 << 10)


def test_class_scan_matches_direct_queries():
    onto = parse_ontology("(implies A (and B (not B)))\n(implies C B)")
    consistent, sat = class_satisfiability(onto, max_domain=3)
    assert consistent
    assert sat == {"A": False, "B": True, "C": True}


def test_concept_equivalence():
    assert concepts_equivalent(Not(And((A, B))), Or((Not(A), Not(B))))
    assert concepts_equivalent(Not(Some("R", A)), parse_ontology("(implies X (all R (not A)))").tbox[0].rhs)
    assert not concepts_equivalent(A, Not(A))
    assert not concepts_equivalent(Some("R", A), A)


def test_tableau_matches_oracle_on_known_traps():
    cases = [
        # definitional cycle hiding an inconsistency
        "(equivalent C1 (not C2))\n(implies C2 (and C2 C2))\n(equivalent C2 C1)\n",
        # contrapositive of a decomposed equivalence
        "(equivalent C1 (or C0 C2))\n(implies C1 C0)\n(implies C0 (not C2))\n",
        # global constraint from a complex left-hand side
        "(implies (some R0 C0) C1)\n(implies C0 (not C1))\n(implies C2 (some R0 C0))\n",
    ]
    for text in cases:
        onto = parse_ontology(text)
        consistent, sat = class_satisfiability(onto, max_domain=3)
        d = encode_dag(onto)
        odag = apply_ordering(d, None)
        assert (check_tbox_consistency(odag, 100_000).outcome != UNSATISFIABLE) == consistent
        for name in onto.classes:
            got = is_satisfiable(odag, class_ref(d, name), 100_000).outcome
            assert (got == SATISFIABLE) == sat[name], (text, name)


def test_randomized_agreement_quick():
    # a fast slice of the full randomized agreement check
    rng = np.random.default_rng(5150)
    checked = 0
    while checked < 50:
        text = random_ontology_text(rng)
        onto = parse_ontology(text)
        if not onto.classes:
            continue
        consistent, sat = class_satisfiability(onto, max_domain=3)
        checked += 1
        d = encode_dag(onto)
        for cfg in (CONFIGS[0], CONFIGS[7], None):
            odag = apply_ordering(d, cfg)
            assert (check_tbox_consistency(odag, 500_000).outcome != UNSATISFIABLE) == consistent
            for name in onto.classes:
                got = is_satisfiable(odag, class_ref(d, name), 500_000).outcome
                assert (got == SATISFIABLE) == sat[name], (text, name)
