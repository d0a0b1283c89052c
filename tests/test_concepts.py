"""Concept algebra: constructors, normal form, and structural measures."""

from conftest import concept_frequency
from ordsel.concepts import (
    BOTTOM,
    TOP,
    All,
    And,
    Atomic,
    Bottom,
    Not,
    Or,
    Some,
    Top,
    atom_frequencies,
    concept_depth,
    concept_size,
    conj,
    disj,
    nnf,
    operator_counts,
)
from ordsel.krss import parse_ontology

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def test_constructor_helpers_collapse_trivia():
    assert conj([A]) == A
    assert disj([A]) == A
    assert conj([]) == TOP
    assert disj([]) == BOTTOM
    assert conj([A, And((B, C))]) == And((A, B, C))
    assert disj([A, Or((B, C))]) == Or((A, B, C))


def test_nnf_pushes_negation_to_atoms():
    assert nnf(Not(And((A, B)))) == Or((Not(A), Not(B)))
    assert nnf(Not(Or((A, B)))) == And((Not(A), Not(B)))
    assert nnf(Not(Some("R", A))) == All("R", Not(A))
    assert nnf(Not(All("R", A))) == Some("R", Not(A))
    assert nnf(Not(Not(A))) == A
    assert nnf(Not(Top())) == Bottom()


def test_nnf_is_idempotent_and_recursive():
    c = Not(Some("R", And((A, Not(Or((B, C)))))))
    once = nnf(c)
    assert nnf(once) == once
    assert once == All("R", Or((Not(A), B, C)))  # nested disjunctions flatten


def test_size_and_depth():
    assert concept_size(A) == 1
    assert concept_depth(A) == 0
    c = Some("R", And((A, Not(B))))
    assert concept_size(c) == 5
    assert concept_depth(c) == 1
    assert concept_depth(All("R", Some("S", A))) == 2
    assert concept_depth(And((A, Some("R", A)))) == 1


def test_frequency_counts_occurrences_across_the_ontology():
    onto = parse_ontology("(implies A (and B B))\n(implies C B)\n")
    assert concept_frequency("B", onto) == 3
    assert concept_frequency("A", onto) == 1
    assert concept_frequency("missing", onto) == 0
    assert atom_frequencies(onto) == {"A": 1, "B": 3, "C": 1}
    assert atom_frequencies(onto)["missing"] == 0


def test_operator_counts():
    acc = {k: 0 for k in ("and", "or", "some", "all", "not")}
    operator_counts(Some("R", And((A, Not(Or((B, C)))))), acc)
    assert acc["some"] == 1
    assert acc["and"] == 1
    assert acc["or"] == 1
    assert acc["not"] == 1

