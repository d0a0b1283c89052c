"""Concept algebra: identity comparison, the flattening constructors and
structural comparison the tests use, and the iterative walk over
expressions."""

import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import concept_frequency
from ordsel.concepts import (
    BOTTOM,
    TOP,
    All,
    And,
    Atomic,
    Not,
    Ontology,
    Or,
    Some,
    Subsumption,
    Top,
    atom_frequencies,
    walk,
)
from ordsel.krss import parse_ontology
from test_tableau import _default_recursion_limit
from trees import assert_same, conj, disj, first_difference

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def test_constructor_helpers_collapse_trivia():
    assert conj([A]) == A
    assert disj([A]) == A
    assert conj([]) == TOP
    assert disj([]) == BOTTOM
    assert_same(conj([A, And((B, C))]), And((A, B, C)))
    assert_same(disj([A, Or((B, C))]), Or((A, B, C)))


def _parities(c):
    return [(node, negated) for node, negated, _ in walk(c)]


def test_walk_flips_negation_at_each_not():
    # a node is negated exactly when negation normal form would push a
    # negation onto it: (not (and A B)) = (or (not A) (not B)), and so on
    for op in (And, Or):
        c = Not(op((A, B)))
        assert _parities(c) == [(c, False), (c.child, True), (A, True), (B, True)]
    for op in (Some, All):
        c = Not(op("R", A))
        assert _parities(c) == [(c, False), (c.child, True), (A, True)]
    c = Not(Not(A))
    assert _parities(c) == [(c, False), (c.child, True), (A, False)]
    c = Not(TOP)
    assert _parities(c) == [(c, False), (TOP, True)]


def test_walk_is_preorder_through_nested_operators():
    # in negation normal form this is (all R (or (not A) B C))
    inner = Not(Or((B, C)))
    c = Not(Some("R", And((A, inner))))
    assert list(walk(c)) == [
        (c, False, 0),
        (c.child, True, 0),
        (c.child.child, True, 1),
        (A, True, 1),
        (inner, True, 1),
        (inner.child, False, 1),
        (B, False, 1),
        (C, False, 1),
    ]


def test_size_and_depth():
    def size(c):
        return sum(1 for _ in walk(c))

    def depth(c):
        return max(d for _, _, d in walk(c))

    assert size(A) == 1
    assert depth(A) == 0
    c = Some("R", And((A, Not(B))))
    assert size(c) == 5
    assert depth(c) == 1
    assert depth(All("R", Some("S", A))) == 2
    assert depth(And((A, Some("R", A)))) == 1


def test_operator_counts():
    ops = Counter(type(node) for node, _, _ in walk(Some("R", And((A, Not(Or((B, C))))))))
    assert (ops[Some], ops[All], ops[And], ops[Or], ops[Not]) == (1, 0, 1, 1, 1)


def test_walk_needs_no_recursion():
    c = A
    for i in range(5000):
        c = Some("R", c) if i % 2 else Not(c)
    with _default_recursion_limit():
        nodes = list(walk(c))
    assert len(nodes) == 5001
    assert nodes[-1] == (A, False, 2500)


# Small concepts over two names and two roles, so that independent draws
# are often equal or nearly so.
_ROLES = st.sampled_from("RS")
CONCEPTS = st.recursive(
    st.sampled_from([TOP, BOTTOM]) | st.builds(Atomic, st.sampled_from("AB")),
    lambda kids: st.builds(Not, kids)
    | st.builds(Some, _ROLES, kids)
    | st.builds(All, _ROLES, kids)
    | st.builds(lambda cs: And(tuple(cs)), st.lists(kids, min_size=2, max_size=3))
    | st.builds(lambda cs: Or(tuple(cs)), st.lists(kids, min_size=2, max_size=3)),
    max_leaves=6,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(CONCEPTS, CONCEPTS)
@example(Or((And((A, B)), C)), Or((And((A, B, C)), C)))  # equal but for one width
def test_helper_equality_is_structural(a, b):
    # the recursive dataclass repr spells out the whole tree
    same = repr(a) == repr(b)
    assert (first_difference(a, b) is None) is same
    axioms = Subsumption(A, a), Subsumption(A, b)
    assert (first_difference(*axioms) is None) is same
    assert (first_difference(*(Ontology(tbox=(ax,), classes=("A",)) for ax in axioms)) is None) is same
    copy = pickle.loads(pickle.dumps(a))
    assert copy is not a and first_difference(copy, a) is None
    assert copy != a and hash(copy) == object.__hash__(copy)  # by identity
    assert axioms[0] != Subsumption(A, a)


def test_a_difference_is_one_short_line():
    deep = A
    for _ in range(100_000):
        deep = Some("R", deep)
    other = Some("R", Some("R", And((B, C))))
    with _default_recursion_limit():
        assert first_difference(Subsumption(A, deep), Subsumption(A, deep)) is None
        msg = first_difference(Ontology(tbox=(Subsumption(A, deep),)), Ontology(tbox=(Subsumption(A, other),)))
    assert msg == ".tbox[0].rhs node 2: ('Some', 'R', 0) against ('And', None, 2)"
    with pytest.raises(AssertionError, match="^.classes: 1 items against 0$"):
        assert_same(Ontology(classes=("A",)), Ontology())


def test_walk_rejects_non_concepts():
    with pytest.raises(TypeError):
        list(walk(And((A, "B"))))


def test_frequency_counts_occurrences_across_the_ontology():
    onto = parse_ontology("(implies A (and B B))\n(implies C B)\n")
    assert concept_frequency("B", onto) == 3
    assert concept_frequency("A", onto) == 1
    assert concept_frequency("missing", onto) == 0
    assert atom_frequencies(onto) == {"A": 1, "B": 3, "C": 1}
    assert atom_frequencies(onto)["missing"] == 0

