"""Parser and serializer for the s-expression ontology format."""

import pytest

from conftest import BASIC_TEXT, unparse
from ordsel.concepts import (
    And,
    Atomic,
    ConceptAssertion,
    Disjointness,
    Equivalence,
    Not,
    Or,
    RoleAssertion,
    RoleInclusion,
    Some,
    Subsumption,
    Top,
    Transitivity,
)
from ordsel.krss import ParseError, UnsupportedConstruct, parse_ontology


def test_basic_axioms_and_declarations():
    onto = parse_ontology(BASIC_TEXT)
    kinds = [type(ax) for ax in onto.tbox]
    assert kinds == [Subsumption, Subsumption, Equivalence]
    assert set(onto.classes) == {"A", "C", "D", "F"}
    assert onto.classes == ("C", "D", "F", "A")  # first-mention order
    assert onto.roles == ("R",)
    assert onto.tbox[0].rhs == Some("R", Atomic("D"))
    assert onto.tbox[2].rhs == Or((Atomic("C"), Atomic("D")))


def test_source_size_is_byte_length():
    onto = parse_ontology(BASIC_TEXT)
    assert onto.source_size == len(BASIC_TEXT.encode())


def test_unparse_parse_identity():
    onto = parse_ontology(BASIC_TEXT)
    assert parse_ontology(unparse(onto)) == type(onto)(
        tbox=onto.tbox,
        rbox=onto.rbox,
        abox=onto.abox,
        classes=onto.classes,
        roles=onto.roles,
        individuals=onto.individuals,
        source_size=len(unparse(onto).encode()),
    )


def test_comments_and_whitespace():
    onto = parse_ontology("; leading comment\n(implies A B) ; trailing\n\n  (disjoint A B)\n")
    assert len(onto.tbox) == 2
    assert isinstance(onto.tbox[1], Disjointness)


def test_top_bottom_and_nesting():
    onto = parse_ontology("(implies A (and *top* (not (or *bottom* B))))")
    rhs = onto.tbox[0].rhs
    assert isinstance(rhs, And)
    assert isinstance(rhs.children[0], Top)
    assert isinstance(rhs.children[1], Not)


def test_role_and_individual_axioms():
    onto = parse_ontology(
        "(implies-role R S)\n(transitive R)\n(instance bob C)\n(related bob alice R)\n"
    )
    assert [type(ax) for ax in onto.rbox] == [RoleInclusion, Transitivity]
    assert [type(ax) for ax in onto.abox] == [ConceptAssertion, RoleAssertion]
    assert onto.individuals == ("bob", "alice")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_ontology("(implies A B)\n(implies C")
    assert err.value.line == 2
    assert err.value.column >= 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("(instance (a) C)", "1:11: expected an individual name"),
        ("(related (a) b r)", "1:10: expected an individual name"),
        ("(related a b (r))", "1:14: expected a role name"),
        ("(implies A (some (R) B))", "1:18: expected a role name"),
    ],
)
def test_form_in_a_name_slot_names_the_slot(text, message):
    with pytest.raises(ParseError) as err:
        parse_ontology(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "(one-of a b)",
        "(implies A (at-least 2 R C))",
        "(implies A (at-most 1 R C))",
        "(implies A (inverse R))",
    ],
)
def test_constructs_outside_the_logic_are_rejected(text):
    with pytest.raises(UnsupportedConstruct):
        parse_ontology(text)


def test_unknown_operator_rejected():
    with pytest.raises(ParseError):
        parse_ontology("(frobnicate A B)")


def test_malformed_arity_rejected():
    with pytest.raises(ParseError):
        parse_ontology("(implies A)")
    with pytest.raises(ParseError):
        parse_ontology("(some R)")
    with pytest.raises(ParseError):
        parse_ontology("(not A B)")


def test_stray_close_paren_rejected():
    with pytest.raises(ParseError):
        parse_ontology("(implies A B))")


def test_empty_input_is_empty_ontology():
    onto = parse_ontology("")
    assert onto.tbox == () and onto.classes == ()
