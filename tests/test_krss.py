"""Parser and serializer for the s-expression ontology format."""

import contextlib
import gc
import io
import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ordsel import dag, krss
from ordsel.cli import main
from ordsel.dag import encode_dag
from ordsel.features import extract_features
from ordsel.krss import ParseError, UnsupportedConstruct, parse_ontology
from test_tableau import _default_recursion_limit
from trees import assert_same


def test_basic_axioms_and_declarations():
    onto = parse_ontology(BASIC_TEXT)
    kinds = [type(ax) for ax in onto.tbox]
    assert kinds == [Subsumption, Subsumption, Equivalence]
    assert set(onto.classes) == {"A", "C", "D", "F"}
    assert onto.classes == ("C", "D", "F", "A")  # first-mention order
    assert onto.roles == ("R",)
    assert_same(onto.tbox[0].rhs, Some("R", Atomic("D")))
    assert_same(onto.tbox[2].rhs, Or((Atomic("C"), Atomic("D"))))


def test_source_size_is_byte_length():
    onto = parse_ontology(BASIC_TEXT)
    assert onto.source_size == len(BASIC_TEXT.encode())


def test_unparse_parse_identity():
    onto = parse_ontology(BASIC_TEXT)
    assert_same(
        parse_ontology(unparse(onto)),
        type(onto)(
            tbox=onto.tbox,
            rbox=onto.rbox,
            abox=onto.abox,
            classes=onto.classes,
            roles=onto.roles,
            source_size=len(unparse(onto).encode()),
        ),
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
    assert_same(onto.abox, (ConceptAssertion("bob", Atomic("C")), RoleAssertion("bob", "alice", "R")))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_ontology("(implies A B)\n(implies C")
    assert err.value.line == 2
    assert err.value.column >= 1


def test_parse_and_encode_pause_the_cyclic_collector(monkeypatch):
    seen = []

    def spying(fn):
        return lambda *args: seen.append(gc.isenabled()) or fn(*args)

    monkeypatch.setattr(krss, "_leaves", spying(krss._leaves))
    monkeypatch.setattr(dag, "atom_frequencies", spying(dag.atom_frequencies))
    assert gc.isenabled()
    encode_dag(parse_ontology("(implies A (and B C))"))
    assert seen == [False, False] and gc.isenabled()


def test_a_parse_error_leaves_the_collector_enabled():
    assert gc.isenabled()
    with pytest.raises(ParseError):
        parse_ontology("(implies A (and B C)")
    assert gc.isenabled()


def test_a_collector_paused_by_the_caller_stays_paused():
    gc.disable()
    try:
        encode_dag(parse_ontology("(implies A (and B C))"))
        with pytest.raises(ParseError):
            parse_ontology("(implies A")
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("cls", [ParseError, UnsupportedConstruct])
def test_parse_errors_survive_a_pickle_round_trip(cls):
    back = pickle.loads(pickle.dumps(cls(3, 4, "boom")))
    assert type(back) is cls
    assert (back.line, back.column, back.message, str(back)) == (3, 4, "boom", "3:4: boom")


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


# Token soups: an axiom head, a run of openers nested up to 1,200 deep, a
# small concept or a soup of tokens, about as many closers as openers, and
# more soup.  Tokens cover parentheses, every head of the format, heads
# outside ALC, names valid and not, and comments.
_SOUP = st.lists(
    st.sampled_from(
        ["(", ")", "()", "; (note\n", "\n", "*top*", "*bottom*", "not", "and", "or", "some", "all",
         "implies", "equivalent", "disjoint", "implies-role", "transitive", "instance", "related",
         "one-of", "at-least", "frob", "A", "B", "R", "a", "bad.name", "x*y"]
    ),
    max_size=12,
).map(" ".join)
_OPENERS = ["(not ", "(and A ", "(or B ", "(some R ", "(all R ", "; ((\n"]


@st.composite
def token_soups(draw) -> str:
    depth = draw(st.integers(0, 8) | st.integers(257, 1200))
    ops = draw(st.lists(st.sampled_from(_OPENERS), min_size=1, max_size=4))
    head = draw(st.sampled_from(["(implies A ", "(equivalent B ", "(disjoint A ", "(instance a ", ""]))
    middle = draw(st.sampled_from(["B", "(some R *top*)", "(not A)"]) | _SOUP)
    closers = max(0, depth + (head != "") + draw(st.sampled_from([0, 0, -1, 1])))
    prefix = "".join(ops[i % len(ops)] for i in range(depth))
    return head + prefix + middle + ")" * closers + draw(st.just("") | _SOUP)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(token_soups())
def test_token_soups_parse_or_exit_2(text):
    with _default_recursion_limit():
        try:
            onto = parse_ontology(text)
        except ParseError as exc:  # UnsupportedConstruct included
            expected = (2, f"error: {exc}\n")
        else:
            extract_features(onto, encode_dag(onto))
            again = parse_ontology(text)
            assert_same(again, onto)
            expected = (0, "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "soup.krss")
            with open(path, "w") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert (main(["features", "--ontology", path]), err.getvalue()) == expected


@pytest.mark.parametrize("op, cls", [("and", And), ("or", Or)])
def test_right_nested_chains_flatten_in_linear_time(monkeypatch, op, cls):
    """`(op X (op X (... (op X B))))` is flattened once, by its outermost
    form: building each level would copy the inner level's flattened
    children again, n^2 / 2 of them in all."""
    n = 100_000
    handled = []  # how many leaves each conjunction or disjunction built gathers

    def spy(args, gather=krss._leaves):
        leaves = gather(args)
        handled.append(len(leaves))
        return leaves

    monkeypatch.setattr(krss, "_leaves", spy)
    chain = f"({op} X " * n + "B" + ")" * n
    with _default_recursion_limit():
        onto = parse_ontology(f"(implies A {chain})\n(implies C (not {chain}))\n")
        flat = cls((Atomic("X"),) * n + (Atomic("B"),))
        assert_same(onto.tbox, (Subsumption(Atomic("A"), flat), Subsumption(Atomic("C"), Not(flat))))
    assert sum(handled) <= 2 * (2 * n)  # two chains, at most 2n children each
