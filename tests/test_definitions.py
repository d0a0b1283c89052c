"""Which equivalences encode as definitions: an independent check of the
rule, invariance under renaming the classes, and a linear-time gate.

`check_definitions` restates the rule from the axioms alone and never calls
`_pure_definition_heads`; it can afford quadratic time on small TBoxes."""

import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import random_ontology_text
from ordsel import dag
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.concepts import Atomic, Equivalence, walk
from ordsel.dag import _pure_definition_heads, encode_dag
from ordsel.features import profile_features
from ordsel.krss import parse_ontology
from test_tableau import _default_recursion_limit

DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=200, phases=(Phase.generate,)
)

# Every name lies on a cycle through the others, so none is a definition,
# whichever name a search meets first.
CYCLE_TEXT = "(equivalent A (and B C))\n(equivalent B (some R A))\n(equivalent C (some R B))\n"


def _atoms(c) -> set[str]:
    return {x.name for x, _, _ in walk(c) if isinstance(x, Atomic)}


def check_definitions(onto, defs) -> None:
    """Every returned name heads exactly one equivalence and no other
    axiom, is no atomic side of an equivalence that is not a returned
    definition, and lies on no cycle among the returned definitions.  Every
    name left out has one of those reasons, or lies on a cycle among the
    names that head exactly one equivalence and no other axiom."""
    heads: dict[str, list] = {}
    others: set[str] = set()
    split: set[str] = set()  # atomic sides of the equivalences that split
    for ax in onto.tbox:
        lhs, rhs = ax.lhs, ax.rhs
        if isinstance(ax, Equivalence):
            if not isinstance(lhs, Atomic):
                lhs, rhs = rhs, lhs
            if isinstance(lhs, Atomic):
                heads.setdefault(lhs.name, []).append(rhs)
            if not (isinstance(lhs, Atomic) and lhs.name in defs):
                split.update(s.name for s in (lhs, rhs) if isinstance(s, Atomic))
        elif isinstance(lhs, Atomic):
            others.add(lhs.name)
    unique = {n for n, bodies in heads.items() if len(bodies) == 1 and n not in others}

    def on_cycle(name: str, among: set[str]) -> bool:
        seen, todo = set(), [name]
        while todo:
            for m in _atoms(heads[todo.pop()][0]) & among:
                if m == name:
                    return True
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        return False

    for name, body in defs.items():
        assert name in unique and heads[name] == [body], name
        assert name not in split, name
        assert not on_cycle(name, set(defs)), name
    for name in unique - set(defs):
        assert name in split or on_cycle(name, unique), name


def _renamed(text: str, mapping: dict[str, str]) -> str:
    return re.sub(r"[^\s()]+", lambda m: mapping.get(m.group(), m.group()), text)


def assert_renaming_invariant(text: str, order: list[int]) -> None:
    """Permuting the class names by `order` permutes the definitions and
    keeps numGCIs."""
    onto = parse_ontology(text)
    assert not set(onto.classes) & set(onto.roles)
    names = sorted(onto.classes)
    mapping = {names[i]: names[j] for i, j in zip(range(len(names)), order)}
    renamed = parse_ontology(_renamed(text, mapping))
    defs, renamed_defs = _pure_definition_heads(onto), _pure_definition_heads(renamed)
    check_definitions(onto, defs)
    check_definitions(renamed, renamed_defs)
    assert {mapping[n] for n in defs} == set(renamed_defs)
    gcis = profile_features(onto, encode_dag(onto))["numGCIs"]
    assert profile_features(renamed, encode_dag(renamed))["numGCIs"] == gcis


@st.composite
def equivalence_tboxes(draw) -> str:
    """A few names, most defined once by a body that uses the others, so
    that definitions chain and cycle, plus up to three axioms that demote:
    equivalences either way round, inclusions and disjointness."""
    names = [f"C{i}" for i in range(draw(st.integers(3, 5)))]
    name = st.sampled_from(names)
    body = st.one_of(
        name,
        st.builds("(some R {})".format, name),
        st.builds("(and {} {})".format, name, name),
        st.builds("(or {} (not {}))".format, name, name),
        st.builds("(all R (and {} {}))".format, name, name),
    )
    axiom = st.one_of(
        st.builds("(equivalent {} {})".format, name, body),
        st.builds("(equivalent {} {})".format, body, name),
        st.builds("(equivalent {} {})".format, body, body),
        st.builds("(implies {} {})".format, name, body),
        st.builds("(disjoint {} {})".format, name, name),
    )
    lines = [f"(equivalent {n} {draw(body)})" for n in names if draw(st.integers(0, 3))]
    lines += draw(st.lists(axiom, max_size=3))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def test_definitions_do_not_depend_on_the_class_names():
    # as written, and with A and C swapped: no definition, three GCIs
    for text in (CYCLE_TEXT, _renamed(CYCLE_TEXT, {"A": "C", "C": "A"})):
        onto = parse_ontology(text)
        assert _pure_definition_heads(onto) == {}
        assert profile_features(onto, encode_dag(onto))["numGCIs"] == 3
    for order in ([1, 0, 2], [2, 1, 0], [0, 2, 1], [1, 2, 0], [2, 0, 1]):
        assert_renaming_invariant(CYCLE_TEXT, order)


def test_uses_of_a_closed_cycle_make_no_cycle():
    # X's uses are met in order: P, whose cycle with Q closes first, then R,
    # whose S uses P again from outside that cycle
    text = "".join(
        f"(equivalent {name} {body})\n"
        for name, body in [("X", "(and P R)"), ("P", "(some r Q)"), ("Q", "(some r P)"),
                           ("R", "(some r S)"), ("S", "(some r P)")]
    )
    onto = parse_ontology(text)
    defs = _pure_definition_heads(onto)
    check_definitions(onto, defs)
    assert sorted(defs) == ["R", "S", "X"]


@DETERMINISTIC
@given(text=equivalence_tboxes(), data=st.data())
def test_equivalence_heavy_tboxes_are_renaming_invariant(text, data):
    n = len(parse_ontology(text).classes)
    assert_renaming_invariant(text, data.draw(st.permutations(range(n))))


@DETERMINISTIC
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_random_tboxes_are_renaming_invariant(seed, data):
    text = random_ontology_text(np.random.default_rng(seed))
    n = len(parse_ontology(text).classes)
    assert_renaming_invariant(text, data.draw(st.permutations(range(n))))


def test_corpus_definitions_pass_the_independent_check():
    # seed 0 is the default corpus; in its ont0120, C6 heads one equivalence
    # and lies on a cycle with C2, which also uses itself
    for inst in generate_corpus(CorpusSpec(count=150, seed=0)):
        onto = parse_ontology(inst.text)
        check_definitions(onto, _pure_definition_heads(onto))
        if inst.ontology_id == "ont0120":
            assert_renaming_invariant(inst.text, list(range(len(onto.classes)))[::-1])


# A chain of atomic equivalences whose head has two, so each link demotes
# the next; and one cycle of definitions through an existential.
N = 20_000
CHAIN = "(equivalent A0 X)\n" + "".join(f"(equivalent A{i} A{i + 1})\n" for i in range(N))
CYCLE = "".join(f"(equivalent A{i} (some R A{(i + 1) % N}))\n" for i in range(N))


@pytest.mark.parametrize("text, equivalences", [(CHAIN, N + 1), (CYCLE, N)], ids=["chain", "cycle"])
def test_the_decision_walks_each_body_at_most_once(monkeypatch, text, equivalences):
    calls = []

    def counting(c):
        calls.append(c)
        assert len(calls) <= equivalences, "a body walked twice"
        return walk(c)

    onto = parse_ontology(text)
    monkeypatch.setattr(dag, "walk", counting)
    with _default_recursion_limit():
        d = encode_dag(onto)
    assert d.definitions == {}
    assert len(calls) <= equivalences
    assert profile_features(onto, d)["numGCIs"] == (0 if text is CHAIN else N)
