"""Differential tests of the one-pass reader against `krss_oracle`, the
recursive reader it replaced: on valid and on broken text both return an
equal `Ontology`, declarations in the same order, or raise the same
exception class with the same message, line and column."""

import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import krss_oracle
from conftest import random_ontology_text
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.krss import MAX_NESTING, ParseError, parse_ontology

# Each example is a seed of a numpy generator, so there is nothing to shrink.
DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=300, phases=(Phase.generate,)
)
SEEDS = st.integers(0, 2**32 - 1)

# RBox and ABox lines mixed into the TBoxes of `random_ontology_text`.
EXTRA_AXIOMS = [
    "(implies-role R0 S)",
    "(transitive R1)",
    "(instance bob (and C0 (some R0 C1)))",
    "(related bob alice R0)",
    "(instance alice *top*)",
    "(implies *bottom* (all S C2))",
]

# Tokens a broken text gains: parentheses, comments, every head of the
# format, heads outside ALC or unknown, valid names and bad ones.
NOISE = [
    "(", ")", "()", "(())", "; note\n", "\n", "*top*", "*bottom*",
    "not", "and", "or", "some", "all",
    "implies", "equivalent", "disjoint", "implies-role", "transitive", "instance", "related",
    "one-of", "at-least", "inverse", "domain", "frobnicate",
    "C0", "C9", "R0", "bob", "bad.name", "x*y", "*top", "é",
]


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), exc.message, exc.line, exc.column


def assert_same(text):
    got = outcome(parse_ontology, text)
    assert got == outcome(krss_oracle.parse_ontology, text), text
    return got


def valid_text(rng: np.random.Generator) -> str:
    lines = random_ontology_text(rng).splitlines()
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), EXTRA_AXIOMS[int(rng.integers(len(EXTRA_AXIOMS)))])
    return "\n".join(lines) + "\n"


def broken_text(rng: np.random.Generator) -> str:
    """A valid text with one to three token edits: a token dropped,
    inserted, replaced or a run of tokens doubled."""
    toks = re.findall(r"[()]|[^\s()]+|\n", valid_text(rng))
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(toks)))
        edit = int(rng.integers(4))
        if edit == 0 and len(toks) > 1:
            del toks[at]
        elif edit == 1:
            toks.insert(at, NOISE[int(rng.integers(len(NOISE)))])
        elif edit == 2:
            toks[at] = NOISE[int(rng.integers(len(NOISE)))]
        else:
            toks[at:at] = toks[at : at + int(rng.integers(1, 6))]
    return " ".join(toks)


@DETERMINISTIC
@given(SEEDS)
def test_valid_texts_parse_as_the_oracle_parses(seed):
    onto = assert_same(valid_text(np.random.default_rng(seed)))
    assert not isinstance(onto, tuple)


@DETERMINISTIC
@given(SEEDS)
def test_broken_texts_fail_as_the_oracle_fails(seed):
    assert_same(broken_text(np.random.default_rng(seed)))


def test_reference_corpus_parses_as_the_oracle_parses():
    for inst in generate_corpus(CorpusSpec(count=40, seed=7)):
        assert_same(inst.text)


def nested(depth: int, inner: str = "B") -> str:
    ops = ["(some R ", "(not ", "(and C ", "(all S ", "(or D "]
    return "".join(ops[i % len(ops)] for i in range(depth - 1)) + inner + ")" * (depth - 1)


@pytest.mark.parametrize(
    "text",
    [
        # bounds: an axiom at the limit, one past it, and past it after
        # an earlier error in the same axiom or a later axiom
        f"(implies A {nested(MAX_NESTING)})",
        f"(implies A {nested(MAX_NESTING + 1)})",
        f"(implies A\n {nested(MAX_NESTING - 1, '(frob x)')})",
        f"(implies A {nested(MAX_NESTING - 1, '(frob x)')})",
        f"(implies bad.name {nested(MAX_NESTING + 1)})",
        f"(implies bad.name B)\n(implies A {nested(MAX_NESTING + 1)})",
        f"(implies A {nested(MAX_NESTING)}\n(implies A B)",
        # unbalanced, stray and bare tokens
        "(implies A (and B C)",
        "(implies A (and B C)))",
        ")",
        "A",
        "(implies A B)\nA",
        "(implies bad.name B) )",
        # bad names, heads outside ALC, wrong arities, empty forms
        "(implies A (some (R) B))",
        "(implies A (some x*y B))",
        "(instance (a) B)\n",
        "(related a b (r))",
        "(implies A (at-least 2 R B))",
        "(at-most A B)",
        "(implies A (not B C) x.y)",
        "(implies A (and B) x.y)",
        "(implies A ())",
        "()",
        "((implies) A B)",
        "(implies ((and A B)) C)",
        "(implies A (*top* B))",
        "(implies one-of B)",
        "(transitive R S)\n(implies x.y B)",
    ],
)
def test_edge_cases_match_the_oracle(text):
    assert_same(text)
