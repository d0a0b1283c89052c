"""Differential tests of the one-pass encoder against `dag_oracle`, the
recursive encoder it replaced: every field of the two `Dag`s agrees (the
oracle still gives every vertex its own stats and child stats, which the
encoder keeps only as the child stats of an ``and`` vertex), the vertex
and stats types keep their field names and keyword construction,
and an axiom nested far deeper than the recursion limit parses and encodes
under it."""

import dataclasses

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dag_oracle
from conftest import random_ontology_text
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.dag import AND, ConceptStats, DagVertex, encode_dag
from ordsel.krss import parse_ontology
from test_cli import _nested_text
from test_tableau import _default_recursion_limit

DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=200, phases=(Phase.generate,)
)

# Axioms mixed into random TBoxes: general concept inclusions, definitions
# (pure, and impure through a second axiom on the name), disjointness,
# *top* and *bottom*, and an ABox assertion.
EXTRA_AXIOMS = [
    "(implies (and C0 (some R0 C1)) (or C1 *bottom*))",
    "(implies (all R0 *top*) C0)",
    "(equivalent D0 (and C0 (or C1 (not C0))))",
    "(equivalent D1 (some R0 D0))",
    "(implies D1 C1)",
    "(equivalent (or C0 C1) (and C1 *top*))",
    "(disjoint (some R0 C1) C0)",
    "(implies *top* (or C0 (not C1)))",
    "(instance a (and C0 (all R0 (or C1 *bottom*))))",
]


def _pack(ref):
    return None if ref is None else 2 * ref[0] + ref[1]


def _packed(d: dag_oracle.Dag) -> dict:
    """The oracle's fields with each `(vertex_id, negated)` pair packed into
    `2 * vertex_id + negated`, each definition's 1-tuple unwrapped to its
    body, each vertex's own stats dropped and the child stats of a vertex
    other than an ``and`` emptied, as `ordsel.dag` writes them.  `astuple`
    turns the dataclass vertices, edges and stats into the plain tuples
    that the encoder's named tuples equal."""
    vertices = []
    for v in d.vertices:
        op, role, name, children, _, child_stats, nondeterministic = dataclasses.astuple(v)
        children = tuple(_pack(e) for e in children)
        child_stats = child_stats if op == AND else ()
        vertices.append((op, role, name, children, child_stats, nondeterministic))
    return {
        "vertices": tuple(vertices),
        "atom_ids": d.atom_ids,
        "definitions": {k: _pack(body) for k, (body,) in d.definitions.items()},
        "told": {k: tuple(map(_pack, refs)) for k, refs in d.told.items()},
        "gci_refs": tuple(map(_pack, d.gci_refs)),
        "gci_constraint": _pack(d.gci_constraint),
        "assertion_refs": tuple(map(_pack, d.assertion_refs)),
        "top_id": d.top_id,
    }


def assert_same_dag(onto):
    got, want = encode_dag(onto), dag_oracle.encode_dag(onto)
    packed = _packed(want)
    assert list(packed) == [f.name for f in dataclasses.fields(want)]
    assert list(packed) == [f.name for f in dataclasses.fields(got)]
    for name, value in packed.items():
        assert getattr(got, name) == value, name
    assert list(got.atom_ids) == list(want.atom_ids)


def test_reference_corpus_encodes_as_the_oracle_encodes():
    for inst in generate_corpus(CorpusSpec(count=40, seed=7)):
        assert_same_dag(parse_ontology(inst.text))


@DETERMINISTIC
@given(st.integers(0, 2**32 - 1))
def test_random_tboxes_encode_as_the_oracle_encodes(seed):
    rng = np.random.default_rng(seed)
    lines = random_ontology_text(rng).splitlines()
    for _ in range(int(rng.integers(0, 5))):
        lines.insert(int(rng.integers(len(lines) + 1)), EXTRA_AXIOMS[int(rng.integers(len(EXTRA_AXIOMS)))])
    assert_same_dag(parse_ontology("\n".join(lines)))


def test_vertex_types_keep_fields_and_keywords():
    stats = ConceptStats(size=3, depth=1, frequency=2, generating=True)
    vertex = DagVertex(
        op="and", role=None, name=None, children=(9, 4), child_stats=(stats, stats),
        nondeterministic=True,
    )
    assert (stats.size, stats.depth, stats.frequency, stats.generating) == (3, 1, 2, True)
    assert (vertex.op, vertex.role, vertex.name, vertex.children) == ("and", None, None, (9, 4))
    assert (vertex.child_stats, vertex.nondeterministic) == ((stats, stats), True)


def test_deep_nesting_encodes_without_recursion():
    with _default_recursion_limit():
        d = encode_dag(parse_ontology(_nested_text(5_000, ("implies A", "equivalent E"))))
    # the definition of E is the deep concept, encoded once for both axioms
    assert (d.definitions["E"],) == d.told["A"]
    # `some` and `all` open 2,000 of the 4,999 levels below the axiom's own;
    # the first `and`, under `(some R (not ...`, sees 1,999 in its second child
    root = d.vertices[d.told["A"][0] >> 1]
    first_and = d.vertices[root.children[0] >> 1]
    assert first_and.op == AND
    assert first_and.child_stats[1].depth == 1_999
