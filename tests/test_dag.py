"""Hash-consed DAG encoding with negation on edges."""

from conftest import BASIC_TEXT, concept_frequency, unparse_concept
from modelsearch import concepts_equivalent
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.concepts import All, And, Atomic, Not, Or, Some, Top
from ordsel.dag import (
    AND,
    ALL,
    ATOM,
    TOP_OP,
    encode_dag,
    nondeterministic_vertices,
)
from ordsel.krss import parse_ontology


def dump(d) -> str:
    """Stable one-line-per-vertex table of a DAG for golden tests.

    Format: ``id op [signed-child-ids] size depth freq nondet`` with ``~``
    marking negated edges.
    """
    lines = []
    for i, v in enumerate(d.vertices):
        op = v.op if v.op != ALL else f"all:{v.role}"
        if v.op == ATOM:
            op = f"atom:{v.name}"
        kids = " ".join(("~" if r & 1 else "") + str(r >> 1) for r in v.children)
        s = v.stats
        lines.append(
            f"{i} {op} [{kids}] {s.size} {s.depth} {s.frequency} {1 if v.nondeterministic else 0}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


BASIC_DUMP = """\
0 atom:C [] 1 0 3 0
1 atom:D [] 1 0 2 0
2 atom:F [] 1 0 1 0
3 atom:A [] 1 0 1 0
4 all:R [~1] 3 1 1 0
5 and [~0 ~1] 5 0 1 1
"""


def test_worked_example_dump_is_stable():
    d = encode_dag(parse_ontology(BASIC_TEXT))
    assert dump(d) == BASIC_DUMP


def test_atom_frequencies_match_per_name_oracle():
    # one counting pass over the ontology equals a full traversal per name
    for inst in generate_corpus(CorpusSpec(count=12, seed=5)):
        onto = parse_ontology(inst.text + "(instance x (and C0 (or C1 *top*)))\n")
        d = encode_dag(onto)
        assert d.atom_ids
        for name, vid in d.atom_ids.items():
            assert d.vertices[vid].stats.frequency == concept_frequency(name, onto), name


def test_top_id_is_the_top_vertex():
    assert encode_dag(parse_ontology(BASIC_TEXT)).top_id is None
    d = encode_dag(parse_ontology("(implies A (or B *bottom*))\n(implies *top* C)"))
    assert d.vertices[d.top_id].op == TOP_OP
    assert [i for i, v in enumerate(d.vertices) if v.op == TOP_OP] == [d.top_id]


def test_disjunction_is_negated_conjunction():
    # or(C, D) lives as a negated reference to and(~C, ~D)
    d = encode_dag(parse_ontology("(implies A (or C D))"))
    (ref,) = d.told["A"]
    assert ref & 1 == 1
    v = d.vertices[ref >> 1]
    assert v.op == AND
    assert all(r & 1 for r in v.children)


def test_existential_is_negated_value_restriction():
    d = encode_dag(parse_ontology("(implies A (some R C))"))
    (ref,) = d.told["A"]
    assert ref & 1 == 1
    v = d.vertices[ref >> 1]
    assert v.op == ALL
    assert v.role == "R"
    (child,) = v.children
    assert child & 1 == 1


def test_hash_consing_shares_repeated_subexpressions():
    two_uses = encode_dag(parse_ontology("(implies A (or C D))\n(implies B (or C D))"))
    one_use = encode_dag(parse_ontology("(implies A (or C D))"))
    extra_atom = 1  # B
    assert len(two_uses.vertices) == len(one_use.vertices) + extra_atom
    (ra,) = two_uses.told["A"]
    (rb,) = two_uses.told["B"]
    assert ra == rb


def test_complement_shares_one_vertex():
    # some R Q and all R (not Q) reference the same vertex with opposite signs
    d = encode_dag(parse_ontology("(implies A (some R Q))\n(implies B (all R (not Q)))"))
    (ra,) = d.told["A"]
    (rb,) = d.told["B"]
    assert ra == rb ^ 1


def test_duplicate_children_collapse_and_singletons_elide():
    d = encode_dag(parse_ontology("(implies A (and C C))"))
    (ref,) = d.told["A"]
    assert d.vertices[ref >> 1].op == ATOM


def test_axiom_routing():
    d = encode_dag(parse_ontology(BASIC_TEXT))
    assert set(d.told) == {"C"}
    assert len(d.told["C"]) == 2
    assert set(d.definitions) == {"A"}
    assert d.gci_refs == ()

    internal = encode_dag(parse_ontology("(implies (or A B) C)"))
    assert len(internal.gci_refs) == 1
    assert internal.gci_constraint is not None


def test_definition_with_extra_constraint_is_not_pure():
    d = encode_dag(parse_ontology("(equivalent A (or B C))\n(implies A F)"))
    assert "A" not in d.definitions
    assert "A" in d.told
    assert len(d.gci_refs) == 1  # the contrapositive half (or B C) -> A


def test_duplicate_definitions_are_not_pure():
    d = encode_dag(parse_ontology("(equivalent A B)\n(equivalent A C)"))
    assert "A" not in d.definitions


def test_definitional_cycle_is_decomposed():
    d = encode_dag(parse_ontology("(equivalent A (some R B))\n(equivalent B (all R A))"))
    assert d.definitions == {}
    assert set(d.told) == {"A", "B"}
    assert len(d.gci_refs) == 2


def test_equivalence_blocked_by_partner_decomposition():
    # The second equivalence cannot define C2 (a subsumption constrains it),
    # so it decomposes into told pairs that in turn disqualify C1's
    # definition; treating C1 as pure anyway would hide the inconsistency.
    text = "(equivalent C1 (not C2))\n(implies C2 (and C2 C2))\n(equivalent C2 C1)\n"
    d = encode_dag(parse_ontology(text))
    assert d.definitions == {}
    assert "C1" in d.told and "C2" in d.told


def _decode(d, ref):
    """Concept a signed reference stands for, negations materialised."""
    v = d.vertices[ref >> 1]
    kids = [_decode(d, r) for r in v.children]
    if v.op == TOP_OP:
        out = Top()
    elif v.op == ATOM:
        out = Atomic(v.name)
    elif v.op == ALL:
        out = All(v.role, kids[0])
    else:
        out = And(tuple(kids))
    return Not(out) if ref & 1 else out


def test_decode_round_trips_up_to_equivalence():
    cases = [
        Or((Atomic("A"), Atomic("B"))),
        Some("R", And((Atomic("A"), Not(Atomic("B"))))),
        And((Atomic("A"), Or((Atomic("B"), Atomic("C"))))),
        Not(Some("R", Not(Atomic("A")))),
    ]
    for concept in cases:
        onto = parse_ontology(f"(instance x {unparse_concept(concept)})")
        d = encode_dag(onto)
        (ref,) = d.assertion_refs
        assert concepts_equivalent(_decode(d, ref), concept)


def test_nondeterministic_vertices_are_disjunctions_only():
    d = encode_dag(parse_ontology(BASIC_TEXT))
    assert nondeterministic_vertices(d) == [5]
    # a purely conjunctive ontology has none
    d2 = encode_dag(parse_ontology("(implies A (and B C))"))
    assert nondeterministic_vertices(d2) == []


def test_signed_child_stats_flip_with_edge_sign():
    texts = ["(implies A (or (some R B) C))"]
    texts += [inst.text for inst in generate_corpus(CorpusSpec(count=12, seed=5))]
    for text in texts:
        d = encode_dag(parse_ontology(text))
        for v in d.vertices:
            assert len(v.child_stats) == len(v.children)
            for r, stats in zip(v.children, v.child_stats):
                raw = d.vertices[r >> 1].stats
                assert stats.size == raw.size + (r & 1)
                assert (stats.depth, stats.frequency) == (raw.depth, raw.frequency)
                # a negated edge into a value restriction reads as an existential
                assert stats.generating == (
                    r & 1 == 1 and d.vertices[r >> 1].op == ALL
                )
