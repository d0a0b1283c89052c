"""Hash-consed DAG encoding with negation on edges."""

from conftest import BASIC_TEXT, concept_frequency, unparse_concept
from modelsearch import concepts_equivalent
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.concepts import (
    All,
    And,
    Atomic,
    ConceptAssertion,
    Disjointness,
    Equivalence,
    Not,
    Ontology,
    Or,
    Some,
    Subsumption,
    Top,
)
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

    Format: ``id op [signed-child-ids] nondet`` with ``~`` marking negated
    edges, then, for an ``and`` vertex, ``size/depth/freq`` of each signed
    child, suffixed ``g`` when the child is generating.
    """
    lines = []
    for i, v in enumerate(d.vertices):
        op = v.op if v.op != ALL else f"all:{v.role}"
        if v.op == ATOM:
            op = f"atom:{v.name}"
        kids = " ".join(("~" if r & 1 else "") + str(r >> 1) for r in v.children)
        stats = "".join(
            f" {s.size}/{s.depth}/{s.frequency}{'g' if s.generating else ''}" for s in v.child_stats
        )
        lines.append(f"{i} {op} [{kids}] {1 if v.nondeterministic else 0}{stats}")
    return "\n".join(lines) + ("\n" if lines else "")


BASIC_DUMP = """\
0 atom:C [] 0
1 atom:D [] 0
2 atom:F [] 0
3 atom:A [] 0
4 all:R [~1] 0
5 and [~0 ~1] 1 2/0/3 2/0/2
"""

# or(all R B, C) is ~and(~all(R, B), ~C): the negated value restriction is
# an existential, so that child is generating; the conjunction's copy of
# the same value restriction is not.
SIGNED_TEXT = "(implies A (or (all R (and B E)) C))\n(implies D (and (all R (and B E)) C))\n"

SIGNED_DUMP = """\
0 atom:A [] 0
1 atom:B [] 0
2 atom:E [] 0
3 atom:C [] 0
4 atom:D [] 0
5 and [1 2] 0 1/0/2 1/0/2
6 all:R [5] 0
7 and [~6 ~3] 1 5/1/2g 2/0/2
8 and [6 3] 0 4/1/2 1/0/2
"""


def test_worked_example_dump_is_stable():
    d = encode_dag(parse_ontology(BASIC_TEXT))
    assert dump(d) == BASIC_DUMP
    assert dump(encode_dag(parse_ontology(SIGNED_TEXT))) == SIGNED_DUMP


def test_atom_frequencies_match_per_name_oracle():
    # one counting pass over the ontology equals a full traversal per name,
    # as the conjunctions that reference each atom record it
    for inst in generate_corpus(CorpusSpec(count=12, seed=5)):
        onto = parse_ontology(inst.text + "(instance x (and C0 (or C1 *top*)))\n")
        d = encode_dag(onto)
        names = {vid: name for name, vid in d.atom_ids.items()}
        seen = set()
        for v in d.vertices:
            for r, stats in zip(v.children, v.child_stats):
                if r >> 1 in names:
                    assert stats.frequency == concept_frequency(names[r >> 1], onto), names[r >> 1]
                    seen.add(r >> 1)
        assert {d.atom_ids["C0"], d.atom_ids["C1"]} <= seen


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


def test_shared_objects_encode_as_fresh_copies_do():
    # One subtree object used at every place, against a fresh copy at each:
    # the encoder looks nothing up by object, so hash-consing alone gives
    # both the same vertices.
    def fresh():
        return Or((Atomic("A"), Some("R", And((Atomic("B"), Not(Atomic("C")))))))

    def ontology(part):
        return Ontology(
            tbox=(
                Subsumption(Atomic("X"), part()),
                Equivalence(Atomic("Y"), And((part(), Atomic("D")))),
                Subsumption(Some("R", part()), All("S", part())),
                Disjointness(Atomic("Z"), part()),
            ),
            abox=(ConceptAssertion("a", part()),),
            classes=("X", "A", "B", "C", "Y", "D", "Z"),
            roles=("R", "S"),
        )

    one = fresh()
    shared, copied = encode_dag(ontology(lambda: one)), encode_dag(ontology(fresh))
    for field in ("vertices", "told", "definitions", "gci_constraint", "assertion_refs"):
        assert getattr(shared, field) == getattr(copied, field), field
    (ref,) = shared.told["X"]
    assert shared.assertion_refs == (ref,) and shared.told["Z"] == (ref ^ 1,)


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
    texts = [SIGNED_TEXT]
    texts += [inst.text for inst in generate_corpus(CorpusSpec(count=12, seed=5))]
    flipped = 0
    for text in texts:
        d = encode_dag(parse_ontology(text))
        signs: dict[int, dict[int, tuple]] = {}  # vertex -> sign -> stats
        for v in d.vertices:
            if v.op != AND:
                # only the conjunctions' children are ever sorted
                assert v.child_stats == ()
                continue
            assert len(v.child_stats) == len(v.children)
            for r, stats in zip(v.children, v.child_stats):
                # a negated edge into a value restriction reads as an existential
                assert stats.generating == (r & 1 == 1 and d.vertices[r >> 1].op == ALL)
                signs.setdefault(r >> 1, {})[r & 1] = stats
        for both in signs.values():
            if len(both) == 2:
                # a negation adds one node and changes neither depth nor frequency
                assert both[1].size == both[0].size + 1
                assert both[1][1:3] == both[0][1:3]
                flipped += 1
    assert flipped
