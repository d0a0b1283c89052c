"""Differential tests of the one-pass encoder against `dag_oracle`, the
recursive encoder it replaced: every field of the two `Dag`s agrees, the
vertex, edge and stats types keep their field names and keyword
construction, and an axiom nested `MAX_NESTING` deep parses and encodes
under a recursion limit far below that depth."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dag_oracle
from conftest import random_ontology_text
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.concepts import ConceptStats
from ordsel.dag import DagEdge, DagVertex, encode_dag
from ordsel.krss import MAX_NESTING, parse_ontology

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


def assert_same_dag(onto):
    got, want = encode_dag(onto), dag_oracle.encode_dag(onto)
    # a named tuple equals the plain tuple of its fields
    assert got.vertices == tuple(dataclasses.astuple(v) for v in want.vertices)
    for field in dataclasses.fields(want):
        if field.name != "vertices":
            assert getattr(got, field.name) == getattr(want, field.name), field.name
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
    edge = DagEdge(target=4, negated=True)
    vertex = DagVertex(
        op="all", role="R", name=None, children=(edge,), stats=stats,
        child_stats=(stats,), nondeterministic=False,
    )
    assert (stats.size, stats.depth, stats.frequency, stats.generating) == (3, 1, 2, True)
    assert (edge.target, edge.negated) == (4, True)
    assert (vertex.op, vertex.role, vertex.name, vertex.children) == ("all", "R", None, (edge,))
    assert (vertex.stats, vertex.child_stats, vertex.nondeterministic) == (stats, (stats,), False)


def test_nesting_at_the_bound_needs_no_recursion():
    # Concept hashing and equality still recurse, so the check runs in a
    # fresh interpreter where nothing but parsing and encoding touches the
    # deep concept.
    script = textwrap.dedent(
        f"""
        import sys
        from ordsel.dag import encode_dag
        from ordsel.krss import parse_ontology

        ops = ["(some R ", "(not ", "(and C ", "(all S ", "(or D "]
        inner = "".join(ops[i % 5] for i in range({MAX_NESTING} - 1)) + "B" + ")" * ({MAX_NESTING} - 1)
        text = "(implies A " + inner + ")\\n(equivalent E " + inner + ")\\n"
        sys.setrecursionlimit(100)
        d = encode_dag(parse_ontology(text))
        print(d.vertices[-1].stats.size)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > MAX_NESTING
