"""Tests for the 39-dimensional ontology feature extractor."""

import math

import numpy as np

from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.dag import encode_dag
from ordsel.features import (
    FEATURE_NAMES,
    N_FEATURES,
    FeatureVector,
    extract_features,
    read_feature_csv,
    write_feature_csv,
)
from ordsel.krss import parse_ontology

from conftest import BASIC_TEXT, nnf, random_ontology_text, unparse_concept

# Hand-computed from BASIC_TEXT:
#   (implies C (some R D)) / (implies C F) / (equivalent A (or C D))
# DAG: 4 atoms, one all-vertex (stored form of the existential), one
# and-vertex (stored form of the disjunction, the only nondeterministic
# vertex, with negated edges to C and D).  Expression sides have sizes
# 1,2,1,1,1,3 (sum 9 over 6) and only the quantifier carries depth.
BASIC_EXPECTED = {
    "numNominals": 0.0,
    "numInstances": 0.0,
    "numClasses": 4.0,
    "avgPopulation": 0.0,
    "numGCIs": 0.0,
    "numGeneratingRules": 1.0,
    "tboxRatio": 1.0,
    "rboxRatio": 0.0,
    "aboxRatio": 0.0,
    "numObjectProperties": 1.0,
    "numInverseObjectProperties": 0.0,
    "numSubclassAxioms": 2.0,
    "numEquivalentClassAxioms": 1.0,
    "numDisjointClassAxioms": 0.0,
    "numNondetVertices": 1.0,
    "avgOfAvgChildSize": 2.0,
    "avgOfAvgChildDepth": 0.0,
    "avgOfAvgChildFrequency": 2.5,
    "maxChildrenPerVertex": 2.0,
    "avgChildrenPerVertex": 2.0,
    "numPositiveChildOccurrences": 0.0,
    "numNegativeChildOccurrences": 2.0,
    "positiveChildRatio": 0.0,
    "negativeChildRatio": 1.0,
    "totalAxioms": 3.0,
    "numConjunctions": 0.0,
    "numDisjunctions": 1.0,
    "numExistentials": 1.0,
    "numUniversals": 0.0,
    "numNegations": 0.0,
    "maxConceptSize": 3.0,
    "avgConceptSize": 1.5,
    "maxConceptDepth": 1.0,
    "avgConceptDepth": 1.0 / 6.0,
    "totalDagVertices": 6.0,
    "nondetVertexRatio": 1.0 / 6.0,
    "maxChildFrequency": 3.0,
    "avgDisjunctsPerNondetVertex": 2.0,
    "sourceSizeBytes": 61.0,
}


def test_feature_names_frozen():
    assert N_FEATURES == 39
    assert len(FEATURE_NAMES) == 39
    assert len(set(FEATURE_NAMES)) == 39
    assert isinstance(FEATURE_NAMES, tuple)
    assert FEATURE_NAMES[0] == "numNominals"
    assert FEATURE_NAMES[-1] == "sourceSizeBytes"
    assert set(BASIC_EXPECTED) == set(FEATURE_NAMES)


def test_basic_vector_values(basic_onto):
    fv = extract_features(basic_onto, encode_dag(basic_onto))
    got = dict(zip(FEATURE_NAMES, fv.values))
    assert set(got) == set(FEATURE_NAMES)
    for name in FEATURE_NAMES:
        assert math.isclose(got[name], BASIC_EXPECTED[name], rel_tol=0, abs_tol=1e-12), (
            name,
            got[name],
            BASIC_EXPECTED[name],
        )


def test_vector_order_matches_names(basic_onto):
    fv = extract_features(basic_onto, encode_dag(basic_onto))
    values = fv.values
    assert len(values) == 39
    for i, name in enumerate(FEATURE_NAMES):
        assert values[i] == fv[name]


def test_empty_ontology_all_zero():
    onto = parse_ontology("")
    fv = extract_features(onto, encode_dag(onto))
    for name in FEATURE_NAMES:
        assert fv[name] == 0.0, name


def test_generating_rules_counted_in_nnf():
    # (not (all R C)) is an existential once negation is pushed inward.
    onto = parse_ontology("(implies A (not (all R (not C))))\n")
    fv = extract_features(onto, encode_dag(onto))
    assert fv["numGeneratingRules"] == 1.0
    # The raw operator counts still see a universal, not an existential.
    assert fv["numUniversals"] == 1.0
    assert fv["numExistentials"] == 0.0


def test_syntactic_counts_match_text_and_nnf():
    # Operator counts are those of the printed source; generating rules are
    # the existentials left once negation normal form is built.
    rng = np.random.default_rng(11)
    texts = [random_ontology_text(rng) for _ in range(60)]
    texts += [inst.text for inst in generate_corpus(CorpusSpec(count=8, seed=5))]
    texts.append(
        "(instance x (not (and (all R (not C)) (or *top* (not *bottom*) (some R C)))))\n"
        "(implies (not (not (some R (not (all S C))))) (all R (not (some R *top*))))\n"
    )
    for text in texts:
        onto = parse_ontology(text)
        fv = extract_features(onto, encode_dag(onto))
        exprs = list(onto.concept_expressions())
        printed = " ".join(unparse_concept(e) for e in exprs)
        for name, op in (
            ("numConjunctions", "and"),
            ("numDisjunctions", "or"),
            ("numExistentials", "some"),
            ("numUniversals", "all"),
            ("numNegations", "not"),
        ):
            assert fv[name] == printed.count(f"({op} "), (name, text)
        normal = " ".join(unparse_concept(nnf(e)) for e in exprs)
        assert fv["numGeneratingRules"] == normal.count("(some "), text


def test_source_size_is_byte_length(basic_onto):
    fv = extract_features(basic_onto, encode_dag(basic_onto))
    assert fv["sourceSizeBytes"] == float(len(BASIC_TEXT.encode()))


def test_csv_round_trip(tmp_path, basic_onto):
    empty = parse_ontology("")
    rows = [
        ("basic", extract_features(basic_onto, encode_dag(basic_onto))),
        ("empty", extract_features(empty, encode_dag(empty))),
    ]
    path = str(tmp_path / "features.csv")
    write_feature_csv(rows, path)
    with open(path) as fh:
        text = fh.read()
    lines = text.strip().split("\n")
    assert lines[0] == "id," + ",".join(FEATURE_NAMES)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "basic"
    for name, cell in zip(FEATURE_NAMES, first[1:]):
        assert math.isclose(float(cell), BASIC_EXPECTED[name], abs_tol=1e-12), name
    second = lines[2].split(",")
    assert second[0] == "empty"
    assert all(float(c) == 0.0 for c in second[1:])
    assert read_feature_csv(path) == rows


def test_read_csv_rejects_bad_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("id,notAFeature\nx,1.0\n")
    try:
        read_feature_csv(path)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for bad header")


def test_vector_requires_exactly_39():
    try:
        FeatureVector((1.0, 2.0))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for short vector")
