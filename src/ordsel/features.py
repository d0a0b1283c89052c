"""Fixed 39-feature summary of an ontology and its DAG encoding.

Features 1-14 are global ontology metrics, 15-24 describe the
nondeterministic DAG vertices (child statistics use the same signed-child
convention as the ordering heuristics), 25-39 are cheap syntactic and
structural counts.  The order and names below are frozen: they define the
CSV schema and the meaning of model coefficients, so new features must be
appended, never inserted.

Ratios are defined as 0 whenever their denominator is empty, so an empty
ontology maps to the all-zero vector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .concepts import (
    All,
    And,
    ConceptAssertion,
    Disjointness,
    Equivalence,
    Not,
    Ontology,
    Or,
    Some,
    Subsumption,
    walk,
)
from .dag import Dag, nondeterministic_vertices
from .runtimes import read_csv, write_csv

FEATURE_NAMES: tuple[str, ...] = (
    "numNominals",
    "numInstances",
    "numClasses",
    "avgPopulation",
    "numGCIs",
    "numGeneratingRules",
    "tboxRatio",
    "rboxRatio",
    "aboxRatio",
    "numObjectProperties",
    "numInverseObjectProperties",
    "numSubclassAxioms",
    "numEquivalentClassAxioms",
    "numDisjointClassAxioms",
    "numNondetVertices",
    "avgOfAvgChildSize",
    "avgOfAvgChildDepth",
    "avgOfAvgChildFrequency",
    "maxChildrenPerVertex",
    "avgChildrenPerVertex",
    "numPositiveChildOccurrences",
    "numNegativeChildOccurrences",
    "positiveChildRatio",
    "negativeChildRatio",
    "totalAxioms",
    "numConjunctions",
    "numDisjunctions",
    "numExistentials",
    "numUniversals",
    "numNegations",
    "maxConceptSize",
    "avgConceptSize",
    "maxConceptDepth",
    "avgConceptDepth",
    "totalDagVertices",
    "nondetVertexRatio",
    "maxChildFrequency",
    "avgDisjunctsPerNondetVertex",
    "sourceSizeBytes",
)

N_FEATURES = len(FEATURE_NAMES)
assert N_FEATURES == 39

FEATURE_HEADER = ["id", *FEATURE_NAMES]


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} features, got {len(self.values)}")

    def __getitem__(self, name: str) -> float:
        return self.values[FEATURE_NAMES.index(name)]


def profile_features(onto: Ontology, d: Dag) -> dict[str, float]:
    """The two features `heuristics.default_config` reads, by name, without
    the cost of the other 37."""
    return {
        "numInstances": float(sum(1 for ax in onto.abox if isinstance(ax, ConceptAssertion))),
        "numGCIs": float(len(d.gci_refs)),
    }


def extract_features(onto: Ontology, d: Dag) -> FeatureVector:
    f = profile_features(onto, d)

    num_classes = len(onto.classes)
    n_tbox, n_rbox, n_abox = len(onto.tbox), len(onto.rbox), len(onto.abox)
    total_axioms = n_tbox + n_rbox + n_abox

    f["numNominals"] = 0.0  # nominals are outside the supported logic
    f["numClasses"] = float(num_classes)
    f["avgPopulation"] = f["numInstances"] / max(num_classes, 1)

    ops: Counter[type] = Counter()  # raw operator counts, by node type
    generating = 0  # existentials of the negation normal form
    sizes: list[int] = []
    depths: list[int] = []
    for expr in onto.concept_expressions():
        size = depth = 0
        for node, negated, nesting in walk(expr):
            kind = type(node)
            ops[kind] += 1
            generating += kind is (All if negated else Some)
            size += 1
            depth = max(depth, nesting)
        sizes.append(size)
        depths.append(depth)

    f["numGeneratingRules"] = float(generating)
    f["tboxRatio"] = n_tbox / total_axioms if total_axioms else 0.0
    f["rboxRatio"] = n_rbox / total_axioms if total_axioms else 0.0
    f["aboxRatio"] = n_abox / total_axioms if total_axioms else 0.0
    f["numObjectProperties"] = float(len(onto.roles))
    f["numInverseObjectProperties"] = 0.0  # no inverse roles in this logic
    f["numSubclassAxioms"] = float(sum(1 for ax in onto.tbox if isinstance(ax, Subsumption)))
    f["numEquivalentClassAxioms"] = float(sum(1 for ax in onto.tbox if isinstance(ax, Equivalence)))
    f["numDisjointClassAxioms"] = float(sum(1 for ax in onto.tbox if isinstance(ax, Disjointness)))

    nondet = nondeterministic_vertices(d)
    child_sizes_avg: list[float] = []
    child_depths_avg: list[float] = []
    child_freqs_avg: list[float] = []
    child_counts: list[int] = []
    neg_occ = 0
    max_child_freq = 0.0
    for vid in nondet:
        v = d.vertices[vid]
        stats = v.child_stats
        child_sizes_avg.append(sum(s.size for s in stats) / len(stats))
        child_depths_avg.append(sum(s.depth for s in stats) / len(stats))
        child_freqs_avg.append(sum(s.frequency for s in stats) / len(stats))
        child_counts.append(len(v.children))
        neg_occ += sum([r & 1 for r in v.children])
        max_child_freq = max(max_child_freq, max(s.frequency for s in stats))

    n_nondet = len(nondet)
    pos_occ = sum(child_counts) - neg_occ
    f["numNondetVertices"] = float(n_nondet)
    f["avgOfAvgChildSize"] = sum(child_sizes_avg) / n_nondet if n_nondet else 0.0
    f["avgOfAvgChildDepth"] = sum(child_depths_avg) / n_nondet if n_nondet else 0.0
    f["avgOfAvgChildFrequency"] = sum(child_freqs_avg) / n_nondet if n_nondet else 0.0
    f["maxChildrenPerVertex"] = float(max(child_counts)) if child_counts else 0.0
    f["avgChildrenPerVertex"] = sum(child_counts) / n_nondet if n_nondet else 0.0
    f["numPositiveChildOccurrences"] = float(pos_occ)
    f["numNegativeChildOccurrences"] = float(neg_occ)
    occ = pos_occ + neg_occ
    f["positiveChildRatio"] = pos_occ / occ if occ else 0.0
    f["negativeChildRatio"] = neg_occ / occ if occ else 0.0

    f["totalAxioms"] = float(total_axioms)
    f["numConjunctions"] = float(ops[And])
    f["numDisjunctions"] = float(ops[Or])
    f["numExistentials"] = float(ops[Some])
    f["numUniversals"] = float(ops[All])
    f["numNegations"] = float(ops[Not])
    f["maxConceptSize"] = float(max(sizes)) if sizes else 0.0
    f["avgConceptSize"] = sum(sizes) / len(sizes) if sizes else 0.0
    f["maxConceptDepth"] = float(max(depths)) if depths else 0.0
    f["avgConceptDepth"] = sum(depths) / len(depths) if depths else 0.0
    f["totalDagVertices"] = float(len(d.vertices))
    f["nondetVertexRatio"] = n_nondet / len(d.vertices) if d.vertices else 0.0
    f["maxChildFrequency"] = float(max_child_freq)
    f["avgDisjunctsPerNondetVertex"] = sum(child_counts) / n_nondet if n_nondet else 0.0
    f["sourceSizeBytes"] = float(onto.source_size)

    return FeatureVector(tuple(f[name] for name in FEATURE_NAMES))


def write_feature_csv(rows: list[tuple[str, FeatureVector]], path: str) -> None:
    """Feature table as CSV; float repr keeps the round trip bit-exact."""
    write_csv(path, FEATURE_HEADER, ([oid, *map(repr, fv.values)] for oid, fv in rows))


def read_feature_csv(path: str) -> list[tuple[str, FeatureVector]]:
    seen: set[str] = set()

    def parse(row: list[str]) -> tuple[str, FeatureVector]:
        if len(row) != 1 + N_FEATURES:
            raise ValueError(f"expected {1 + N_FEATURES} fields, got {len(row)}")
        if row[0] in seen:
            raise ValueError(f"duplicate id {row[0]!r}")
        seen.add(row[0])
        values = tuple(float(x) for x in row[1:])
        if not all(math.isfinite(v) for v in values):
            raise ValueError("feature values must be finite")
        return row[0], FeatureVector(values)

    return read_csv(path, FEATURE_HEADER, parse)
