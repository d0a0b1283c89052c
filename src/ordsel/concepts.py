"""Concept expressions, axioms and ontologies for the ALC description logic.

Concept grammar:

    C, D ::= *top* | *bottom* | A            (A an atomic class name)
           | (not C)
           | (and C1 ... Cn)                  n >= 2, stored flattened
           | (or  C1 ... Cn)                  n >= 2, stored flattened
           | (some r C) | (all r C)           r a role name

All concept nodes are immutable and hashable so they can be shared and
used as dictionary keys.  ``conj``/``disj`` are the preferred constructors
for programmatic building: they flatten nested operators of the same kind
and collapse trivial arities instead of violating the n >= 2 invariant.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")


# ---------------------------------------------------------------------------
# concept nodes


class Concept:
    """Base class for concept expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Top(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Atomic(Concept):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Concept):
    child: Concept


@dataclass(frozen=True, slots=True)
class And(Concept):
    children: tuple[Concept, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("conjunction needs at least two children")


@dataclass(frozen=True, slots=True)
class Or(Concept):
    children: tuple[Concept, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("disjunction needs at least two children")


@dataclass(frozen=True, slots=True)
class Some(Concept):
    role: str
    child: Concept


@dataclass(frozen=True, slots=True)
class All(Concept):
    role: str
    child: Concept


TOP = Top()
BOTTOM = Bottom()


def conj(children: Iterable[Concept]) -> Concept:
    """Conjunction constructor: flattens nested ands, preserves order.

    Zero children yield *top*, a single child is returned as-is.
    """
    flat: list[Concept] = []
    for c in children:
        if isinstance(c, And):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(children: Iterable[Concept]) -> Concept:
    """Disjunction constructor: flattens nested ors, preserves order."""
    flat: list[Concept] = []
    for c in children:
        if isinstance(c, Or):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return BOTTOM
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True, slots=True)
class Subsumption:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True, slots=True)
class Equivalence:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True, slots=True)
class Disjointness:
    lhs: Concept
    rhs: Concept


TboxAxiom = Union[Subsumption, Equivalence, Disjointness]


@dataclass(frozen=True, slots=True)
class RoleInclusion:
    sub: str
    sup: str


@dataclass(frozen=True, slots=True)
class Transitivity:
    role: str


RboxAxiom = Union[RoleInclusion, Transitivity]


@dataclass(frozen=True, slots=True)
class ConceptAssertion:
    individual: str
    concept: Concept


@dataclass(frozen=True, slots=True)
class RoleAssertion:
    subject: str
    object: str
    role: str


AboxAxiom = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class Ontology:
    """A parsed ontology: axiom lists in source order plus declarations.

    Declarations are kept in first-mention order so that downstream
    iteration (satisfiability sweeps, feature extraction) is reproducible
    from the source text alone.  ``source_size`` is the byte length of the
    text the ontology was parsed from; ontologies built programmatically
    carry 0 unless the builder sets it.
    """

    tbox: tuple[TboxAxiom, ...] = ()
    rbox: tuple[RboxAxiom, ...] = ()
    abox: tuple[AboxAxiom, ...] = ()
    classes: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    individuals: tuple[str, ...] = ()
    source_size: int = 0

    def concept_expressions(self) -> Iterator[Concept]:
        """Every concept expression: both TBox sides, ABox assertions."""
        for ax in self.tbox:
            yield ax.lhs
            yield ax.rhs
        for ax in self.abox:
            if isinstance(ax, ConceptAssertion):
                yield ax.concept


# ---------------------------------------------------------------------------
# structural operations


def walk(c: Concept) -> Iterator[tuple[Concept, bool, int]]:
    """Every node of ``c`` in pre-order, without recursion.

    Yields ``(node, negated, depth)``: ``negated`` is True when an odd
    number of ``not`` lie above the node, ``depth`` counts the quantifiers
    (some/all) above it.  The node count is the concept's size, the
    largest depth its quantifier nesting, and a node stays an existential
    in negation normal form exactly when it is a ``some`` not negated or an
    ``all`` negated.
    """
    stack = [(c, False, 0)]
    while stack:
        item = node, negated, depth = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend((x, negated, depth) for x in reversed(node.children))
        elif isinstance(node, Not):
            stack.append((node.child, not negated, depth))
        elif isinstance(node, (Some, All)):
            stack.append((node.child, negated, depth + 1))
        elif not isinstance(node, (Atomic, Top, Bottom)):
            raise TypeError(f"not a concept: {node!r}")
        yield item


def atom_frequencies(onto: Ontology) -> Counter[str]:
    """Occurrences of every class name across all axiom expressions.

    Counted on the source axioms, before any normalisation, over both
    sides of every TBox axiom and the concepts of ABox assertions, in one
    pass.  A name that never occurs counts 0.
    """
    freq: Counter[str] = Counter()
    stack = list(onto.concept_expressions())
    while stack:
        c = stack.pop()
        if type(c) is Atomic:
            freq[c.name] += 1
        elif type(c) is And or type(c) is Or:
            stack.extend(c.children)
        elif type(c) is not Top and type(c) is not Bottom:
            stack.append(c.child)
    return freq


class ConceptStats(NamedTuple):
    """Size, quantifier depth, frequency and generating flag of a concept.

    For DAG vertices the generating flag marks vertices that act as an
    existential restriction when referenced through a negated edge.
    """

    size: int
    depth: int
    frequency: int
    generating: bool
