"""Concept expressions, axioms and ontologies for the ALC description logic.

Concept grammar:

    C, D ::= *top* | *bottom* | A            (A an atomic class name)
           | (not C)
           | (and C1 ... Cn)                  n >= 2, stored flattened
           | (or  C1 ... Cn)                  n >= 2, stored flattened
           | (some r C) | (all r C)           r a role name

All concept nodes are immutable, so one node can be shared by many
expressions.  Concepts, axioms and ontologies compare and hash by
identity: two separately built trees are different objects whatever they
spell.  Nothing in the reasoner compares trees (the DAG encoder
hash-conses on vertex keys instead), and the tests compare them with a
structural helper of their own.  ``walk`` visits a tree on an explicit
stack, so it works at any depth; only ``repr`` recurses.
"""

from __future__ import annotations

import functools
import gc
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Union

NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")


# ---------------------------------------------------------------------------
# concept nodes


class Concept:
    """Base class for concept expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class Top(Concept):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Bottom(Concept):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Atomic(Concept):
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class Not(Concept):
    child: Concept


@dataclass(frozen=True, slots=True, eq=False)
class And(Concept):
    children: tuple[Concept, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("conjunction needs at least two children")


@dataclass(frozen=True, slots=True, eq=False)
class Or(Concept):
    children: tuple[Concept, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("disjunction needs at least two children")


@dataclass(frozen=True, slots=True, eq=False)
class Some(Concept):
    role: str
    child: Concept


@dataclass(frozen=True, slots=True, eq=False)
class All(Concept):
    role: str
    child: Concept


TOP = Top()
BOTTOM = Bottom()


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True, slots=True, eq=False)
class Subsumption:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True, slots=True, eq=False)
class Equivalence:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True, slots=True, eq=False)
class Disjointness:
    lhs: Concept
    rhs: Concept


TboxAxiom = Union[Subsumption, Equivalence, Disjointness]


@dataclass(frozen=True, slots=True, eq=False)
class RoleInclusion:
    sub: str
    sup: str


@dataclass(frozen=True, slots=True, eq=False)
class Transitivity:
    role: str


RboxAxiom = Union[RoleInclusion, Transitivity]


@dataclass(frozen=True, slots=True, eq=False)
class ConceptAssertion:
    individual: str
    concept: Concept


@dataclass(frozen=True, slots=True, eq=False)
class RoleAssertion:
    subject: str
    object: str
    role: str


AboxAxiom = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True, eq=False)
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


def gc_paused(fn):
    """``fn`` run with the cyclic garbage collector paused, for builders of
    acyclic objects (the parser, the DAG encoder), which reference counting
    frees alone.  The collector's prior state is restored on return or error."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused
