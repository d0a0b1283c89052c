"""The DAG encoder as it was before it became one iterative pass, kept as
an oracle for `ordsel.dag.encode_dag`: a recursive `_Builder.encode`, a
separate parity walk and parent count, dataclass vertex types, and a
signed reference written as a `(vertex_id, negated)` pair.  The test packs
each pair into the encoder's `2 * vertex_id + negated` and compares every
field of its `Dag` with the new encoder's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ordsel.concepts import (
    All,
    And,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    Disjointness,
    Not,
    Ontology,
    Or,
    Some,
    Subsumption,
    Top,
    walk,
)
from ordsel.dag import ALL, AND, ATOM, TOP_OP, _pure_definition_heads

Ref = tuple[int, bool]


def flip(ref: Ref) -> Ref:
    return (ref[0], not ref[1])


@dataclass(frozen=True, slots=True)
class ConceptStats:
    size: int
    depth: int
    frequency: int
    generating: bool


@dataclass(frozen=True, slots=True)
class DagEdge:
    target: int
    negated: bool


@dataclass(frozen=True, slots=True)
class DagVertex:
    """One vertex of the DAG.

    ``child_stats`` holds the stats of the signed child each edge denotes,
    in child order.  A negated edge adds one node for the negation to the
    size and is generating exactly when its target is an ``all`` (a negated
    value restriction is an existential); a positive edge is never
    generating.  Depth and frequency are the target's.
    """

    op: str
    role: str | None
    name: str | None
    children: tuple[DagEdge, ...]
    stats: ConceptStats
    child_stats: tuple[ConceptStats, ...]
    nondeterministic: bool


@dataclass(frozen=True, eq=False)
class Dag:
    """Encoded ontology: vertex table plus the unfolding/constraint view.

    Compared and hashed by identity, so per-DAG caches can key on it.

    ``vertices`` is topologically ordered (children precede parents).
    ``top_id`` is the *top* vertex, None when the ontology never mentions
    *top* or *bottom*.
    """

    vertices: tuple[DagVertex, ...]
    atom_ids: dict[str, int]
    definitions: dict[str, tuple[Ref, ...]]
    told: dict[str, tuple[Ref, ...]]
    gci_refs: tuple[Ref, ...]
    gci_constraint: Ref | None
    assertion_refs: tuple[Ref, ...]
    top_id: int | None


class _Builder:
    def __init__(self):
        self.ops: list[tuple] = []  # (op, role, name, children)
        self.index: dict[tuple, int] = {}
        self.top: int | None = None

    def _vertex(self, op: str, role: str | None, name: str | None, children: tuple[DagEdge, ...]) -> int:
        key = (op, role, name, children)
        vid = self.index.get(key)
        if vid is None:
            for e in children:
                assert e.target < len(self.ops), "child created after parent"
            vid = len(self.ops)
            self.ops.append((op, role, name, children))
            self.index[key] = vid
        return vid

    def top_ref(self) -> Ref:
        if self.top is None:
            self.top = self._vertex(TOP_OP, None, None, ())
        return (self.top, False)

    def atom(self, name: str) -> int:
        return self._vertex(ATOM, None, name, ())

    def conj_ref(self, refs: list[Ref]) -> Ref:
        """And-vertex over already-encoded references, dedup + collapse."""
        edges: list[DagEdge] = []
        seen: set[Ref] = set()
        for r in refs:
            if r not in seen:
                seen.add(r)
                edges.append(DagEdge(r[0], r[1]))
        if len(edges) == 1:
            return (edges[0].target, edges[0].negated)
        return (self._vertex(AND, None, None, tuple(edges)), False)

    def encode(self, c: Concept) -> Ref:
        if isinstance(c, Top):
            ref = self.top_ref()
        elif isinstance(c, Bottom):
            ref = flip(self.top_ref())
        elif isinstance(c, Atomic):
            ref = (self.atom(c.name), False)
        elif isinstance(c, Not):
            ref = flip(self.encode(c.child))
        elif isinstance(c, And):
            ref = self.conj_ref([self.encode(x) for x in c.children])
        elif isinstance(c, Or):
            ref = flip(self.conj_ref([flip(self.encode(x)) for x in c.children]))
        elif isinstance(c, Some):
            child = flip(self.encode(c.child))
            ref = (self._vertex(ALL, c.role, None, (DagEdge(child[0], child[1]),)), True)
        elif isinstance(c, All):
            child = self.encode(c.child)
            ref = (self._vertex(ALL, c.role, None, (DagEdge(child[0], child[1]),)), False)
        else:
            raise TypeError(f"not a concept: {c!r}")
        return ref


def _signed(stats: ConceptStats, negated: bool) -> ConceptStats:
    """Stats of the child an edge with this sign denotes (see ``child_stats``)."""
    if not negated:
        return ConceptStats(stats.size, stats.depth, stats.frequency, False)
    return ConceptStats(stats.size + 1, stats.depth, stats.frequency, stats.generating)


def encode_dag(onto: Ontology) -> Dag:
    b = _Builder()
    for name in onto.classes:
        b.atom(name)

    pure = _pure_definition_heads(onto)
    definitions: dict[str, list[Ref]] = {}
    told: dict[str, list[Ref]] = {}
    residual: list[tuple[Concept, Concept]] = []

    def absorb(lhs: Concept, rhs: Concept) -> None:
        if isinstance(lhs, Atomic):
            told.setdefault(lhs.name, []).append(b.encode(rhs))
        else:
            residual.append((lhs, rhs))

    for ax in onto.tbox:
        if isinstance(ax, Subsumption):
            absorb(ax.lhs, ax.rhs)
        elif isinstance(ax, Disjointness):
            absorb(ax.lhs, Not(ax.rhs))
        else:
            lhs, rhs = ax.lhs, ax.rhs
            if not isinstance(lhs, Atomic) and isinstance(rhs, Atomic):
                lhs, rhs = rhs, lhs
            if isinstance(lhs, Atomic) and lhs.name in pure:
                definitions[lhs.name] = [b.encode(rhs)]
            else:
                absorb(lhs, rhs)
                absorb(rhs, lhs)

    gci_refs = [b.encode(Or((Not(lhs), rhs))) for lhs, rhs in residual]
    gci_constraint: Ref | None = None
    if len(gci_refs) == 1:
        gci_constraint = gci_refs[0]
    elif gci_refs:
        gci_constraint = b.conj_ref(list(gci_refs))

    assertion_refs = tuple(
        b.encode(ax.concept) for ax in onto.abox if isinstance(ax, ConceptAssertion)
    )

    n = len(b.ops)
    definition_refs = [r for refs in definitions.values() for r in refs]
    root_refs = [r for refs in told.values() for r in refs]
    if gci_constraint is not None:
        root_refs.append(gci_constraint)
    root_refs.extend(assertion_refs)

    # polarity propagation for the nondeterministic flag; definition bodies
    # unfold under both polarities
    parity_seen = [[False, False] for _ in range(n)]
    stack: list[tuple[int, int]] = []
    seeds = [(r[0], p) for r in definition_refs for p in (0, 1)]
    seeds += [(r[0], 1 if r[1] else 0) for r in root_refs]
    for vid, p in seeds:
        if not parity_seen[vid][p]:
            parity_seen[vid][p] = True
            stack.append((vid, p))
    while stack:
        vid, p = stack.pop()
        for e in b.ops[vid][3]:
            cp = p ^ (1 if e.negated else 0)
            if not parity_seen[e.target][cp]:
                parity_seen[e.target][cp] = True
                stack.append((e.target, cp))

    # parent reference counts for non-atomic vertices
    parents = [0] * n
    for op, _role, _name, children in b.ops:
        for e in children:
            parents[e.target] += 1
    for r in definition_refs + root_refs:
        parents[r[0]] += 1

    atom_freq = Counter(
        node.name
        for expr in onto.concept_expressions()
        for node, _, _ in walk(expr)
        if isinstance(node, Atomic)
    )
    vertices: list[DagVertex] = []
    for vid, (op, role, name, children) in enumerate(b.ops):
        child_stats = tuple(_signed(vertices[e.target].stats, e.negated) for e in children)
        if op == ALL:
            size, depth = 1 + child_stats[0].size, 1 + child_stats[0].depth
        elif op == AND:
            size = 1 + sum(s.size for s in child_stats)
            depth = max(s.depth for s in child_stats)
        else:
            size, depth = 1, 0
        freq = atom_freq[name] if op == ATOM else parents[vid]
        vertices.append(
            DagVertex(
                op=op,
                role=role,
                name=name,
                children=children,
                stats=ConceptStats(size=size, depth=depth, frequency=freq, generating=op == ALL),
                child_stats=child_stats,
                nondeterministic=op == AND and parity_seen[vid][1],
            )
        )

    return Dag(
        vertices=tuple(vertices),
        atom_ids={v.name: i for i, v in enumerate(vertices) if v.op == ATOM},
        definitions={k: tuple(v) for k, v in definitions.items()},
        told={k: tuple(v) for k, v in told.items()},
        gci_refs=tuple(gci_refs),
        gci_constraint=gci_constraint,
        assertion_refs=assertion_refs,
        top_id=b.top,
    )
