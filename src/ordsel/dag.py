"""Hash-consed DAG encoding of an ontology.

Vertices come in four kinds: ``and`` (n-ary conjunction), ``all`` (value
restriction over one role, exactly one child), ``atom`` and ``top``.
Negation lives on edges, so one vertex serves both polarities:

    or(C1..Cn)  -> negated reference to and(~C1 .. ~Cn)
    some(r, C)  -> negated reference to all(r, ~C)
    *bottom*    -> negated reference to top

A signed reference is a ``(vertex_id, negated)`` pair.  Hash-consing
guarantees at most one vertex per (kind, role/name, signed children) so
repeated subexpressions are shared.  Duplicate children of a single
``and`` collapse; if only one child remains the vertex is elided and the
reference points at the child directly.

A vertex is *nondeterministic* when it is an ``and`` reachable through an
odd number of negated edges in at least one use: under that polarity the
tableau treats it as a disjunction.  Definition bodies propagate under both
polarities because an atomic definition unfolds positively and negatively.

Absorption while encoding the TBox:

    (implies A rhs), A atomic      -> told subsumer of A
    (equivalent A rhs), A atomic   -> definition of A, both polarities
    anything else                  -> residual constraint ~lhs | rhs, one
                                      reference per residual, conjoined
                                      into ``gci_constraint``

Disjointness (disjoint L R) is encoded as (implies L (not R)).

Both-polarity unfolding of a definition is only sound when the defined
name is pure: exactly one equivalence, no other axiom with the name as
atomic left-hand side, and no definitional cycle through it.  (With, say,
A = B|C plus A -> B, a node carrying only C would never trigger either
rule on A, yet C forces A and hence B.)  Impure equivalences are split:
the A -> rhs half becomes a told subsumer and the rhs -> A half is
absorbed when rhs is atomic, otherwise internalised as a residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .concepts import (
    All,
    And,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    ConceptStats,
    Disjointness,
    Equivalence,
    Not,
    Ontology,
    Or,
    Some,
    Subsumption,
    Top,
    atom_frequencies,
    walk,
)

AND = "and"
ALL = "all"
ATOM = "atom"
TOP_OP = "top"

Ref = tuple[int, bool]


def flip(ref: Ref) -> Ref:
    return (ref[0], not ref[1])


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


@dataclass(frozen=True)
class Dag:
    """Encoded ontology: vertex table plus the unfolding/constraint view.

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
        self.memo: dict[Concept, Ref] = {}
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
        hit = self.memo.get(c)
        if hit is not None:
            return hit
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
        self.memo[c] = ref
        return ref


def _pure_definition_heads(onto: Ontology) -> dict[str, Concept]:
    """Names eligible for both-polarity unfolding (see module docstring)."""
    heads: dict[str, list[Concept]] = {}
    base: set[str] = set()
    equivs: list[tuple[Concept, Concept]] = []
    for ax in onto.tbox:
        if isinstance(ax, Equivalence):
            lhs, rhs = ax.lhs, ax.rhs
            if not isinstance(lhs, Atomic) and isinstance(rhs, Atomic):
                lhs, rhs = rhs, lhs
            equivs.append((lhs, rhs))
            if isinstance(lhs, Atomic):
                heads.setdefault(lhs.name, []).append(rhs)
        elif isinstance(ax.lhs, Atomic):
            base.add(ax.lhs.name)

    candidates = {n for n, bodies in heads.items() if len(bodies) == 1}

    def cyclic_names(cands: set[str]) -> set[str]:
        # definitional cycles among the current candidates; uses of a name
        # elsewhere are fine.  Depth-first search with an explicit stack:
        # `path` holds the names being visited, `todo` their unvisited
        # dependencies in sorted order.
        deps = {
            n: {x.name for x, _, _ in walk(heads[n][0]) if isinstance(x, Atomic)} & cands
            for n in cands
        }
        state: dict[str, int] = {}
        cyclic: set[str] = set()
        path: list[str] = []
        todo: list[Iterator[str]] = []

        def enter(n: str) -> None:
            mark = state.get(n)
            if mark == 2 or n in cyclic:
                return
            if mark == 1:
                cyclic.update(path[path.index(n) :])
                return
            state[n] = 1
            path.append(n)
            todo.append(iter(sorted(deps[n])))

        for n in sorted(cands):
            enter(n)
            while todo:
                m = next(todo[-1], None)
                if m is None:
                    todo.pop()
                    state[path.pop()] = 2
                else:
                    enter(m)
        return cyclic

    # An equivalence that does not serve as a definition decomposes into
    # told subsumptions constraining every atomic side, which can in turn
    # disqualify further definitions; iterate the (monotone, decreasing)
    # candidate set to its fixed point.
    while True:
        constrained = set(base)
        for lhs, rhs in equivs:
            if isinstance(lhs, Atomic) and lhs.name in candidates:
                continue
            for side in (lhs, rhs):
                if isinstance(side, Atomic):
                    constrained.add(side.name)
        kept = {n for n in candidates if n not in constrained}
        kept -= cyclic_names(kept)
        if kept == candidates:
            break
        candidates = kept

    return {n: heads[n][0] for n in candidates}


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

    atom_freq = atom_frequencies(onto)
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


def nondeterministic_vertices(d: Dag) -> list[int]:
    """Ids of nondeterministic vertices in topological (ascending) order."""
    return [i for i, v in enumerate(d.vertices) if v.nondeterministic]
