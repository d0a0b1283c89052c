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

Encoding walks each expression once, in post-order on an explicit stack,
and makes each vertex, its edges, size and depth at its first use.  The
frequencies and polarities need every reference, so one last sweep from
the last vertex down settles them and builds the `DagVertex`es.  Equal
`ConceptStats` are one object; all three vertex types are named tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

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


class DagEdge(NamedTuple):
    target: int
    negated: bool


class DagVertex(NamedTuple):
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
    """The vertex table, hash-consed on plain keys: an atom's name, an
    ``and``'s signed children, an ``all``'s role and signed child."""

    def __init__(self):
        # per vertex, in id order
        self.ops: list[str] = []
        self.edges: list[tuple[DagEdge, ...]] = []
        self.size: list[int] = []
        self.depth: list[int] = []
        self.parents: list[int] = []
        self.atom_ids: dict[str, int] = {}
        self.ands: dict[tuple[Ref, ...], int] = {}
        self.alls: dict[tuple[str, Ref], int] = {}
        # by id(c), which hashes in constant time where a concept hashes its
        # whole tree; `keep` holds every c, so its id is not reused
        self.memo: dict[int, Ref] = {}
        self.keep: list[Concept] = []
        self.top: int | None = None

    def _new(self, op: str, edges: tuple[DagEdge, ...], size: int, depth: int) -> int:
        for e in edges:
            self.parents[e.target] += 1
        self.ops.append(op)
        self.edges.append(edges)
        self.size.append(size)
        self.depth.append(depth)
        self.parents.append(0)
        return len(self.ops) - 1

    def top_ref(self) -> Ref:
        if self.top is None:
            self.top = self._new(TOP_OP, (), 1, 0)
        return (self.top, False)

    def atom(self, name: str) -> int:
        vid = self.atom_ids.get(name)
        if vid is None:
            vid = self.atom_ids[name] = self._new(ATOM, (), 1, 0)
        return vid

    def conj_ref(self, refs: list[Ref]) -> Ref:
        """And-vertex over already-encoded references, dedup + collapse."""
        key = tuple(dict.fromkeys(refs))
        if len(key) == 1:
            return key[0]
        vid = self.ands.get(key)
        if vid is None:
            size, depth = self.size, self.depth
            edges = tuple([DagEdge(t, negated) for t, negated in key])  # equal to the key
            vid = self.ands[edges] = self._new(
                AND, edges, 1 + sum([size[t] + negated for t, negated in key]), max([depth[t] for t, _ in key])
            )
        return (vid, False)

    def all_ref(self, role: str, child: Ref) -> int:
        vid = self.alls.get((role, child))
        if vid is None:
            t, negated = child
            edges = (DagEdge(t, negated),)
            vid = self.alls[role, child] = self._new(ALL, edges, 1 + self.size[t] + negated, 1 + self.depth[t])
        return vid

    def encode(self, root: Concept) -> Ref:
        """Post-order over ``root`` with an explicit stack: a concept is
        pushed, then, once its operands are encoded, pushed again wrapped
        in a 1-tuple to be combined from the top of ``refs``."""
        refs: list[Ref] = []
        todo: list = [root]
        while todo:
            c = todo.pop()
            kind = type(c)
            if kind is tuple:
                c = c[0]
                kind = type(c)
                if kind is Not:
                    ref = flip(refs.pop())
                elif kind is And or kind is Or:
                    n = len(c.children)
                    if kind is And:
                        ref = self.conj_ref(refs[-n:])
                    else:
                        ref = flip(self.conj_ref([flip(r) for r in refs[-n:]]))
                    del refs[-n:]
                elif kind is Some:
                    ref = (self.all_ref(c.role, flip(refs.pop())), True)
                else:
                    ref = (self.all_ref(c.role, refs.pop()), False)
            elif (ref := self.memo.get(id(c))) is not None:
                refs.append(ref)
                continue
            elif kind is Atomic:
                ref = (self.atom(c.name), False)
            elif kind is Top or kind is Bottom:
                ref = (self.top_ref()[0], kind is Bottom)
            elif kind is And or kind is Or:
                todo.append((c,))
                todo.extend(reversed(c.children))
                continue
            elif kind is Not or kind is Some or kind is All:
                todo += ((c,), c.child)
                continue
            else:
                raise TypeError(f"not a concept: {c!r}")
            self.memo[id(c)] = ref
            self.keep.append(c)
            refs.append(ref)
        return refs[0]


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
    gci_constraint = b.conj_ref(gci_refs) if gci_refs else None

    assertion_refs = tuple(
        b.encode(ax.concept) for ax in onto.abox if isinstance(ax, ConceptAssertion)
    )

    # The roots: each adds a parent and seeds the polarities its vertex is
    # used under (bit 1 positive, bit 2 negative); definition bodies unfold
    # under both.  An atom's frequency is its count of source occurrences.
    ops, size, depth, frequency = b.ops, b.size, b.depth, b.parents
    parity = [0] * len(ops)
    root_refs = [r for refs in told.values() for r in refs]
    root_refs += [gci_constraint] if gci_constraint is not None else []
    for t, negated in root_refs + list(assertion_refs):
        frequency[t] += 1
        parity[t] |= 2 if negated else 1
    for refs in definitions.values():
        frequency[refs[0][0]] += 1
        parity[refs[0][0]] = 3
    occurrences = atom_frequencies(onto)
    names = {vid: name for name, vid in b.atom_ids.items()}
    for vid, name in names.items():
        frequency[vid] = occurrences[name]
    roles = {vid: role for (role, _), vid in b.alls.items()}

    made: dict[tuple, ConceptStats] = {}  # one object per distinct value

    def stats(*fields) -> ConceptStats:
        if fields not in made:
            made[fields] = ConceptStats(*fields)
        return made[fields]

    # Parents precede children in descending id order, so one sweep
    # settles each vertex's polarities before its children read them.
    vertices: list = [None] * len(ops)
    for vid in range(len(ops) - 1, -1, -1):
        op, children, p = ops[vid], b.edges[vid], parity[vid]
        for t, negated in children:
            parity[t] |= ((p & 1) << 1 | p >> 1) if negated else p
        child_stats = [
            stats(size[t] + negated, depth[t], frequency[t], negated and ops[t] == ALL)
            for t, negated in children
        ]
        own = stats(size[vid], depth[vid], frequency[vid], op == ALL)
        vertices[vid] = DagVertex(
            op, roles.get(vid), names.get(vid), children, own, tuple(child_stats), op == AND and p & 2 != 0
        )

    return Dag(
        vertices=tuple(vertices),
        atom_ids=b.atom_ids,
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
