"""Hash-consed DAG encoding of an ontology.

Vertices come in four kinds: ``and`` (n-ary conjunction), ``all`` (value
restriction over one role, exactly one child), ``atom`` and ``top``.
Negation lives on edges, so one vertex serves both polarities:

    or(C1..Cn)  -> negated reference to and(~C1 .. ~Cn)
    some(r, C)  -> negated reference to all(r, ~C)
    *bottom*    -> negated reference to top

A signed reference (an edge, or a root such as a told subsumer) is one
int, ``2 * vertex_id + negated``: its vertex is ``r >> 1``, its sign
``r & 1`` and its complement ``r ^ 1`` (Horrocks, *The Description Logic
Handbook*, ch. 9, 2003); the search and the features read it as it is.
Hash-consing guarantees at most one vertex per (kind, role/name, signed
children) so repeated subexpressions are shared.  Duplicate children of a
single ``and`` collapse; if only one child remains the vertex is elided
and the reference points at the child directly.

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

Which names are pure is settled in linear time, independent of how the
classes are named.  A name heading an ``implies``, a ``disjoint`` or two
equivalences is demoted; a demoted name's split equivalences constrain,
and so demote, their atomic right-hand sides, transitively.  Then, once,
after every such demotion, the names on a cycle of definitional uses
among the survivors (a strongly connected component with more than one
name, or a self-use) are demoted too.  That demotes nothing further: an
atomic right-hand side of such a name lies on its cycle, and removing
names makes no new cycle.

Encoding walks each expression as a tree, in post-order on an explicit
stack, and makes each vertex, its edges, size and depth at its first use.
Parsed concepts compare by identity and are never looked up: a subtree
shared by several expressions, or spelled twice in the source, is walked
each time and hash-consed to the same vertex.  The frequencies and
polarities need every reference, so one last sweep from the last vertex
down settles them and builds the `DagVertex`es.  Only an ``and`` vertex
records stats, one `ConceptStats` per signed child: the orderings sort
those children and nothing reads any other.  Equal `ConceptStats` are one
object; both records are named tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .concepts import (
    All,
    And,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    Disjointness,
    Equivalence,
    Not,
    Ontology,
    Or,
    Some,
    Subsumption,
    Top,
    atom_frequencies,
    gc_paused,
    walk,
)

AND = "and"
ALL = "all"
ATOM = "atom"
TOP_OP = "top"

Ref = int


class ConceptStats(NamedTuple):
    """Size, quantifier depth, frequency and generating flag of the signed
    child of an ``and`` vertex: the keys the orderings sort by."""

    size: int
    depth: int
    frequency: int
    generating: bool


class DagVertex(NamedTuple):
    """One vertex of the DAG.

    ``children`` are signed references.  For an ``and`` vertex,
    ``child_stats`` holds the stats of the signed child each denotes, in
    child order; every other vertex has ``()``.  A negated reference adds
    one node for the negation to the size and is generating exactly when
    its vertex is an ``all`` (a negated value restriction is an
    existential); a positive one is never generating.  Depth and frequency
    are the referenced vertex's.
    """

    op: str
    role: str | None
    name: str | None
    children: tuple[Ref, ...]
    child_stats: tuple[ConceptStats, ...]
    nondeterministic: bool


@dataclass(frozen=True, eq=False)
class Dag:
    """Encoded ontology: vertex table plus the unfolding/constraint view.

    Compared and hashed by identity, so per-DAG caches can key on it.

    ``vertices`` is topologically ordered (children precede parents).
    ``definitions`` maps a defined name to its body.  ``top_id`` is the
    *top* vertex, None when the ontology never mentions *top* or *bottom*.
    """

    vertices: tuple[DagVertex, ...]
    atom_ids: dict[str, int]
    definitions: dict[str, Ref]
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
        self.edges: list[tuple[Ref, ...]] = []
        self.size: list[int] = []
        self.depth: list[int] = []
        self.parents: list[int] = []
        self.atom_ids: dict[str, int] = {}
        self.ands: dict[tuple[Ref, ...], int] = {}
        self.alls: dict[tuple[str, Ref], int] = {}
        self.top: int | None = None

    def _new(self, op: str, edges: tuple[Ref, ...], size: int, depth: int) -> int:
        for r in edges:
            self.parents[r >> 1] += 1
        self.ops.append(op)
        self.edges.append(edges)
        self.size.append(size)
        self.depth.append(depth)
        self.parents.append(0)
        return len(self.ops) - 1

    def top_ref(self) -> Ref:
        if self.top is None:
            self.top = self._new(TOP_OP, (), 1, 0)
        return 2 * self.top

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
            vid = self.ands[key] = self._new(
                AND, key, 1 + sum([size[r >> 1] + (r & 1) for r in key]), max([depth[r >> 1] for r in key])
            )
        return 2 * vid

    def all_ref(self, role: str, child: Ref) -> Ref:
        vid = self.alls.get((role, child))
        if vid is None:
            t = child >> 1
            vid = self.alls[role, child] = self._new(ALL, (child,), 1 + self.size[t] + (child & 1), 1 + self.depth[t])
        return 2 * vid

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
                    ref = refs.pop() ^ 1
                elif kind is And or kind is Or:
                    n = len(c.children)
                    if kind is And:
                        ref = self.conj_ref(refs[-n:])
                    else:
                        ref = self.conj_ref([r ^ 1 for r in refs[-n:]]) ^ 1
                    del refs[-n:]
                elif kind is Some:
                    ref = self.all_ref(c.role, refs.pop() ^ 1) ^ 1
                else:
                    ref = self.all_ref(c.role, refs.pop())
            elif kind is Atomic:
                ref = 2 * self.atom(c.name)
            elif kind is Top or kind is Bottom:
                ref = self.top_ref() + (kind is Bottom)
            elif kind is And or kind is Or:
                todo.append((c,))
                todo.extend(reversed(c.children))
                continue
            elif kind is Not or kind is Some or kind is All:
                todo += ((c,), c.child)
                continue
            else:
                raise TypeError(f"not a concept: {c!r}")
            refs.append(ref)
        return refs[0]


def _pure_definition_heads(onto: Ontology) -> dict[str, Concept]:
    """Names eligible for both-polarity unfolding (see module docstring)."""
    bodies: dict[str, list[Concept]] = {}
    todo: list[str] = []  # names to demote
    for ax in onto.tbox:
        lhs, rhs = ax.lhs, ax.rhs
        if isinstance(ax, Equivalence) and not isinstance(lhs, Atomic):
            lhs, rhs = rhs, lhs
        if isinstance(ax, Equivalence) and isinstance(lhs, Atomic):
            bodies.setdefault(lhs.name, []).append(rhs)
        elif isinstance(lhs, Atomic):
            todo.append(lhs.name)
    todo += [n for n, bs in bodies.items() if len(bs) > 1]

    # A demoted name's equivalences split into told subsumptions, which
    # constrain, and so demote, every atomic body.
    demoted: set[str] = set()
    while todo:
        n = todo.pop()
        if n not in demoted:
            demoted.add(n)
            todo.extend(b.name for b in bodies.get(n, ()) if isinstance(b, Atomic))

    # Tarjan's strongly connected components over the definitional uses
    # among the survivors, on an explicit stack; every name of a component
    # with a cycle is demoted.  A name's index is its place on `stack`; a
    # closed component's names get `low` len(deps), past every place, so
    # later uses of them lower nothing.
    deps = {n: bs[0] for n, bs in bodies.items() if n not in demoted}
    for n, body in deps.items():
        deps[n] = [x.name for x, _, _ in walk(body) if type(x) is Atomic and x.name in deps]
    low: dict[str, int] = {}
    stack: list[str] = []
    for root in deps:
        if root in low:
            continue
        path = [(root, iter(deps[root]), len(stack))]
        while path:
            n, uses, at = path[-1]
            if n not in low:
                low[n] = at
                stack.append(n)
            m = next(uses, None)
            if m is None:
                path.pop()
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[n])
                if low[n] == at:
                    component = stack[at:]
                    del stack[at:]
                    low.update(dict.fromkeys(component, len(deps)))
                    if len(component) > 1 or n in deps[n]:
                        demoted.update(component)
            elif m in low:
                low[n] = min(low[n], low[m])
            else:
                path.append((m, iter(deps[m]), len(stack)))
    return {n: bs[0] for n, bs in bodies.items() if n not in demoted}


@gc_paused
def encode_dag(onto: Ontology) -> Dag:
    b = _Builder()
    for name in onto.classes:
        b.atom(name)

    pure = _pure_definition_heads(onto)
    definitions: dict[str, Ref] = {}
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
                definitions[lhs.name] = b.encode(rhs)
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
    for r in root_refs + list(assertion_refs):
        frequency[r >> 1] += 1
        parity[r >> 1] |= 1 << (r & 1)
    for r in definitions.values():
        frequency[r >> 1] += 1
        parity[r >> 1] = 3
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
        child_stats = []
        for r in children:
            t = r >> 1
            parity[t] |= ((p & 1) << 1 | p >> 1) if r & 1 else p
            if op == AND:
                generating = r & 1 == 1 and ops[t] == ALL
                child_stats.append(stats(size[t] + (r & 1), depth[t], frequency[t], generating))
        vertices[vid] = DagVertex(
            op, roles.get(vid), names.get(vid), children, tuple(child_stats), op == AND and p & 2 != 0
        )

    return Dag(
        vertices=tuple(vertices),
        atom_ids=b.atom_ids,
        definitions=definitions,
        told={k: tuple(v) for k, v in told.items()},
        gci_refs=tuple(gci_refs),
        gci_constraint=gci_constraint,
        assertion_refs=assertion_refs,
        top_id=b.top,
    )


def nondeterministic_vertices(d: Dag) -> list[int]:
    """Ids of nondeterministic vertices in topological (ascending) order."""
    return [i for i, v in enumerate(d.vertices) if v.nondeterministic]
