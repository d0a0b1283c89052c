"""Tableau satisfiability testing over the encoded DAG.

Sound and complete for ALC with general TBoxes: axioms with an atomic
left-hand side are lazily unfolded (equivalences in both polarities),
every residual inclusion is internalised into a global constraint that
joins each node label, and subset blocking against ancestors guarantees
termination.  Branching is syntactic: the disjuncts of a negated ``and``
vertex are tried strictly in the permuted child order, and failure
backtracks chronologically to the most recent open choice.

Each rule application costs one step against a deterministic budget:
conjunction expansion, every disjunction branch entry, successor
creation, value-restriction propagation, lazy unfolding of one atom, and
adding the global constraint to a node.  The run aborts with the
``budget-exceeded`` outcome the first time the counter reaches the
budget, so results are exactly reproducible across machines.

Node labels are fully saturated before successors are generated (no
inverse roles means labels never grow afterwards), which keeps blocking
checks static per node.

Implementation (Horrocks, "Implementation and optimisation techniques",
*The Description Logic Handbook*, 2003):

* Rule tables are lists indexed by the DAG's signed references,
  ``2 * vertex + negated``, so a complement is ``r ^ 1``.  They are built
  once per variant of an ordering and shared by every test on it (see
  "Work shared per DAG" below).
* Each node keeps one label, an ordered ``items`` list plus an ``index``
  set.  A choice point records the label length as its mark; a failed
  branch truncates the label back to the mark (an undo trail) instead of
  working on a copy.
* Items before a node's cursor are already branched on, so the scan for
  the next open disjunction starts at the cursor.
* The search runs without recursion: the path from the root to the node
  being expanded is an explicit list of frames, each holding its own
  choice points, so neither nesting depth nor the number of open
  disjunctions is bounded by the interpreter's recursion limit.

Counted replay.  The steps model a chronological reasoner, so every
alternative of a failed choice is paid for, but not every one has to be
walked.  A disjunction is *inert* when each of its alternatives is a
private inert atom: a positive atom with no told subsumer and no
definition whose only occurrence in the DAG is as a child of this
disjunction, which itself is only ever referenced negated (as a
disjunction).  Such an atom starts no rule and meets its complement
nowhere, so two alternatives can differ only through the label they
share, through subset blocking against it, or through the order in which
another node tries the same alternatives.  So when alternative k-1 of an
inert choice at node N has failed, the remaining alternatives repeat its
search exactly, up to renaming one atom, provided that

* no alternative and no complement of one is in N's label at the choice's
  mark or in any ancestor's label (this rules out the test target), and
* no other node opened a choice point on the same disjunction while
  alternative k-1 was being searched (a per-disjunction counter).

Then the search adds q times the steps and branch points the failed
alternative cost instead of running q more copies, where q is the number
of remaining alternatives, capped so that the step counter stays below the
budget.  If the cap bites, the next copy is run for real and exhausts the
budget at exactly the chronological count.  Outcome, steps and branch
points therefore stay those of the chronological search, a copy of which
the tests keep as their reference.  The argument is the dependency-set
one behind backjumping (Horrocks, as above), used here only to show the
copies interchangeable: pruning them would change the count.  On the
trap bombs of the corpus, ``(or Bxi Bxib)`` times the width, the search
walks one copy per level instead of 2^width, so wall time no longer
tracks the step count there: on the reference benchmark run the rank
correlation of steps and seconds per sweep (``steps_seconds_rho``) fell
from 0.81 to 0.56.  That is expected, since the steps still count the
work of the chronological reasoner.

Work shared per DAG.  The benchmark tests one DAG under up to twelve
orderings, and an ordering changes nothing but the child order of
``and`` vertices.  An ordering's *variant* is the set of ``and``
vertices it *moves*, that is, permutes differently from the DAG's first
ordering, each with its permutation.  Orderings of one variant build the
same tables, and the search is a deterministic function of its tables,
target and budget, so they run the same search step for step.  So the
DAG keeps one set of tables per variant, the first ordering's with only
the moved rows rewritten, and they hold the results of the tests run on
them, keyed on target and budget.  A test already run under an ordering
of the same variant is one lookup, with outcome, steps and branch points
unchanged; this is not a satisfiability cache, which would change the
count.  A DAG tested under one ordering (corpus validation, ``sat``,
``sweep``) builds one variant and copies no table.  This state is kept
weakly per ``Dag`` and per ``OrderedDag`` (both compared by identity)
and dies with them: nothing is kept from one benchmark run to the next.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass

from .concepts import ConceptAssertion, Ontology, Transitivity
from .dag import ALL, AND, ATOM, Dag, Ref
from .heuristics import OrderedDag

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True, slots=True)
class SatResult:
    outcome: str
    steps: int
    branch_points: int


@dataclass(frozen=True)
class SweepResult:
    per_class: dict[str, SatResult]
    total_steps: int
    timed_out: bool
    consistency: SatResult

    @property
    def consistent(self) -> bool:
        return self.consistency.outcome != UNSATISFIABLE


class _Tables:
    """Rule rows of one ordering, indexed by signed reference.

    ``expand[r]``: references a conjunction (children in the permuted
    order) or an unfoldable atom adds (one step), else None.
    ``disjuncts[r]``: flipped children of a negated ``and`` in the permuted
    order, else None.  ``exists[r]`` / ``forall[r]``: (role, child)
    of an existential / value restriction, else None.  ``inert[r]``:
    whether ``r`` is an inert disjunction (module docstring).  ``bottom``:
    the negated top (-1 when there is no top vertex).  ``gci``: the global
    constraint, or None.  ``results``: the results of the tests run on
    these tables, keyed on (target, budget).
    """

    __slots__ = ("expand", "disjuncts", "exists", "forall", "inert", "bottom", "gci", "results")


class _Rules:
    """What the orderings of one ``Dag`` share: ``tables``, those of its
    first ordering; ``ands``, each ``and`` vertex's permutation under that
    ordering and its children, plain and flipped, in encoding order;
    ``variants``, the tables of each variant keyed on the (vertex,
    permutation) pairs its orderings move, so ``tables`` under ``()``.
    """

    __slots__ = ("tables", "ands", "variants")

    def __init__(self, d: Dag, permutations: dict[int, tuple[int, ...]]):
        n = 2 * len(d.vertices)
        self.tables = t = _Tables()
        t.expand = expand = [None] * n
        t.disjuncts = disjuncts = [None] * n
        t.exists, t.forall, t.inert = [None] * n, [None] * n, [False] * n
        t.bottom = -1 if d.top_id is None else 2 * d.top_id + 1
        t.gci = d.gci_constraint
        t.results = {}
        self.ands: dict[int, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = {}
        self.variants: dict[tuple, _Tables] = {(): t}
        for vid, v in enumerate(d.vertices):
            pos, neg = 2 * vid, 2 * vid + 1
            if v.op == ATOM:
                told = d.told.get(v.name, ())
                body = d.definitions.get(v.name)
                if body is not None:
                    expand[pos] = told + (body,)
                    expand[neg] = (body ^ 1,)
                elif told:
                    expand[pos] = told
            elif v.op == AND:
                kids = v.children
                flipped = tuple([k ^ 1 for k in kids])
                perm = permutations[vid]
                self.ands[vid] = (perm, kids, flipped)
                expand[pos] = tuple([kids[i] for i in perm])
                disjuncts[neg] = tuple([flipped[i] for i in perm])
            elif v.op == ALL:
                (child,) = v.children
                t.forall[pos] = (v.role, child)
                t.exists[neg] = (v.role, child ^ 1)
        # references to each vertex: edges plus the roots of definitions,
        # told subsumers, the global constraint and assertions
        uses = [0] * len(d.vertices)
        positive = [False] * len(d.vertices)
        refs = [r for v in d.vertices for r in v.children]
        refs += d.definitions.values()
        refs += [r for rs in d.told.values() for r in rs]
        refs += d.assertion_refs
        if d.gci_constraint is not None:
            refs.append(d.gci_constraint)
        for r in refs:
            uses[r >> 1] += 1
            if not r & 1:
                positive[r >> 1] = True
        for vid, v in enumerate(d.vertices):
            t.inert[2 * vid + 1] = (
                v.op == AND
                and not positive[vid]
                and all(
                    r & 1
                    and uses[r >> 1] == 1
                    and d.vertices[r >> 1].op == ATOM
                    and d.vertices[r >> 1].name not in d.told
                    and d.vertices[r >> 1].name not in d.definitions
                    for r in v.children
                )
            )

    def tables_for(self, moved: tuple[tuple[int, tuple[int, ...]], ...]) -> _Tables:
        """The tables of an ordering that moves the vertices of ``moved``
        ((vertex, permutation) pairs): the first ordering's, with the
        ``and`` rows of those vertices rewritten, the other rows shared and
        no results yet."""
        t = copy.copy(self.tables)
        t.results = {}
        t.expand = expand = t.expand.copy()
        t.disjuncts = disjuncts = t.disjuncts.copy()
        for vid, perm in moved:
            _, kids, flipped = self.ands[vid]
            expand[2 * vid] = tuple([kids[i] for i in perm])
            disjuncts[2 * vid + 1] = tuple([flipped[i] for i in perm])
        return t


# Both caches key on identity (``Dag`` and ``OrderedDag`` compare by
# identity) and die with their key: nothing outlives the DAG it was built
# for.  No value refers back to a ``Dag`` or ``OrderedDag``.
_RULES: weakref.WeakKeyDictionary[Dag, _Rules] = weakref.WeakKeyDictionary()
_ORDERINGS: weakref.WeakKeyDictionary[OrderedDag, _Tables] = weakref.WeakKeyDictionary()


def _variant(odag: OrderedDag) -> _Tables:
    """The tables of an ordering not tested yet, those of its variant, made
    if no ordering of the DAG had it; the DAG's rules are made on its first
    ordering."""
    perms = odag.permutations
    rules = _RULES.get(odag.dag)
    if rules is None:
        rules = _RULES[odag.dag] = _Rules(odag.dag, perms)
    moved = tuple([(v, perms[v]) for v, (first, _, _) in rules.ands.items() if perms[v] != first])
    if moved not in rules.variants:
        rules.variants[moved] = rules.tables_for(moved)
    t = _ORDERINGS[odag] = rules.variants[moved]
    return t


class _Budget(Exception):
    pass


def _add(items: list[int], index: set[int], r: int, bottom: int) -> bool:
    """Add a reference to a label; False signals a clash."""
    if r in index:
        return True
    if r ^ 1 in index or r == bottom:
        return False
    index.add(r)
    items.append(r)
    return True


class _Node:
    """One completion-tree node on the path from the root.

    ``choices`` holds the node's open choice points, innermost last, as
    ``[disjuncts, next alternative, label mark, cursor after, replay]``;
    ``replay`` is None unless the disjunction is inert (module docstring),
    else ``[disjunction, steps, branch points, choice points on the
    disjunction]`` as they were when its last alternative was entered.
    ``pending`` (existentials still to expand, last first) and ``foralls``
    (value-restriction children by role) belong to the successor phase.
    """

    __slots__ = ("items", "index", "cursor", "choices", "foralls", "pending")

    def __init__(self, items: list[int], index: set[int]):
        self.items = items
        self.index = index
        self.cursor = 0
        self.choices: list[list] = []
        self.foralls: dict[str, list[int]] = {}
        self.pending: list[tuple[str, int]] = []


# Search modes: saturate the current node from `pos`; resume the innermost
# open choice point; expand the next pending successor of the current node,
# returning to its ancestors once it has none.
_SATURATE, _BACKTRACK, _SUCCESSOR = range(3)


def _search(t: _Tables, target: int | None, budget: int) -> SatResult:
    expand, disjuncts, exists, forall, inert = t.expand, t.disjuncts, t.exists, t.forall, t.inert
    bottom, gci = t.bottom, t.gci
    steps = branch_points = 0
    branched: dict[int, int] = {}  # choice points opened per inert disjunction
    try:
        node = _Node([], set())
        ok = True
        if gci is not None:
            steps += 1
            if steps >= budget:
                raise _Budget()
            ok = _add(node.items, node.index, gci, bottom)
        if ok and target is not None:
            ok = _add(node.items, node.index, target, bottom)
        if not ok:
            return SatResult(UNSATISFIABLE, steps, branch_points)
        path: list[_Node] = []  # ancestors of `node`, root first
        mode, pos = _SATURATE, 0
        while True:
            if mode == _SATURATE:
                items, index = node.items, node.index
                mode = _BACKTRACK  # after a clash, or to enter a new choice point
                while pos < len(items):
                    adds = expand[items[pos]]
                    pos += 1
                    if adds is None:
                        continue
                    steps += 1
                    if steps >= budget:
                        raise _Budget()
                    for r in adds:
                        if r in index:
                            continue
                        if r ^ 1 in index or r == bottom:
                            break
                        index.add(r)
                        items.append(r)
                    else:
                        continue
                    break  # clash: backtrack
                else:
                    for p in range(node.cursor, len(items)):
                        r = items[p]
                        alts = disjuncts[r]
                        if alts is not None:
                            branch_points += 1
                            replay = None
                            if inert[r]:
                                branched[r] = branched.get(r, 0) + 1
                                replay = [r, 0, 0, 0]
                            node.choices.append([alts, 0, len(items), p + 1, replay])
                            break
                    else:
                        # A blocked node gets no successors; this also drops
                        # any left from before a backtrack into it.
                        pending: list[tuple[str, int]] = []
                        foralls: dict[str, list[int]] = {}
                        if not any(index <= anc.index for anc in path):
                            for r in items:
                                if exists[r] is not None:
                                    pending.append(exists[r])
                                elif forall[r] is not None:
                                    role, child = forall[r]
                                    foralls.setdefault(role, []).append(child)
                            pending.reverse()
                        node.pending, node.foralls = pending, foralls
                        mode = _SUCCESSOR

            elif mode == _BACKTRACK:
                while not node.choices:
                    if not path:
                        return SatResult(UNSATISFIABLE, steps, branch_points)
                    node = path.pop()
                choice = node.choices[-1]
                alts, k, mark, after, replay = choice
                items, index = node.items, node.index
                if mark < len(items):
                    index.difference_update(items[mark:])
                    del items[mark:]
                if replay is not None:
                    r, steps_at, branch_points_at, branched_at = replay
                    if (
                        k
                        and branched[r] == branched_at
                        and not any(
                            a in x.index or a ^ 1 in x.index for x in (node, *path) for a in alts
                        )
                    ):
                        # alternative k-1 failed, and each remaining one
                        # would repeat its search (the labels checked are
                        # fixed while the choice is open): count the copies
                        # that end below the budget instead of running them
                        cost = steps - steps_at
                        q = min(len(alts) - k, (budget - 1 - steps) // cost)
                        steps += q * cost
                        branch_points += q * (branch_points - branch_points_at)
                        k += q
                    replay[1:] = steps, branch_points, branched[r]
                while k < len(alts):
                    r = alts[k]
                    k += 1
                    steps += 1
                    if steps >= budget:
                        raise _Budget()
                    if _add(items, index, r, bottom):
                        break
                else:
                    node.choices.pop()
                    continue
                # the label is back at `mark` items plus the new disjunct, if any
                choice[1] = k
                node.cursor = after
                mode, pos = _SATURATE, mark

            else:  # _SUCCESSOR
                while not node.pending:
                    if not path:
                        return SatResult(SATISFIABLE, steps, branch_points)
                    node = path.pop()
                role, child = node.pending.pop()
                steps += 1
                if steps >= budget:
                    raise _Budget()
                items, index = [], set()
                ok = _add(items, index, child, bottom)
                if ok:
                    for r in node.foralls.get(role, ()):
                        steps += 1
                        if steps >= budget:
                            raise _Budget()
                        if not _add(items, index, r, bottom):
                            ok = False
                            break
                if ok and gci is not None:
                    steps += 1
                    if steps >= budget:
                        raise _Budget()
                    ok = _add(items, index, gci, bottom)
                if ok:
                    path.append(node)
                    node = _Node(items, index)
                    mode, pos = _SATURATE, 0
                else:
                    mode = _BACKTRACK
    except _Budget:
        return SatResult(BUDGET_EXCEEDED, steps, branch_points)


def check_budget(budget: int) -> None:
    """Reject a step budget under which no class test can run."""
    if budget < 1:
        raise ValueError("budget must be >= 1")


def is_satisfiable(odag: OrderedDag, target: Ref | None, budget: int) -> SatResult:
    """Satisfiability of a signed reference w.r.t. the encoded TBox.

    ``target=None`` tests the TBox alone (same as a *top* target).
    ``budget`` must be >= 1.  A test already run under an ordering that
    permutes every ``and`` vertex alike is not searched again (module
    docstring).
    """
    if budget < 1:
        check_budget(budget)  # raises; no call on the common path
    t = _ORDERINGS.get(odag) or _variant(odag)
    key = (target, budget)
    res = t.results.get(key)
    if res is None:
        res = t.results[key] = _search(t, target, budget)
    return res


class UnsupportedAxiom(ValueError):
    """An RBox axiom or ABox assertion, which the reasoner does not honour."""


def check_supported(onto: Ontology) -> None:
    """Raise ``UnsupportedAxiom`` for the first RBox axiom or ABox assertion.

    The tableau decides TBox satisfiability only: it would drop a role
    axiom or an assertion and could answer wrongly, so an ontology with one
    is refused before it is reasoned about.
    """
    for ax in onto.rbox:
        if isinstance(ax, Transitivity):
            form = f"(transitive {ax.role})"
        else:
            form = f"(implies-role {ax.sub} {ax.sup})"
        raise UnsupportedAxiom(f"RBox axiom {form} is not supported by the reasoner")
    for ax in onto.abox:
        if isinstance(ax, ConceptAssertion):
            form = f"(instance {ax.individual} ...)"
        else:
            form = f"(related {ax.subject} {ax.object} {ax.role})"
        raise UnsupportedAxiom(f"ABox assertion {form} is not supported by the reasoner")


def class_ref(d: Dag, name: str) -> Ref:
    vid = d.atom_ids.get(name)
    if vid is None:
        raise KeyError(f"unknown class {name!r}")
    return 2 * vid


def check_tbox_consistency(odag: OrderedDag, budget: int) -> SatResult:
    top = odag.dag.top_id
    return is_satisfiable(odag, None if top is None else 2 * top, budget)


def satisfiability_sweep(odag: OrderedDag, budget_per_test: int) -> SweepResult:
    """Consistency check plus one satisfiability test per declared class.

    Classes are visited in declaration (first-mention) order.  The sweep
    aborts at the first budget-exceeded component, mirroring a wall-clock
    timeout of the whole run.
    """
    consistency = check_tbox_consistency(odag, budget_per_test)
    total = consistency.steps
    per_class: dict[str, SatResult] = {}
    timed_out = consistency.outcome == BUDGET_EXCEEDED
    if not timed_out:
        for name, vid in odag.dag.atom_ids.items():
            res = is_satisfiable(odag, 2 * vid, budget_per_test)
            per_class[name] = res
            total += res.steps
            if res.outcome == BUDGET_EXCEEDED:
                timed_out = True
                break
    return SweepResult(
        per_class=per_class, total_steps=total, timed_out=timed_out, consistency=consistency
    )
