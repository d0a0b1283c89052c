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

* Signed references are packed into ints, ``2 * vertex + negated``, so a
  complement is ``r ^ 1``.  Per-reference rule tables are built once per
  ``OrderedDag`` and shared by every test on it.
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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

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


def _packed(ref: Ref) -> int:
    return 2 * ref[0] + ref[1]


class _Tables:
    """Rule tables indexed by packed reference.

    ``expand[r]``: references a conjunction or an unfoldable atom adds (one
    step), else None.  ``disjuncts[r]``: flipped children of a negated
    ``and`` in the permuted order, else None.  ``exists[r]`` / ``forall[r]``:
    (role, packed child) of an existential / value restriction, else None.
    ``bottom``: the packed negated top (-1 when there is no top vertex).
    """

    __slots__ = ("expand", "disjuncts", "exists", "forall", "bottom", "gci")

    def __init__(self, odag: OrderedDag):
        d = odag.dag
        n = 2 * len(d.vertices)
        self.expand: list[tuple[int, ...] | None] = [None] * n
        self.disjuncts: list[tuple[int, ...] | None] = [None] * n
        self.exists: list[tuple[str, int] | None] = [None] * n
        self.forall: list[tuple[str, int] | None] = [None] * n
        self.bottom = -1 if d.top_id is None else 2 * d.top_id + 1
        self.gci = None if d.gci_constraint is None else _packed(d.gci_constraint)
        for vid, v in enumerate(d.vertices):
            pos, neg = 2 * vid, 2 * vid + 1
            if v.op == AND:
                kids = [2 * e.target + e.negated for e in odag.children_in_order(vid)]
                self.expand[pos] = tuple(kids)
                self.disjuncts[neg] = tuple(k ^ 1 for k in kids)
            elif v.op == ALL:
                e = v.children[0]
                child = 2 * e.target + e.negated
                self.forall[pos] = (v.role, child)
                self.exists[neg] = (v.role, child ^ 1)
            elif v.op == ATOM:
                defs = [_packed(r) for r in d.definitions.get(v.name, ())]
                told = [_packed(r) for r in d.told.get(v.name, ())]
                self.expand[pos] = tuple(told + defs) or None
                self.expand[neg] = tuple(r ^ 1 for r in defs) or None


# Tables are a pure function of an immutable OrderedDag and die with it.
_TABLES: weakref.WeakKeyDictionary[OrderedDag, _Tables] = weakref.WeakKeyDictionary()


def _tables(odag: OrderedDag) -> _Tables:
    t = _TABLES.get(odag)
    if t is None:
        t = _TABLES[odag] = _Tables(odag)
    return t


class _Budget(Exception):
    pass


def _add(items: list[int], index: set[int], r: int, bottom: int) -> bool:
    """Add a packed reference to a label; False signals a clash."""
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
    ``[disjuncts, next alternative, label mark, cursor after]``.
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
    expand, disjuncts, exists, forall = t.expand, t.disjuncts, t.exists, t.forall
    bottom, gci = t.bottom, t.gci
    steps = branch_points = 0
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
                        alts = disjuncts[items[p]]
                        if alts is not None:
                            branch_points += 1
                            node.choices.append([alts, 0, len(items), p + 1])
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
                alts, k, mark, after = choice
                items, index = node.items, node.index
                if mark < len(items):
                    index.difference_update(items[mark:])
                    del items[mark:]
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


def is_satisfiable(odag: OrderedDag, target: Ref | None, budget: int) -> SatResult:
    """Satisfiability of a signed reference w.r.t. the encoded TBox.

    ``target=None`` tests the TBox alone (same as a *top* target).
    ``budget`` must be >= 1.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return _search(_tables(odag), None if target is None else _packed(target), budget)


def class_ref(d: Dag, name: str) -> Ref:
    vid = d.atom_ids.get(name)
    if vid is None:
        raise KeyError(f"unknown class {name!r}")
    return (vid, False)


def check_tbox_consistency(odag: OrderedDag, budget: int) -> SatResult:
    top = odag.dag.top_id
    return is_satisfiable(odag, None if top is None else (top, False), budget)


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
        for name in odag.dag.atom_ids:
            res = is_satisfiable(odag, class_ref(odag.dag, name), budget_per_test)
            per_class[name] = res
            total += res.steps
            if res.outcome == BUDGET_EXCEEDED:
                timed_out = True
                break
    return SweepResult(
        per_class=per_class, total_steps=total, timed_out=timed_out, consistency=consistency
    )
