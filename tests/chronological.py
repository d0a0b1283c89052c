"""Chronological tableau search: the reference for counted replay and for
the sharing of work across orderings.

A verbatim copy of the search in ``ordsel.tableau`` from before it learned
to count, instead of walk, the interchangeable failed subtrees of inert
disjunctions, and from before it shared rule rows and results between the
orderings of one DAG.  It builds its tables afresh for each ordering and
walks every alternative of every choice point, so its ``(outcome, steps,
branch_points)`` are the chronological reasoner's by construction; the
differential tests require the package's search to return exactly the
same triple.  ``reference_rows`` is the benchmark's runtime table by a
plain loop of such searches, one sweep per (ontology, ordering).
"""

from __future__ import annotations

from typing import Callable

from conftest import children_in_order
from ordsel.bench.harness import DEFAULT_LABEL
from ordsel.dag import ALL, AND, ATOM, Ref, encode_dag
from ordsel.heuristics import (
    CONFIG_NUMBERS,
    OrderedDag,
    apply_ordering,
    default_config,
    parse_config,
)
from ordsel.krss import ParseError, parse_ontology
from ordsel.runtimes import FINISHED, INCONSISTENT, TIMEOUT, RuntimeRow
from ordsel.tableau import (
    BUDGET_EXCEEDED,
    SATISFIABLE,
    UNSATISFIABLE,
    SatResult,
    UnsupportedAxiom,
    check_supported,
)


class _Tables:
    """Rule tables indexed by signed reference.

    ``expand[r]``: references a conjunction or an unfoldable atom adds (one
    step), else None.  ``disjuncts[r]``: flipped children of a negated
    ``and`` in the permuted order, else None.  ``exists[r]`` / ``forall[r]``:
    (role, child) of an existential / value restriction, else None.
    ``bottom``: the negated top (-1 when there is no top vertex).
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
        self.gci = d.gci_constraint
        for vid, v in enumerate(d.vertices):
            pos, neg = 2 * vid, 2 * vid + 1
            if v.op == AND:
                kids = children_in_order(odag, vid)
                self.expand[pos] = tuple(kids)
                self.disjuncts[neg] = tuple(k ^ 1 for k in kids)
            elif v.op == ALL:
                (child,) = v.children
                self.forall[pos] = (v.role, child)
                self.exists[neg] = (v.role, child ^ 1)
            elif v.op == ATOM:
                body = d.definitions.get(v.name)
                defs = () if body is None else (body,)
                told = d.told.get(v.name, ())
                self.expand[pos] = told + defs or None
                self.expand[neg] = tuple(r ^ 1 for r in defs) or None



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


def chronological_sat(odag: OrderedDag) -> Callable[[Ref | None, int], SatResult]:
    """``is_satisfiable`` on ``odag`` by the chronological search, as a
    function of the target and the budget."""
    t = _Tables(odag)
    return lambda target, budget: _search(t, target, budget)


def reference_rows(corpus: list[tuple[str, str]], budget: int) -> list[RuntimeRow]:
    """``run_benchmark``'s rows, each from its own chronological sweep on
    tables built for that ordering alone: no sweep, table or result is
    shared between orderings."""
    rows = []
    for oid, text in corpus:
        try:
            onto = parse_ontology(text)
            check_supported(onto)
        except (ParseError, UnsupportedAxiom):
            continue
        d = encode_dag(onto)
        top = None if d.top_id is None else 2 * d.top_id
        cells = {}
        for label in CONFIG_NUMBERS:
            sat = chronological_sat(apply_ordering(d, parse_config(label)))
            res = sat(top, budget)
            total, outcome = res.steps, res.outcome
            if outcome != BUDGET_EXCEEDED:
                for vid in d.atom_ids.values():
                    res = sat(2 * vid, budget)
                    total += res.steps
                    if res.outcome == BUDGET_EXCEEDED:
                        break
            if res.outcome == BUDGET_EXCEEDED:
                cells[label] = (float(budget), TIMEOUT)
            elif outcome == UNSATISFIABLE:
                cells[label] = (float(total), INCONSISTENT)
            else:
                cells[label] = (float(total), FINISHED)
            rows.append(RuntimeRow(oid, label, *cells[label]))
        default = str(default_config(d).number)
        rows.append(RuntimeRow(oid, DEFAULT_LABEL, *cells[default]))
    return rows
