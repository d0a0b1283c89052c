"""Brute-force satisfiability by bounded interpretation enumeration.

An interpretation over domain {0..d-1} assigns every atomic class a
subset of the domain and every role a successor set per element.  Each
subset is a d-bit mask, so the whole space enumerates as the integers
below 2**(c*d + r*d*d).  Concepts evaluate to masks with the usual
semantics; an interpretation is a model when every TBox axiom holds.

Because ALC is invariant under duplicating bisimilar elements, a model
of size k extends to one of any size >= k, so testing at exactly
``max_domain`` covers every smaller domain.

Enumeration is vectorised with numpy in fixed-size chunks, short-circuits
as soon as the query is answered, and refuses search spaces larger than
``limit`` with ``CapacityError``.  Intended for tiny inputs only: the
independent ground truth that the tableau engine is checked against.
"""

from __future__ import annotations

import numpy as np

from ordsel.concepts import (
    All,
    And,
    Atomic,
    Bottom,
    Concept,
    Disjointness,
    Equivalence,
    Not,
    Ontology,
    Or,
    Some,
    Subsumption,
    Top,
)

DEFAULT_LIMIT = 1 << 26

_CHUNK = 1 << 16


class CapacityError(Exception):
    pass


def _collect_names(c: Concept, classes: dict[str, None], roles: dict[str, None]) -> None:
    if isinstance(c, Atomic):
        classes.setdefault(c.name)
    elif isinstance(c, Not):
        _collect_names(c.child, classes, roles)
    elif isinstance(c, (And, Or)):
        for x in c.children:
            _collect_names(x, classes, roles)
    elif isinstance(c, (Some, All)):
        roles.setdefault(c.role)
        _collect_names(c.child, classes, roles)


class _Space:
    """One enumeration space: name tables, bit layout, chunked scanning."""

    def __init__(self, classes, roles, domain: int, limit: int):
        self.classes = list(classes)
        self.roles = list(roles)
        self.domain = domain
        bits = len(self.classes) * domain + len(self.roles) * domain * domain
        if bits >= 63 or (1 << bits) > limit:
            raise CapacityError(
                f"search space 2**{bits} exceeds limit {limit} "
                f"({len(self.classes)} classes, {len(self.roles)} roles, domain {domain})"
            )
        self.total = 1 << bits
        self.full = (1 << domain) - 1
        self.class_shift = {name: i * domain for i, name in enumerate(self.classes)}
        base = len(self.classes) * domain
        self.role_shift = {
            name: base + r * domain * domain for r, name in enumerate(self.roles)
        }

    def chunks(self):
        for start in range(0, self.total, _CHUNK):
            yield np.arange(start, min(start + _CHUNK, self.total), dtype=np.int64)

    def class_ext(self, idx: np.ndarray, name: str) -> np.ndarray:
        return (idx >> self.class_shift[name]) & self.full

    def role_succ(self, idx: np.ndarray, role: str, element: int) -> np.ndarray:
        return (idx >> (self.role_shift[role] + element * self.domain)) & self.full

    def eval_concept(self, idx: np.ndarray, c: Concept, memo: dict) -> np.ndarray:
        hit = memo.get(c)
        if hit is not None:
            return hit
        if isinstance(c, Top):
            out = np.full(idx.shape, self.full, dtype=np.int64)
        elif isinstance(c, Bottom):
            out = np.zeros(idx.shape, dtype=np.int64)
        elif isinstance(c, Atomic):
            out = self.class_ext(idx, c.name)
        elif isinstance(c, Not):
            out = self.eval_concept(idx, c.child, memo) ^ self.full
        elif isinstance(c, And):
            out = self.eval_concept(idx, c.children[0], memo).copy()
            for x in c.children[1:]:
                out &= self.eval_concept(idx, x, memo)
        elif isinstance(c, Or):
            out = self.eval_concept(idx, c.children[0], memo).copy()
            for x in c.children[1:]:
                out |= self.eval_concept(idx, x, memo)
        elif isinstance(c, (Some, All)):
            child = self.eval_concept(idx, c.child, memo)
            out = np.zeros(idx.shape, dtype=np.int64)
            for x in range(self.domain):
                succ = self.role_succ(idx, c.role, x)
                if isinstance(c, Some):
                    member = (succ & child) != 0
                else:
                    member = (succ & ~child & self.full) == 0
                out |= member.astype(np.int64) << x
        else:
            raise TypeError(f"not a concept: {c!r}")
        memo[c] = out
        return out

    def valid_mask(self, idx: np.ndarray, onto: Ontology, memo: dict) -> np.ndarray:
        ok = np.ones(idx.shape, dtype=bool)
        for ax in onto.tbox:
            lhs = self.eval_concept(idx, ax.lhs, memo)
            rhs = self.eval_concept(idx, ax.rhs, memo)
            if isinstance(ax, Subsumption):
                ok &= (lhs & ~rhs & self.full) == 0
            elif isinstance(ax, Equivalence):
                ok &= lhs == rhs
            elif isinstance(ax, Disjointness):
                ok &= (lhs & rhs) == 0
        return ok


def _space_for(onto: Ontology, extra: Concept | None, max_domain: int, limit: int) -> _Space:
    classes: dict[str, None] = {}
    roles: dict[str, None] = {}
    for name in onto.classes:
        classes.setdefault(name)
    for name in onto.roles:
        roles.setdefault(name)
    if extra is not None:
        _collect_names(extra, classes, roles)
    return _Space(classes, roles, max_domain, limit)


def brute_force_satisfiable(
    onto: Ontology, target: Concept, max_domain: int, limit: int = DEFAULT_LIMIT
) -> bool:
    """True iff some interpretation of size <= max_domain is a TBox model
    giving the target a non-empty extension."""
    if max_domain < 1:
        raise ValueError("max_domain must be >= 1")
    space = _space_for(onto, target, max_domain, limit)
    for idx in space.chunks():
        memo: dict = {}
        ok = space.valid_mask(idx, onto, memo)
        if not ok.any():
            continue
        ext = space.eval_concept(idx, target, memo)
        if bool((ok & (ext != 0)).any()):
            return True
    return False


def class_satisfiability(
    onto: Ontology, max_domain: int, limit: int = DEFAULT_LIMIT
) -> tuple[bool, dict[str, bool]]:
    """One scan answering consistency and satisfiability of every class.

    Returns (tbox_consistent, {class: satisfiable}).  Scans until every
    class has a witness or the space is exhausted.
    """
    if max_domain < 1:
        raise ValueError("max_domain must be >= 1")
    space = _space_for(onto, None, max_domain, limit)
    consistent = False
    sat = {name: False for name in onto.classes}
    missing = set(sat)
    for idx in space.chunks():
        memo: dict = {}
        ok = space.valid_mask(idx, onto, memo)
        if not ok.any():
            continue
        consistent = True
        found = []
        for name in missing:
            ext = space.class_ext(idx, name)
            if bool((ok & (ext != 0)).any()):
                sat[name] = True
                found.append(name)
        missing.difference_update(found)
        if not missing:
            break
    return consistent, sat


def concepts_equivalent(
    a: Concept,
    b: Concept,
    max_domain: int = 2,
    limit: int = DEFAULT_LIMIT,
) -> bool:
    """Extension equality of two concepts over every small interpretation."""
    classes: dict[str, None] = {}
    roles: dict[str, None] = {}
    _collect_names(a, classes, roles)
    _collect_names(b, classes, roles)
    space = _Space(classes, roles, max_domain, limit)
    for idx in space.chunks():
        memo: dict = {}
        ea = space.eval_concept(idx, a, memo)
        eb = space.eval_concept(idx, b, memo)
        if bool((ea != eb).any()):
            return False
    return True
