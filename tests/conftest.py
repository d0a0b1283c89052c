"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from ordsel import tableau, workers
from ordsel.concepts import (
    BOTTOM,
    TOP,
    All,
    And,
    Atomic,
    Bottom,
    ConceptAssertion,
    Equivalence,
    Not,
    Or,
    RoleInclusion,
    Some,
    Subsumption,
    Top,
    conj,
    disj,
)
from ordsel.krss import parse_ontology
from ordsel.learn.pipeline import fit_config_pipeline, stratified_folds

# A small TBox with one subsumption chain, one equivalence, and a
# disjunction; used wherever a concrete, hand-checkable ontology is needed.
BASIC_TEXT = """\
(implies C (some R D))
(implies C F)
(equivalent A (or C D))
"""

# A TBox whose single class is unsatisfiable.
UNSAT_TEXT = """\
(implies A (and B (not B)))
"""

# Disjunction-heavy TBox with a clash on one branch; ordering-sensitive.
BRANCHY_TEXT = """\
(implies A (and (or P Q) (or P2 Q2) (some R (and B (not B)))))
(implies D (or (and E (not E)) G))
"""


def _count_atom(c, name: str) -> int:
    if isinstance(c, Atomic):
        return 1 if c.name == name else 0
    if isinstance(c, (Top, Bottom)):
        return 0
    if isinstance(c, (Not, Some, All)):
        return _count_atom(c.child, name)
    if isinstance(c, (And, Or)):
        return sum(_count_atom(x, name) for x in c.children)
    raise TypeError(f"not a concept: {c!r}")


def children_in_order(odag, vid: int) -> list:
    """The children of ``and`` vertex ``vid`` in the order ``odag`` gives them."""
    v = odag.dag.vertices[vid]
    perm = odag.permutations.get(vid)
    return list(v.children) if perm is None else [v.children[i] for i in perm]


def concept_frequency(name: str, onto) -> int:
    """Oracle for atom frequencies: occurrences of one class name across
    all axiom expressions, one full traversal per name."""
    return sum(_count_atom(expr, name) for expr in onto.concept_expressions())


def nnf(c):
    """Oracle for the negation normal form: negation only on atoms."""
    if isinstance(c, (Top, Bottom, Atomic)):
        return c
    if isinstance(c, And):
        return conj(nnf(x) for x in c.children)
    if isinstance(c, Or):
        return disj(nnf(x) for x in c.children)
    if isinstance(c, Some):
        return Some(c.role, nnf(c.child))
    if isinstance(c, All):
        return All(c.role, nnf(c.child))
    inner = c.child
    if isinstance(inner, Top):
        return BOTTOM
    if isinstance(inner, Bottom):
        return TOP
    if isinstance(inner, Atomic):
        return c
    if isinstance(inner, Not):
        return nnf(inner.child)
    if isinstance(inner, And):
        return disj(nnf(Not(x)) for x in inner.children)
    if isinstance(inner, Or):
        return conj(nnf(Not(x)) for x in inner.children)
    if isinstance(inner, Some):
        return All(inner.role, nnf(Not(inner.child)))
    return Some(inner.role, nnf(Not(inner.child)))


# ----------------------------------------------------------------- printer
# The text format's printer: parse(unparse(o)) rebuilds o, which the parser
# round-trip tests check.


def unparse_concept(c) -> str:
    """Text form of a concept, the inverse of the parser."""
    if isinstance(c, Top):
        return "*top*"
    if isinstance(c, Bottom):
        return "*bottom*"
    if isinstance(c, Atomic):
        return c.name
    if isinstance(c, Not):
        return f"(not {unparse_concept(c.child)})"
    if isinstance(c, And):
        return "(and " + " ".join(unparse_concept(x) for x in c.children) + ")"
    if isinstance(c, Or):
        return "(or " + " ".join(unparse_concept(x) for x in c.children) + ")"
    if isinstance(c, Some):
        return f"(some {c.role} {unparse_concept(c.child)})"
    if isinstance(c, All):
        return f"(all {c.role} {unparse_concept(c.child)})"
    raise TypeError(f"not a concept: {c!r}")


def unparse(onto) -> str:
    """Render an ontology back to text, one axiom per line."""
    lines = []
    for ax in onto.tbox:
        if isinstance(ax, Subsumption):
            lines.append(f"(implies {unparse_concept(ax.lhs)} {unparse_concept(ax.rhs)})")
        elif isinstance(ax, Equivalence):
            lines.append(f"(equivalent {unparse_concept(ax.lhs)} {unparse_concept(ax.rhs)})")
        else:
            lines.append(f"(disjoint {unparse_concept(ax.lhs)} {unparse_concept(ax.rhs)})")
    for ax in onto.rbox:
        if isinstance(ax, RoleInclusion):
            lines.append(f"(implies-role {ax.sub} {ax.sup})")
        else:
            lines.append(f"(transitive {ax.role})")
    for ax in onto.abox:
        if isinstance(ax, ConceptAssertion):
            lines.append(f"(instance {ax.individual} {unparse_concept(ax.concept)})")
        else:
            lines.append(f"(related {ax.subject} {ax.object} {ax.role})")
    return "\n".join(lines) + ("\n" if lines else "")


def naive_cross_validate(x, y, params, n_folds: int = 10, seed: int = 0) -> float:
    """Oracle for cross-validation: pooled accuracy of one grid point with
    the whole pipeline, MI included, refit from scratch on every fold."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fold = stratified_folds(y, n_folds, seed)
    correct = 0
    total = 0
    for f in range(n_folds):
        val = fold == f
        train = ~val
        if not val.any() or not train.any():
            continue
        if len(np.unique(y[train])) < 2:
            continue
        fitted = fit_config_pipeline(x[train], y[train], params)
        pred = fitted.predict(x[val])
        correct += int(np.count_nonzero(pred == y[val]))
        total += int(val.sum())
    return correct / total if total else 0.0


@pytest.fixture
def searches(monkeypatch):
    """The list of every ``tableau._search`` call made while the test
    runs, as (tables, packed target, budget), in call order."""
    calls = []
    search = tableau._search

    def spy(t, target, budget):
        calls.append((t, target, budget))
        return search(t, target, budget)

    monkeypatch.setattr(tableau, "_search", spy)
    return calls


@pytest.fixture
def pools(monkeypatch):
    """Spy on the pool: every pooled `workers.ordered_map` call, each with
    the function it mapped and the tasks it was given."""
    made = []
    pool_map = workers._pool_map

    def spy(fn, tasks, count):
        made.append(SimpleNamespace(fn=fn, tasks=list(tasks)))
        return pool_map(fn, tasks, count)

    monkeypatch.setattr(workers, "_pool_map", spy)
    return made


def assert_no_children() -> None:
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_workers(monkeypatch, count: int) -> None:
    """Run `workers.ordered_map` in `count` processes (at most one per task;
    1 is inline), whatever the host's CPU count."""
    monkeypatch.setattr(workers, "_worker_count", lambda n_tasks: min(count, n_tasks))


@pytest.fixture
def inline(monkeypatch):
    """Run every `workers.ordered_map` task in this process, where the
    test's spies can see it: a forked worker's spy records nothing here."""
    set_workers(monkeypatch, 1)


@pytest.fixture
def basic_onto():
    return parse_ontology(BASIC_TEXT)


@pytest.fixture
def branchy_onto():
    return parse_ontology(BRANCHY_TEXT)


# ------------------------------------------------------------------ random
# Random ontology generation for oracle-agreement tests.  The shapes are
# kept inside the exhaustive model-search capacity: few classes and roles,
# quantifier depth <= 2, small conjunctions, and domain size 3.  Shallow
# concepts keep minimal models within three elements so the bounded search
# is an exact oracle for these instances.

_COMBOS = ((2, 1), (3, 1), (4, 1), (2, 2))


def _rand_concept(rng: np.random.Generator, classes, roles, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        return str(rng.choice(classes))
    if roll < 0.45:
        return f"(not {_rand_concept(rng, classes, roles, depth - 1)})"
    if roll < 0.60:
        a = _rand_concept(rng, classes, roles, depth - 1)
        b = _rand_concept(rng, classes, roles, depth - 1)
        return f"(and {a} {b})"
    if roll < 0.75:
        a = _rand_concept(rng, classes, roles, depth - 1)
        b = _rand_concept(rng, classes, roles, depth - 1)
        return f"(or {a} {b})"
    role = str(rng.choice(roles))
    inner = _rand_concept(rng, classes, roles, depth - 1)
    if roll < 0.88:
        return f"(some {role} {inner})"
    return f"(all {role} {inner})"


def random_ontology_text(rng: np.random.Generator) -> str:
    """A random ALC TBox small enough for the exhaustive oracle."""
    n_classes, n_roles = _COMBOS[int(rng.integers(len(_COMBOS)))]
    classes = [f"C{i}" for i in range(n_classes)]
    roles = [f"R{i}" for i in range(n_roles)]
    lines = []
    for _ in range(int(rng.integers(2, 7))):
        kind = rng.random()
        if kind < 0.6:
            lhs = str(rng.choice(classes)) if rng.random() < 0.5 else _rand_concept(
                rng, classes, roles, 2
            )
            rhs = _rand_concept(rng, classes, roles, 2)
            lines.append(f"(implies {lhs} {rhs})")
        elif kind < 0.8:
            # Equivalences act in both directions; a nested existential on
            # the right can force minimal models beyond the oracle's domain
            # bound, so their right-hand sides stay quantifier-depth <= 1.
            lhs = str(rng.choice(classes))
            rhs = _rand_concept(rng, classes, roles, 1)
            lines.append(f"(equivalent {lhs} {rhs})")
        else:
            a, b = rng.choice(classes, size=2, replace=False)
            lines.append(f"(disjoint {a} {b})")
    return "\n".join(lines) + "\n"


# Random TBoxes around inert disjunctions, for the counted-replay tests.
# Every disjunction gets fresh atoms, which makes it inert; the generator
# then breaks that in each way the replay must notice: an atom reused
# elsewhere or as an axiom's left-hand side, a negated alternative, a
# disjunction written twice (so that two nodes branch on it) or under a
# value restriction, and a disjunction inside a negation.  Bombs put
# disjunctions next to a successor that a guard can make clash, and
# existential cycles end in subset blocking.


def replay_ontology_text(rnd) -> str:
    """A random TBox for differential tests of the replay; ``rnd`` is a
    ``random.Random`` (hypothesis's ``randoms()`` strategy in the tests)."""
    classes = [f"A{i}" for i in range(rnd.randint(2, 4))]
    roles = ["R", "S"]
    fresh: list[str] = []
    made: list[str] = []

    def atom() -> str:
        if fresh and rnd.random() < 0.15:
            return rnd.choice(fresh)
        return rnd.choice(classes)

    def disjunction() -> str:
        if made and rnd.random() < 0.2:
            return rnd.choice(made)
        alts = []
        for _ in range(rnd.randint(2, 3)):
            alts.append(f"X{len(fresh)}")
            fresh.append(alts[-1])
        if rnd.random() < 0.1:
            alts[0] = f"(not {alts[0]})"
        if rnd.random() < 0.1:
            alts.append(atom())
        made.append(f"(or {' '.join(alts)})")
        return made[-1]

    def concept(depth: int) -> str:
        roll = rnd.random()
        if depth <= 0 or roll < 0.2:
            return atom()
        if roll < 0.45:
            return disjunction()
        if roll < 0.55:
            return f"(not {concept(depth - 1)})"
        if roll < 0.7:
            return f"(and {concept(depth - 1)} {concept(depth - 1)})"
        if roll < 0.85:
            return f"(some {rnd.choice(roles)} {concept(depth - 1)})"
        return f"(all {rnd.choice(roles)} {concept(depth - 1)})"

    lines = []
    for _ in range(rnd.randint(2, 6)):
        kind = rnd.random()
        a, b = rnd.choice(classes), rnd.choice(classes)
        if kind < 0.3:
            lines.append(f"(implies {a} {concept(3)})")
        elif kind < 0.5:
            pairs = " ".join(disjunction() for _ in range(rnd.randint(1, 4)))
            lines.append(f"(implies {a} (and (some R (and Q P)) {pairs}))")
            lines.append(f"(implies {a if rnd.random() < 0.5 else b} (all R (not Q)))")
        elif kind < 0.6:
            lines.append(f"(implies {a} (and {disjunction()} (some {rnd.choice(roles)} {b})))")
        elif kind < 0.7:
            lines.append(f"(implies {concept(2)} {concept(2)})")
        elif kind < 0.8:
            lines.append(f"(equivalent {a} {concept(2)})")
        elif kind < 0.9:
            lines.append(f"(implies {a} (and {disjunction()} (all R {disjunction()}) (some R {b})))")
        elif fresh:
            lines.append(f"(implies {rnd.choice(fresh)} {concept(1)})")
    return "\n".join(lines) + "\n"
