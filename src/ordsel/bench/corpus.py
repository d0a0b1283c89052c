"""Deterministic synthetic corpus generation.

Two kinds of ontology are emitted.  Plain instances are small random
terminologies on which every expansion ordering is cheap.  Ordering-sensitive
instances contain a trap disjunction: one disjunct ("doom") hides an
exponentially expensive refutation, the other ("safe") is trivially
satisfiable, and the two are dressed with controlled size, depth, frequency,
and quantifier shape so that a known subset of the twelve orderings explores
the doom branch first.  Which subset is fast is decided by the instance's
trap family; each family leaves a distinctive global feature signature
(a per-family count of disjointness marker axioms among others), and across
families every ordering is fast on some instances and slow on others.

The expensive branch is a conditional bomb split over two atoms: B entails
an R-successor plus a width-``t`` block of independent binary disjunctions,
K entails a universal guard contradicting that successor.  Each atom alone
is satisfiable in a handful of steps (the class sweep stays cheap), but the
conjunction B ⊓ K is unsatisfiable, and refuting it forces all 2^t
disjunction combinations before every branch clashes.  "Warm" traps finish
within a generous step budget; "hot" traps are sized to exhaust it.

Everything is a function of the spec's seed: instance ``i`` draws from a
generator keyed on ``(seed, i)``, so corpora are reproducible byte for byte.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..dag import encode_dag, nondeterministic_vertices
from ..heuristics import apply_ordering
from ..krss import ParseError, parse_ontology
from ..tableau import SATISFIABLE, check_tbox_consistency, satisfiability_sweep


class GenerationError(RuntimeError):
    """Raised when a valid instance cannot be produced in bounded attempts."""


# The largest value each size field accepts, for a pair or list each of
# its values.  Plain texts grow geometrically with quantifier depth, and
# the default hot width, 13, already exhausts the reference step budget.
SIZE_LIMITS = {"count": 10_000, "all_timeout_count": 10_000, "classes": 1_000, "axioms": 1_000,
               "roles": 100, "quantifier_depth": 10, "warm_widths": 64, "hot_width": 64}


@dataclass(frozen=True)
class CorpusSpec:
    """Corpus parameters.  A size past its `SIZE_LIMITS` entry (``count``
    and ``all_timeout_count`` 10,000, ``classes`` and ``axioms`` 1,000,
    ``roles`` 100, ``quantifier_depth`` 10, each width 64), like a value of
    the wrong type or out of range, raises ``ValueError``."""

    count: int = 150
    seed: int = 0
    classes: tuple[int, int] = (4, 9)
    roles: tuple[int, int] = (1, 3)
    axioms: tuple[int, int] = (4, 12)
    disjunction_density: float = 0.25
    quantifier_depth: tuple[int, int] = (1, 3)
    sensitive_fraction: float = 0.5
    hot_fraction: float = 0.5
    warm_widths: tuple[int, ...] = (10,)
    hot_width: int = 13
    all_timeout_count: int = 2

    def __post_init__(self):
        for name in ("count", "seed", "all_timeout_count"):
            _check_int(name, getattr(self, name))
        _check_int("hot_width", self.hot_width, least=1)
        for name in ("classes", "roles", "axioms", "quantifier_depth"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"corpus spec {name} must be a [low, high] pair, got {pair!r}")
            for value in pair:
                _check_int(name, value)
            if pair[0] > pair[1]:
                raise ValueError(f"empty range in corpus spec: {name} {list(pair)}")
        if self.classes[0] < 3:
            raise ValueError("need at least 3 classes for guaranteed disjunctions")
        for name in ("disjunction_density", "sensitive_fraction", "hot_fraction"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0 <= value <= 1:
                raise ValueError(f"corpus spec {name} must be a number in [0, 1], got {value!r}")
        if not isinstance(self.warm_widths, (tuple, list)) or not self.warm_widths:
            raise ValueError("need at least one warm trap width")
        for value in self.warm_widths:
            _check_int("warm_widths", value, least=1)


def _check_int(name: str, value, least: int = 0) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"corpus spec {name} must be an integer >= {least}, got {value!r}")
    if value > SIZE_LIMITS.get(name, value):
        raise ValueError(f"corpus spec {name} must be at most {SIZE_LIMITS[name]}, got {value!r}")


@dataclass(frozen=True)
class CorpusInstance:
    ontology_id: str
    text: str
    family: int | None  # trap family index, None for plain instances


# Trap families.  "fast" lists the configuration numbers that satisfy the
# trap without detonating it; the complement pays the exponential branch.
_BIG_DOOM = 0      # doom large on all metrics      -> ascending orders are fast
_BIG_SAFE = 1      # safe large on all metrics      -> descending orders are fast
_GEN_SAFE = 2      # safe is the generating branch  -> "p" configs always fast
_GEN_DOOM = 3      # doom is the generating branch  -> "p" configs always slow
_MIXED = 4         # metrics disagree               -> fast set mixes directions
_ALL_DOOM = 5      # both disjuncts doom            -> every config times out

FAMILY_FAST: dict[int, frozenset[int]] = {
    _BIG_DOOM: frozenset({1, 3, 5, 7, 9, 11}),
    _BIG_SAFE: frozenset({2, 4, 6, 8, 10, 12}),
    _GEN_SAFE: frozenset({1, 2, 3, 4, 5, 6, 8, 10, 12}),
    _GEN_DOOM: frozenset({8, 10, 12}),
    _MIXED: frozenset({1, 4, 6, 7, 10, 12}),
    _ALL_DOOM: frozenset(),
}

_FAMILY_CYCLE = (
    _BIG_SAFE,
    _GEN_DOOM,
    _BIG_DOOM,
    _BIG_SAFE,
    _GEN_DOOM,
    _GEN_SAFE,
    _MIXED,
)


def _bomb_atoms(width: int, prefix: str) -> list[str]:
    """Definitions of the two bomb halves.  Each half is satisfiable in a few
    steps on its own; their conjunction forces 2^width failing combinations.
    The successor concept is a conjunction and the guard forbids only one of
    its conjuncts, so the contradiction surfaces inside the generated
    successor rather than as a complement pair in the parent label."""
    pairs = " ".join(f"(or {prefix}x{i} {prefix}x{i}b)" for i in range(width))
    return [
        f"(implies {prefix}B (and (some {prefix}R (and {prefix}Qa {prefix}Qb)) {pairs}))",
        f"(implies {prefix}K (all {prefix}R (not {prefix}Qa)))",
    ]


def _doom(prefix: str) -> str:
    return f"(and {prefix}B {prefix}K)"


def _pad_atoms(n: int, prefix: str) -> str:
    return " ".join(f"{prefix}P{i}" for i in range(n))


def _depth_pad(depth: int, prefix: str) -> str:
    """Universal chain over an otherwise unused role: adds depth, never fires."""
    core = f"{prefix}DP"
    for _ in range(depth):
        core = f"(all {prefix}R2 {core})"
    return core


def _succ_chain(depth: int, prefix: str) -> str:
    core = f"{prefix}Ok"
    for _ in range(depth):
        core = f"(some {prefix}T {core})"
    return core


def _family_axioms(family: int, width: int, rng: np.random.Generator) -> list[str]:
    """The trap axiom plus its supporting definitions for one family."""
    ax: list[str] = _bomb_atoms(width, "B")
    if family == _BIG_DOOM:
        doom = f"(and BB BK {_pad_atoms(20, 'D')} {_depth_pad(3, 'D')})"
        safe = "SafeAtom"
        ax.append(f"(implies Trap (and (some S M) (or {doom} {safe})))")
        for i in range(4):
            ax.append(f"(implies Z{i} (not {doom}))")
    elif family == _BIG_SAFE:
        safe = f"(and SafeOk {_pad_atoms(15, 'S')} {_depth_pad(3, 'S')})"
        ax.append(f"(implies Trap (and (some S M) (or {_doom('B')} {safe})))")
        for i in range(4):
            ax.append(f"(implies Z{i} (not {safe}))")
    elif family == _GEN_SAFE:
        safe = f"(all S (and SafeOk {_pad_atoms(10, 'S')}))"
        ax.append(f"(implies Trap (and (some S M) (or {_doom('B')} {safe})))")
        for i in range(4):
            ax.append(f"(implies Z{i} (not {safe}))")
    elif family == _GEN_DOOM:
        doom = f"(all S {_doom('B')})"
        safe = f"(and SafeOk {_pad_atoms(15, 'S')} {_depth_pad(3, 'S')})"
        ax.append(f"(implies Trap (and (some S M) (or {doom} {safe})))")
        for i in range(4):
            ax.append(f"(implies Z{i} (not {safe}))")
    elif family == _MIXED:
        doom = f"(and BB BK {_pad_atoms(12, 'D')})"
        safe = _succ_chain(3, "S")
        ax.append(f"(implies Trap (and (some S M) (or {doom} {safe})))")
        for i in range(4):
            ax.append(f"(implies Z{i} {safe})")
    elif family == _ALL_DOOM:
        ax.extend(_bomb_atoms(width, "C"))
        ax.append(f"(implies Trap (and (some S M) (or {_doom('B')} {_doom('C')})))")
    else:
        raise ValueError(f"unknown trap family {family}")
    # Family signature: a distinctive number of disjointness markers.
    for i in range(family + 1):
        ax.append(f"(disjoint MkA{i} MkB{i})")
    # A couple of seed-dependent filler axioms so same-family instances differ.
    for i in range(int(rng.integers(1, 4))):
        ax.append(f"(implies Fill{i} (and Fill{i}a Fill{i}b))")
    return ax


_KINDS = ("atom", "and", "or", "some", "all", "not")


def _random_concept(rng: np.random.Generator, classes: list[str], roles: list[str],
                    depth: int, cdf: list[float]) -> str:
    """A random concept.  Each pick draws what `rng.choice` draws: one
    `integers(len)` for a list item, one `random()` searched in the
    normalised cumulative weights ``cdf`` for a kind (at depth 0 only the
    atom has weight)."""
    u = rng.random()
    kind = _KINDS[bisect_right(cdf, u)] if depth > 0 else "atom"
    if kind == "atom":
        return classes[rng.integers(len(classes))]
    if kind in ("and", "or"):
        n = int(rng.integers(2, 4))
        parts = " ".join(_random_concept(rng, classes, roles, depth - 1, cdf) for _ in range(n))
        return f"({kind} {parts})"
    if kind in ("some", "all"):
        role = roles[rng.integers(len(roles))]
        return f"({kind} {role} {_random_concept(rng, classes, roles, depth - 1, cdf)})"
    return f"(not {_random_concept(rng, classes, roles, depth - 1, cdf)})"


def _plain_text(spec: CorpusSpec, rng: np.random.Generator) -> str:
    nc = int(rng.integers(spec.classes[0], spec.classes[1] + 1))
    nr = int(rng.integers(spec.roles[0], spec.roles[1] + 1))
    na = int(rng.integers(spec.axioms[0], spec.axioms[1] + 1))
    qd = int(rng.integers(spec.quantifier_depth[0], spec.quantifier_depth[1] + 1))
    classes = [f"C{i}" for i in range(nc)]
    roles = [f"R{i}" for i in range(nr)]
    # the weights of `_KINDS`, normalised as `Generator.choice` does
    probs = np.array([0.35, 0.18, max(spec.disjunction_density, 0.01), 0.12, 0.08, 0.08])
    if not roles:
        probs[3] = probs[4] = 0.0
    cdf = (probs / probs.sum()).cumsum()
    cdf = (cdf / cdf[-1]).tolist()
    lines = []
    for _ in range(na):
        lhs = classes[rng.integers(nc)]
        rhs = _random_concept(rng, classes, roles, qd, cdf)
        kind = "equivalent" if rng.random() < 0.2 else "implies"
        lines.append(f"({kind} {lhs} {rhs})")
    lines.append(f"(implies {classes[0]} (or {classes[1]} {classes[2]}))")
    return "\n".join(lines) + "\n"


def _sensitive_text(spec: CorpusSpec, family: int, rng: np.random.Generator) -> str:
    if family == _ALL_DOOM:
        width = spec.hot_width
    elif rng.random() < spec.hot_fraction:
        width = spec.hot_width
    else:
        width = int(rng.choice(spec.warm_widths))
    return "\n".join(_family_axioms(family, width, rng)) + "\n"


def _validate(text: str, check_budget: int, full_sweep: bool = False) -> str | None:
    """None when the instance is acceptable, else a reason string."""
    try:
        onto = parse_ontology(text)
    except ParseError as exc:
        return f"parse failure: {exc}"
    d = encode_dag(onto)
    if not nondeterministic_vertices(d):
        return "no nondeterministic vertex"
    odag = apply_ordering(d, None)
    result = check_tbox_consistency(odag, check_budget)
    if result.outcome != SATISFIABLE:
        return f"consistency check: {result.outcome}"
    if full_sweep and satisfiability_sweep(odag, check_budget).timed_out:
        return "sweep budget exceeded"
    return None


def generate_corpus(spec: CorpusSpec) -> list[CorpusInstance]:
    """Deterministically generate the corpus described by `spec`.

    Every returned instance parses, has a consistent terminology, and
    contains at least one nondeterministic vertex.  Ordering-sensitive
    instances (including the deliberately hopeless all-timeout ones) are
    deterministic templates, so many repeat an earlier text and each
    distinct one is validated once per call; plain instances are retried
    under fresh subseeds until valid, and a `GenerationError` reports a
    slot whose attempts are exhausted.
    """
    n_sensitive = round(spec.count * spec.sensitive_fraction)
    n_all_doom = min(spec.all_timeout_count, n_sensitive)
    instances: list[CorpusInstance] = []
    valid: set[str] = set()  # sensitive texts already validated in this call
    for idx in range(spec.count):
        if idx < n_sensitive:
            if idx < n_all_doom:
                family = _ALL_DOOM
            else:
                family = _FAMILY_CYCLE[(idx - n_all_doom) % len(_FAMILY_CYCLE)]
            rng = np.random.default_rng([spec.seed, idx])
            text = _sensitive_text(spec, family, rng)
            if text not in valid:
                reason = _validate(text, check_budget=4000)
                if reason is not None:
                    raise GenerationError(f"instance {idx} (family {family}): {reason}")
                valid.add(text)
            instances.append(CorpusInstance(f"ont{idx:04d}", text, family))
        else:
            for attempt in range(50):
                rng = np.random.default_rng([spec.seed, idx, attempt])
                text = _plain_text(spec, rng)
                if _validate(text, check_budget=4000, full_sweep=True) is None:
                    instances.append(CorpusInstance(f"ont{idx:04d}", text, None))
                    break
            else:
                raise GenerationError(f"no valid plain instance for slot {idx} in 50 attempts")
    return instances
