"""The corpus draws as they were before they bypassed `Generator.choice`,
kept as an oracle for `ordsel.bench.corpus`: `_random_concept` and
`_plain_text` pick from Python lists with `rng.choice`, which the module
now reproduces draw for draw."""

from __future__ import annotations

import numpy as np

from ordsel.bench.corpus import CorpusSpec



def _random_concept(rng: np.random.Generator, classes: list[str], roles: list[str],
                    depth: int, density: float) -> str:
    kinds = ["atom", "and", "or", "some", "all", "not"]
    probs = np.array([0.35, 0.18, max(density, 0.01), 0.12, 0.08, 0.08])
    if depth <= 0 or not roles:
        probs[3] = probs[4] = 0.0
    if depth <= 0:
        probs[1] = probs[2] = probs[5] = 0.0
    probs = probs / probs.sum()
    kind = rng.choice(kinds, p=probs)
    if kind == "atom":
        return str(rng.choice(classes))
    if kind in ("and", "or"):
        n = int(rng.integers(2, 4))
        parts = " ".join(
            _random_concept(rng, classes, roles, depth - 1, density) for _ in range(n)
        )
        return f"({kind} {parts})"
    if kind in ("some", "all"):
        role = str(rng.choice(roles))
        return f"({kind} {role} {_random_concept(rng, classes, roles, depth - 1, density)})"
    return f"(not {_random_concept(rng, classes, roles, depth - 1, density)})"


def _plain_text(spec: CorpusSpec, rng: np.random.Generator) -> str:
    nc = int(rng.integers(spec.classes[0], spec.classes[1] + 1))
    nr = int(rng.integers(spec.roles[0], spec.roles[1] + 1))
    na = int(rng.integers(spec.axioms[0], spec.axioms[1] + 1))
    qd = int(rng.integers(spec.quantifier_depth[0], spec.quantifier_depth[1] + 1))
    classes = [f"C{i}" for i in range(nc)]
    roles = [f"R{i}" for i in range(nr)]
    lines = []
    for _ in range(na):
        lhs = str(rng.choice(classes))
        rhs = _random_concept(rng, classes, roles, qd, spec.disjunction_density)
        kind = "equivalent" if rng.random() < 0.2 else "implies"
        lines.append(f"({kind} {lhs} {rhs})")
    lines.append(f"(implies {classes[0]} (or {classes[1]} {classes[2]}))")
    return "\n".join(lines) + "\n"

