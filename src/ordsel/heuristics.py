"""Disjunct expansion-ordering heuristics.

A configuration is a 3-character label: metric (S=size, F=frequency,
D=quantifier depth), direction (a=ascending, d=descending), and whether
children that act as existential restrictions are preferred (p) or not
(n).  The twelve labels, numbered 1..12:

     1 Sap   2 Sdp   3 Fap   4 Fdp   5 Dap   6 Ddp
     7 San   8 Sdn   9 Fan  10 Fdn  11 Dan  12 Ddn

``"0"`` (or ``None``) means no sorting: children stay in encoding order.
Ordering a DAG reorders the children of every ``and`` vertex; through the
negation convention this fixes the order in which the tableau tries the
disjuncts of a vertex used negatively.  Keys are compared
lexicographically: generating rank (only under p), the metric value of
the signed child (negated for descending), then the original position,
which keeps the sort stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import AND, ConceptStats, Dag

SIZE = "size"
DEPTH = "depth"
FREQUENCY = "frequency"

ASCENDING = "ascending"
DESCENDING = "descending"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class HeuristicConfig:
    metric: str
    direction: str
    prefer_generating: bool

    @property
    def label(self) -> str:
        m = {SIZE: "S", FREQUENCY: "F", DEPTH: "D"}[self.metric]
        d = "a" if self.direction == ASCENDING else "d"
        return m + d + ("p" if self.prefer_generating else "n")

    @property
    def number(self) -> int:
        return CONFIGS.index(self) + 1


def _make_configs() -> tuple[HeuristicConfig, ...]:
    out = []
    for p in (True, False):
        for metric in (SIZE, FREQUENCY, DEPTH):
            for direction in (ASCENDING, DESCENDING):
                out.append(HeuristicConfig(metric, direction, p))
    return tuple(out)


CONFIGS: tuple[HeuristicConfig, ...] = _make_configs()
LABELS: tuple[str, ...] = tuple(c.label for c in CONFIGS)
CONFIG_NUMBERS: tuple[str, ...] = tuple(str(i) for i in range(1, len(CONFIGS) + 1))


def parse_config(text: str) -> HeuristicConfig | None:
    """Label or config number to configuration; "0" means no sorting."""
    t = text.strip()
    if t == "0":
        return None
    if t in LABELS:
        return CONFIGS[LABELS.index(t)]
    if t in CONFIG_NUMBERS:
        return CONFIGS[int(t) - 1]
    raise ConfigError(f"unknown ordering config {text!r}")


def config_label(cfg: HeuristicConfig | None) -> str:
    return "0" if cfg is None else cfg.label


def sort_key(stats: ConceptStats, cfg: HeuristicConfig, position: int) -> tuple[int, int, int]:
    grank = 0 if stats.generating or not cfg.prefer_generating else 1
    value = getattr(stats, cfg.metric)  # metric names are ConceptStats fields
    if cfg.direction == DESCENDING:
        value = -value
    return (grank, value, position)


@dataclass(frozen=True, eq=False)
class OrderedDag:
    """A DAG with one child permutation per ``and`` vertex.

    Compared and hashed by identity, so per-ordering caches can key on it.
    """

    dag: Dag
    config: HeuristicConfig | None
    permutations: dict[int, tuple[int, ...]]


def apply_ordering(d: Dag, cfg: HeuristicConfig | None) -> OrderedDag:
    """Compute child permutations for every ``and`` vertex.

    With ``cfg=None`` every permutation is the identity.  The sort is
    total and deterministic; ties fall back to the original position.
    """
    perms: dict[int, tuple[int, ...]] = {}
    for vid, v in enumerate(d.vertices):
        if v.op != AND:
            continue
        order = range(len(v.children))
        if cfg is not None:
            stats = v.child_stats
            order = sorted(order, key=lambda i: sort_key(stats[i], cfg, i))
        perms[vid] = tuple(order)
    return OrderedDag(dag=d, config=cfg, permutations=perms)


DEFAULT_MIN_GCIS = 100


def default_config(d: Dag) -> HeuristicConfig:
    """Profile-based fallback configuration chosen without any learning.

    A DAG with at least ``DEFAULT_MIN_GCIS`` general inclusions gets Fdn;
    everything else gets Sap.  The paper's rule also asks for at most 10
    instances, which always holds here: every command that orders refuses
    an ABox assertion first (``tableau.check_supported``).
    """
    return parse_config("Fdn" if len(d.gci_refs) >= DEFAULT_MIN_GCIS else "Sap")
