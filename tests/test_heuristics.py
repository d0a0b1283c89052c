"""Disjunct expansion-ordering configurations and child sorting."""

import pytest
from conftest import children_in_order

from ordsel.dag import encode_dag, nondeterministic_vertices
from ordsel.heuristics import (
    CONFIG_NUMBERS,
    CONFIGS,
    LABELS,
    ConfigError,
    apply_ordering,
    config_label,
    default_config,
    parse_config,
    sort_key,
)
from ordsel.krss import parse_ontology

# number -> three-letter label, frozen
NUMBERING = {
    1: "Sap",
    2: "Sdp",
    3: "Fap",
    4: "Fdp",
    5: "Dap",
    6: "Ddp",
    7: "San",
    8: "Sdn",
    9: "Fan",
    10: "Fdn",
    11: "Dan",
    12: "Ddn",
}


def test_config_numbering_is_frozen():
    assert len(CONFIGS) == 12
    assert LABELS == tuple(NUMBERING[i] for i in range(1, 13))
    assert CONFIG_NUMBERS == tuple(str(i) for i in range(1, 13))
    for i, cfg in enumerate(CONFIGS, start=1):
        assert cfg.number == i
        assert cfg.label == NUMBERING[i]
        assert cfg.prefer_generating is (i <= 6)


def test_parse_config_accepts_labels_numbers_and_none():
    for i, label in NUMBERING.items():
        assert parse_config(str(i)) is CONFIGS[i - 1]
        assert parse_config(label) is CONFIGS[i - 1]
    assert parse_config("0") is None
    assert config_label(None) == "0"
    assert config_label(CONFIGS[0]) == "Sap"


@pytest.mark.parametrize("bad", ["13", "-1", "Zap", "", "sap "])
def test_parse_config_rejects_unknown(bad):
    with pytest.raises(ConfigError):
        parse_config(bad)


def _stats(size=1, depth=0, frequency=1, generating=False):
    from ordsel.dag import ConceptStats

    return ConceptStats(size=size, depth=depth, frequency=frequency, generating=generating)


def test_sort_key_direction_and_preference():
    asc = parse_config("Sap")
    desc = parse_config("Sdp")
    neutral = parse_config("San")

    small = sort_key(_stats(size=2), asc, 0)
    large = sort_key(_stats(size=9), asc, 1)
    assert small < large
    small_d = sort_key(_stats(size=2), desc, 0)
    large_d = sort_key(_stats(size=9), desc, 1)
    assert large_d < small_d

    # preference field: generating disjuncts jump the queue only under "p"
    gen = sort_key(_stats(size=9, generating=True), asc, 1)
    nongen = sort_key(_stats(size=2), asc, 0)
    assert gen < nongen
    gen_n = sort_key(_stats(size=9, generating=True), neutral, 1)
    nongen_n = sort_key(_stats(size=2), neutral, 0)
    assert nongen_n < gen_n


def test_sort_key_breaks_ties_by_position():
    cfg = parse_config("Sap")
    first = sort_key(_stats(size=3), cfg, 0)
    second = sort_key(_stats(size=3), cfg, 1)
    assert first < second


def test_apply_ordering_none_is_identity():
    d = encode_dag(parse_ontology("(implies A (or C D E F))"))
    odag = apply_ordering(d, None)
    for vid in nondeterministic_vertices(d):
        assert children_in_order(odag, vid) == list(d.vertices[vid].children)


def test_apply_ordering_sorts_disjuncts():
    # or(big, small) where big = (and C D E), small = F
    d = encode_dag(parse_ontology("(implies A (or (and C D E) F))"))
    (vid,) = nondeterministic_vertices(d)

    def sizes(cfg_text):
        perm = apply_ordering(d, parse_config(cfg_text)).permutations[vid]
        return [d.vertices[vid].child_stats[i].size for i in perm]

    assert sizes("Sap") == sorted(sizes("Sap"))
    assert sizes("Sdp") == sorted(sizes("Sdp"), reverse=True)
    assert sizes("Sap") == list(reversed(sizes("Sdp")))


def test_apply_ordering_prefers_generating_disjuncts():
    # Stats are read off the stored graph, where generating means a negated
    # edge into a value-restriction vertex: inside a disjunction that is the
    # disjunct written as a universal.  It is larger here, yet "p" configs
    # move it first; the neutral "n" twin sorts by size alone.
    text = "(implies A (or (all R (and C D E)) F))"
    d = encode_dag(parse_ontology(text))
    (vid,) = nondeterministic_vertices(d)
    prefer = apply_ordering(d, parse_config("Sap"))
    neutral = apply_ordering(d, parse_config("San"))
    stats = d.vertices[vid].child_stats
    first_pref = stats[prefer.permutations[vid][0]]
    first_neut = stats[neutral.permutations[vid][0]]
    assert first_pref.generating
    assert not first_neut.generating


def test_permutations_cover_every_conjunction_vertex():
    d = encode_dag(parse_ontology("(implies A (or C D))\n(implies B (and E F))"))
    odag = apply_ordering(d, parse_config("Sap"))
    and_vertices = [vid for vid, v in enumerate(d.vertices) if v.op == "and"]
    assert set(odag.permutations) == set(and_vertices)
    for vid in and_vertices:
        perm = odag.permutations[vid]
        assert sorted(perm) == list(range(len(d.vertices[vid].children)))


class _Fv(dict):
    def __getitem__(self, key):
        return self.get(key, 0.0)


def test_default_config_rule():
    gci_rich = _Fv(numGCIs=150.0, numInstances=3.0, numNominals=0.0)
    assert default_config(gci_rich).label == "Fdn"
    plain = _Fv(numGCIs=0.0, numInstances=0.0, numNominals=0.0)
    assert default_config(plain).label == "Sap"
    # the bounds are fixed and inclusive
    assert default_config(_Fv(numGCIs=100.0, numInstances=10.0)).label == "Fdn"
    assert default_config(_Fv(numGCIs=99.0, numInstances=0.0)).label == "Sap"
    assert default_config(_Fv(numGCIs=150.0, numInstances=11.0)).label == "Sap"
