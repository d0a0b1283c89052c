"""The corpus generator's draws against `corpus_oracle`, which picks with
`rng.choice`: the plain texts must agree character for character, so the
corpus of every spec and seed is unchanged."""

import numpy as np
import pytest

import corpus_oracle
from ordsel.bench import corpus
from ordsel.bench.corpus import CorpusSpec
from ordsel.dag import encode_dag, nondeterministic_vertices
from ordsel.krss import parse_ontology

# the default spec, and specs varying the weights (a density of 0 is
# floored at 0.01), the roles (none at all in some texts) and the depth
SPECS = [
    CorpusSpec(),
    CorpusSpec(disjunction_density=0.6),
    CorpusSpec(disjunction_density=0.0, roles=(0, 2)),
    CorpusSpec(roles=(2, 5), quantifier_depth=(0, 4)),
]


KEYS = [(seed, idx, attempt) for seed in (0, 42, 987654) for idx in range(30) for attempt in range(3)]


@pytest.mark.parametrize("spec", SPECS)
def test_plain_texts_match_the_choice_oracle(spec):
    for key in KEYS:
        want = corpus_oracle._plain_text(spec, np.random.default_rng(key))
        assert corpus._plain_text(spec, np.random.default_rng(key)) == want, key


@pytest.mark.parametrize("spec", SPECS)
def test_plain_texts_parse_with_a_nondeterministic_vertex(spec):
    # what the generator's acceptance check relies on without testing it:
    # well-formed forms only, and (implies C0 (or C1 C2)) in every text
    for key in KEYS:
        d = encode_dag(parse_ontology(corpus._plain_text(spec, np.random.default_rng(key))))
        assert nondeterministic_vertices(d), key
