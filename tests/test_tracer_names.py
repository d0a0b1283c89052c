"""The benchmark's span tracer finds every entry point it wraps.

`perfbench/spans.py` names the traced functions by module and attribute
in `LAYERS`, and its hooks read fields of what they return; a rename in
`ordsel` would make a traced benchmark run fail.  The module imports only
the standard library, so it is loaded here by path."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists(spans):
    assert spans.LAYERS
    missing = [
        f"{modname}.{fname}"
        for modname, fname, _, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []


def test_hooks_read_the_fields_they_trace(spans):
    # Calls go through the module attributes, which the tracer patches.
    from ordsel import dag, heuristics, krss, tableau

    with spans.Tracer() as tracer:
        tracer.phase = spans.CALL
        onto = krss.parse_ontology("(implies A (or B C))\n(implies B (some R D))\n(disjoint C D)")
        odag = heuristics.apply_ordering(dag.encode_dag(onto), heuristics.parse_config("Fdn"))
        tableau.satisfiability_sweep(odag, 1000)
    metrics = tracer.layer_metrics()
    assert metrics["heuristics.order_calls"] == (1, "count")
    assert metrics["tableau.sweeps"] == (1, "count")
    assert metrics["tableau.steps"][0] > 0


def test_tableau_counts_are_search_counts(spans, monkeypatch, inline):
    # every `is_satisfiable` call is one search, so the traced counts are
    # those of the searches
    from ordsel import tableau
    from ordsel.bench import harness
    from ordsel.bench.corpus import CorpusSpec, generate_corpus

    # generating the corpus runs searches of its own, so it comes first
    corpus = [(inst.ontology_id, inst.text) for inst in generate_corpus(CorpusSpec(count=8, seed=7))]
    found = []
    search = tableau._search

    def spy(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(tableau, "_search", spy)
    with spans.Tracer() as tracer:
        tracer.phase = spans.CALL
        harness.run_benchmark(corpus)
    metrics = tracer.layer_metrics()
    assert len(found) == 1031
    assert metrics["tableau.sat_calls"] == (len(found), "count")
    assert metrics["tableau.steps"] == (sum(r.steps for r in found), "count")
