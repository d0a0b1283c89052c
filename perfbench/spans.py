"""Span tracing of ordsel's layers, installed from outside the package.

`Tracer.install()` replaces each public entry point listed in `LAYERS`
with a wrapper in every namespace that holds it (the defining module,
every ordsel module that imported it by name, and the benchmark's
`workloads` module), and `uninstall()` puts the
originals back.  A span records its name, start, end, parent span and the
phase it ran in ("setup" or "call"); hooks attached to some entry points
count the work their results describe.  Nothing is written until
`layer_metrics()` turns the spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

SETUP = "setup"
CALL = "call"


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --------------------------------------------------------------- hooks
# Each hook sees the wrapped call's arguments and result and stores what the
# layer metrics need in the span's `info`.


def _parse_hook(span, args, kwargs, result):
    span.info["axioms"] = len(result.tbox) + len(result.rbox) + len(result.abox)


def _encode_hook(span, args, kwargs, result):
    span.info["vertices"] = len(result.vertices)


def _ordering_hook(span, args, kwargs, result):
    span.info["dag"] = result.dag
    span.info["fingerprint"] = hash(tuple(sorted(result.permutations.items())))


def _sat_hook(span, args, kwargs, result):
    span.info["steps"] = result.steps
    span.info["branch_points"] = result.branch_points
    span.info["outcome"] = result.outcome


def _sweep_hook(span, args, kwargs, result):
    cfg = args[0].config
    span.info["config"] = "0" if cfg is None else str(cfg.number)
    span.info["steps"] = result.total_steps


def _corpus_hook(span, args, kwargs, result):
    span.info["instances"] = len(result)


def _mi_hook(span, args, kwargs, result):
    x, y = args[0], args[1]
    h = hashlib.blake2b(digest_size=16)
    for a in (x, y):
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    span.info["input"] = h.digest()


def _svm_train_hook(span, args, kwargs, result):
    span.info["rows"] = len(result.alpha)
    span.info["support"] = int((result.alpha > 0).sum())


def _save_bundle_hook(span, args, kwargs, result):
    span.info["bytes"] = os.path.getsize(args[1])


# (module, function, span name, hook).  One line per traced entry point; the
# span name's prefix before the first "." is the layer.
LAYERS: tuple[tuple[str, str, str, object], ...] = (
    ("ordsel.krss", "parse_ontology", "krss.parse", _parse_hook),
    ("ordsel.dag", "encode_dag", "dag.encode", _encode_hook),
    ("ordsel.features", "extract_features", "features.extract", None),
    ("ordsel.heuristics", "apply_ordering", "heuristics.order", _ordering_hook),
    ("ordsel.tableau", "satisfiability_sweep", "tableau.sweep", _sweep_hook),
    ("ordsel.tableau", "is_satisfiable", "tableau.sat", _sat_hook),
    ("ordsel.bench.corpus", "generate_corpus", "corpus.generate", _corpus_hook),
    ("ordsel.bench.harness", "run_pipeline", "harness.run_pipeline", None),
    ("ordsel.bench.harness", "run_benchmark", "harness.run_benchmark", None),
    ("ordsel.bench.harness", "filter_eligible", "harness.filter", None),
    ("ordsel.bench.harness", "split_train_test", "harness.split", None),
    ("ordsel.bench.harness", "speedup_report", "harness.report", None),
    ("ordsel.bench.harness", "render_report", "harness.report", None),
    ("ordsel.learn.transforms", "mutual_information", "transforms.mi", _mi_hook),
    ("ordsel.learn.transforms", "pca_fit", "transforms.pca_fit", None),
    ("ordsel.learn.svm", "svm_train", "svm.train", _svm_train_hook),
    ("ordsel.learn.svm", "svm_predict", "svm.predict", None),
    ("ordsel.learn.pipeline", "train_model_bundle", "pipeline.train_bundle", None),
    ("ordsel.learn.pipeline", "grid_search", "pipeline.grid_search", None),
    ("ordsel.learn.pipeline", "cross_validate", "pipeline.cv", None),
    ("ordsel.learn.pipeline", "select_heuristic", "pipeline.select", None),
    ("ordsel.learn.pipeline", "save_bundle", "pipeline.save_bundle", _save_bundle_hook),
    ("ordsel.runtimes", "read_runtime_csv", "runtimes.read", None),
)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = SETUP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, fn, name: str, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.phase, 0.0)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None
            and (modname in ("ordsel", "workloads") or modname.startswith("ordsel."))
        ]
        for modname, fname, span_name, hook in LAYERS:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, span_name, hook)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- metrics

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover.  Child
        spans of one parent never overlap (one thread), so coverage is the
        sum of their durations."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; a layer the workload never called reads 0."""
        call = [s for s in self.spans if s.phase == CALL]
        setup = [s for s in self.spans if s.phase == SETUP]
        by_name: dict[str, list[Span]] = {}
        for s in call:
            by_name.setdefault(s.name, []).append(s)

        def spans(name, pool=None):
            if pool is None:
                return by_name.get(name, [])
            return [s for s in pool if s.name == name]

        def busy(name, pool=None):
            return sum(s.duration for s in spans(name, pool))

        def total(name, key, pool=None):
            return sum(s.info[key] for s in spans(name, pool))

        out: dict[str, tuple[float, str]] = {}

        sweeps = spans("tableau.sweep")
        sats = spans("tableau.sat")
        sat_s = busy("tableau.sat")
        steps = total("tableau.sat", "steps")
        sweep_ms = sorted(s.duration * 1e3 for s in sweeps)
        out["tableau.sweep_s"] = (busy("tableau.sweep"), "s")
        out["tableau.sat_s"] = (sat_s, "s")
        out["tableau.sweeps"] = (len(sweeps), "count")
        out["tableau.sat_calls"] = (len(sats), "count")
        out["tableau.steps"] = (steps, "count")
        out["tableau.branch_points"] = (total("tableau.sat", "branch_points"), "count")
        out["tableau.timeouts"] = (
            sum(s.info["outcome"] == "budget-exceeded" for s in sats), "count"
        )
        out["tableau.steps_per_s"] = (steps / sat_s if sat_s else 0.0, "steps/s")
        out["tableau.sweep_p50_ms"] = (percentile(sweep_ms, 0.50), "ms")
        out["tableau.sweep_p99_ms"] = (percentile(sweep_ms, 0.99), "ms")
        out["tableau.steps_seconds_rho"] = (
            spearman([s.info["steps"] for s in sweeps], [s.duration for s in sweeps]), "rho"
        )
        for c in range(1, 13):
            own = [s for s in sweeps if s.info["config"] == str(c)]
            out[f"tableau.steps_seconds_rho.c{c}"] = (
                spearman([s.info["steps"] for s in own], [s.duration for s in own]), "rho"
            )

        orderings = spans("heuristics.order")
        distinct = {(id(s.info["dag"]), s.info["fingerprint"]) for s in orderings}
        out["heuristics.order_s"] = (busy("heuristics.order"), "s")
        out["heuristics.order_calls"] = (len(orderings), "count")
        out["heuristics.distinct_ordering_ratio"] = (ratio(len(distinct), len(orderings)), "ratio")

        out["dag.encode_s"] = (busy("dag.encode"), "s")
        out["dag.encode_calls"] = (len(spans("dag.encode")), "count")
        out["dag.vertices"] = (total("dag.encode", "vertices"), "count")
        out["krss.parse_s"] = (busy("krss.parse"), "s")
        out["krss.axioms"] = (total("krss.parse", "axioms"), "count")
        out["features.extract_s"] = (busy("features.extract"), "s")
        out["features.extract_calls"] = (len(spans("features.extract")), "count")

        # Corpus generation and table reads are set-up work.
        out["corpus.generate_s"] = (busy("corpus.generate", setup), "s")
        out["corpus.instances"] = (total("corpus.generate", "instances", setup), "count")
        out["runtimes.read_s"] = (busy("runtimes.read", setup) + busy("runtimes.read"), "s")

        self_time = self.self_times()
        out["harness.run_benchmark_s"] = (busy("harness.run_benchmark"), "s")
        out["harness.run_benchmark_self_s"] = (
            sum(t for s, t in zip(self.spans, self_time)
                if s.phase == CALL and s.name == "harness.run_benchmark"),
            "s",
        )
        out["harness.filter_s"] = (busy("harness.filter"), "s")
        out["harness.split_s"] = (busy("harness.split"), "s")
        out["harness.report_s"] = (busy("harness.report"), "s")

        mis = spans("transforms.mi")
        out["transforms.mi_s"] = (busy("transforms.mi"), "s")
        out["transforms.mi_calls"] = (len(mis), "count")
        out["transforms.mi_distinct_ratio"] = (
            ratio(len({s.info["input"] for s in mis}), len(mis)), "ratio"
        )
        out["transforms.pca_fit_s"] = (busy("transforms.pca_fit"), "s")
        out["transforms.pca_fit_calls"] = (len(spans("transforms.pca_fit")), "count")

        out["svm.train_s"] = (busy("svm.train"), "s")
        out["svm.train_calls"] = (len(spans("svm.train")), "count")
        out["svm.predict_s"] = (busy("svm.predict"), "s")
        out["svm.support_fraction"] = (
            ratio(total("svm.train", "support"), total("svm.train", "rows")), "ratio"
        )

        out["pipeline.cv_s"] = (busy("pipeline.cv"), "s")
        out["pipeline.cv_calls"] = (len(spans("pipeline.cv")), "count")
        out["pipeline.grid_search_s"] = (busy("pipeline.grid_search"), "s")
        out["pipeline.select_s"] = (busy("pipeline.select"), "s")
        out["pipeline.bundle_bytes"] = (total("pipeline.save_bundle", "bytes"), "bytes")

        out["trace.spans"] = (len(call), "count")
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(a: list[float], b: list[float]) -> float:
    """Spearman rank correlation with average ranks for ties; 0 when either
    side has fewer than three values or no spread."""
    if len(a) < 3:
        return 0.0
    ra, rb = _ranks(a), _ranks(b)
    try:
        return statistics.correlation(ra, rb)
    except statistics.StatisticsError:
        return 0.0
