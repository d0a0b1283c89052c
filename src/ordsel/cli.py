"""Command-line interface.

One subcommand per pipeline stage plus an end-to-end ``pipeline`` driver:

    sat         satisfiability of one class (or TBox consistency)
    sweep       per-class satisfiability sweep, CSV output
    features    39-feature vector of one ontology, CSV output
    gen-corpus  seeded synthetic corpus written as .krss files
    bench       step-count benchmark of every ordering over a corpus
    filter      eligibility filter with exclusion log
    split       seeded train/test id split
    train       threshold + per-ordering classifiers + priorities
    predict     per-ontology ordering choice from a trained model
    report      speedup aggregates of learned vs. standard cost tables
    pipeline    corpus -> bench -> filter -> split -> train -> report

Exit status is 0 on success and 2 on any validation error (bad arguments,
unparsable input, malformed CSV, model version mismatch).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench.corpus import CorpusSpec, GenerationError, generate_corpus
from .bench.harness import (
    DEFAULT_LABEL,
    check_split,
    check_test_fraction,
    filter_eligible,
    run_benchmark,
    run_pipeline,
    speedup_report,
    split_train_test,
)
from .dag import encode_dag
from .features import (
    FEATURE_NAMES,
    extract_features,
    profile_features,
    read_feature_csv,
    write_feature_csv,
)
from .heuristics import (
    CONFIG_NUMBERS,
    CONFIGS,
    apply_ordering,
    config_label,
    default_config,
    parse_config,
)
from .krss import parse_ontology
from .learn.pipeline import (
    GridPoint,
    check_folds,
    load_bundle,
    save_bundle,
    select_heuristic,
    train_model_bundle,
)
from .runtimes import read_runtime_csv, write_csv, write_runtime_csv
from .tableau import (
    check_budget,
    check_supported,
    check_tbox_consistency,
    class_ref,
    is_satisfiable,
    satisfiability_sweep,
)


class CliError(ValueError):
    """Validation failure mapped to exit status 2."""


SWEEP_HEADER = ["class", "outcome", "steps"]
EXCLUSION_HEADER = ["id", "reason"]
ID_HEADER = ["id"]
SELECTION_HEADER = ["id", "config", "label"]


# The reduced hyperparameter grid used by --quick: one point per kernel
# family with mid-range capacity, enough to separate crisp labelings fast.
QUICK_GRID = [
    GridPoint(10, 5, "linear", 1.0),
    GridPoint(10, 5, "linear", 10.0),
    GridPoint(5, 2, "linear", 1.0),
    GridPoint(39, 10, "rbf", 10.0, 0.1),
]


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_ontology(path: str):
    onto = parse_ontology(_read_text(path))
    return onto, encode_dag(onto)


def _ordered(dag, onto, config_text: str):
    if config_text == DEFAULT_LABEL:
        cfg = default_config(profile_features(onto, dag))
    else:
        cfg = parse_config(config_text)
    return apply_ordering(dag, cfg)


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _cost_table(path: str) -> dict[str, tuple[float, str]]:
    """One-(cost,outcome)-per-ontology table from a runtime CSV."""
    table: dict[str, tuple[float, str]] = {}
    for row in read_runtime_csv(path):
        if row.ontology_id in table:
            raise CliError(f"{path}: duplicate ontology id {row.ontology_id!r}")
        table[row.ontology_id] = (row.cost, row.outcome)
    if not table:
        raise CliError(f"{path}: no rows")
    return table


def _check_seed(seed: int) -> None:
    """Reject a negative ``--seed`` before any work; numpy's generators
    refuse one only once they are made."""
    if seed < 0:
        raise CliError(f"--seed must be >= 0, got {seed}")


def _load_spec(path: str | None) -> CorpusSpec:
    if path is None:
        return CorpusSpec()
    try:
        raw = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError(f"{path}: spec must be a JSON object")
    known = set(CorpusSpec.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise CliError(f"{path}: unknown spec fields {unknown}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    try:
        return CorpusSpec(**kwargs)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write_ids(ids: list[str], path: str) -> None:
    write_csv(path, ID_HEADER, ([oid] for oid in ids))


def _write_selections(choices: list[tuple[str, str]], path: str | None) -> None:
    rows = ((oid, c, config_label(CONFIGS[int(c) - 1])) for oid, c in choices)
    write_csv(path, SELECTION_HEADER, rows)


def _read_corpus_dir(path: str) -> list[tuple[str, str]]:
    try:
        names = sorted(n for n in os.listdir(path) if n.endswith(".krss"))
    except OSError as exc:
        raise CliError(f"cannot list {path}: {exc}") from exc
    if not names:
        raise CliError(f"{path}: no .krss files")
    return [(os.path.splitext(n)[0], _read_text(os.path.join(path, n))) for n in names]


# ---------------------------------------------------------------- commands


def _cmd_sat(args) -> int:
    onto, dag = _load_ontology(args.ontology)
    check_supported(onto)
    odag = _ordered(dag, onto, args.config)
    if args.class_name is None:
        res = check_tbox_consistency(odag, args.budget)
    else:
        if args.class_name not in dag.atom_ids:
            raise CliError(f"unknown class {args.class_name!r}")
        res = is_satisfiable(odag, class_ref(dag, args.class_name), args.budget)
    print(f"{res.outcome} {res.steps} {res.branch_points}")
    return 0


def _cmd_sweep(args) -> int:
    onto, dag = _load_ontology(args.ontology)
    check_supported(onto)
    odag = _ordered(dag, onto, args.config)
    res = satisfiability_sweep(odag, args.budget)
    rows = [(name, sat.outcome, sat.steps) for name, sat in res.per_class.items()]
    rows.append(("#total", "timeout" if res.timed_out else "finished", res.total_steps))
    write_csv(args.out, SWEEP_HEADER, rows)
    return 0


def _cmd_features(args) -> int:
    onto, dag = _load_ontology(args.ontology)
    fv = extract_features(onto, dag)
    oid = os.path.splitext(os.path.basename(args.ontology))[0]
    if args.out is None:
        for name, value in zip(FEATURE_NAMES, fv.values):
            print(f"{name},{value!r}")
    else:
        write_feature_csv([(oid, fv)], args.out)
    return 0


def _cmd_gen_corpus(args) -> int:
    spec = _load_spec(args.spec)
    os.makedirs(args.out, exist_ok=True)  # fail before the corpus is generated
    corpus = generate_corpus(spec)
    for inst in corpus:
        with open(os.path.join(args.out, inst.ontology_id + ".krss"), "w", newline="") as fh:
            fh.write(inst.text)
    print(f"wrote {len(corpus)} ontologies to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    corpus = _read_corpus_dir(args.corpus)
    configs: tuple[str, ...]
    if args.configs is None:
        configs = CONFIG_NUMBERS + (DEFAULT_LABEL,)
    else:
        configs = tuple(c.strip() for c in args.configs.split(",") if c.strip())
        if not configs:
            raise CliError(f"no configs in {args.configs!r}")
        bad = [c for c in configs if c != DEFAULT_LABEL and c not in CONFIG_NUMBERS]
        if bad:
            raise CliError(f"unknown configs {bad}; use 1..12 or '{DEFAULT_LABEL}'")
        if len(set(configs)) < len(configs):
            # the runtime CSV holds one row per (id, config)
            raise CliError(f"repeated configs in {args.configs!r}")
    result = run_benchmark(corpus, configs=configs, budget=args.budget)
    for oid, msg in result.parse_failures:
        print(f"parse failure: {oid}: {msg}", file=sys.stderr)
    if not result.rows:
        raise CliError(f"{args.corpus}: no ontology parsed")
    write_runtime_csv(result.rows, args.out)
    if args.features_out:
        write_feature_csv(sorted(result.features.items()), args.features_out)
    n_texts = len({text for _, text in corpus})
    print(f"wrote {len(result.rows)} rows to {args.out} "
          f"({len(corpus)} ontologies, {n_texts} distinct texts)")
    return 0


def _cmd_filter(args) -> int:
    rows = read_runtime_csv(args.runtimes)
    kept, log = filter_eligible(rows)
    write_runtime_csv(kept, args.out)
    write_csv(args.log, EXCLUSION_HEADER, log)
    print(f"kept {len({r.ontology_id for r in kept})} ontologies, excluded {len(log)}")
    return 0


def _cmd_split(args) -> int:
    _check_seed(args.seed)
    rows = read_runtime_csv(args.runtimes)
    ids = sorted({r.ontology_id for r in rows})
    train, test = split_train_test(ids, fraction=args.test_fraction, seed=args.seed)
    _write_ids(train, args.train_out)
    _write_ids(test, args.test_out)
    print(f"train {len(train)} / test {len(test)}")
    return 0


def _cmd_train(args) -> int:
    _check_seed(args.seed)
    feature_rows = read_feature_csv(args.features)
    runtime_rows = read_runtime_csv(args.runtimes)
    if not feature_rows:
        raise CliError(f"{args.features}: no rows")
    grid = QUICK_GRID if args.quick else None
    bundle = train_model_bundle(
        feature_rows, runtime_rows, grid=grid, n_folds=args.folds, seed=args.seed
    )
    save_bundle(bundle, args.out)
    accs = {c: bundle.models[c].accuracy for c in sorted(bundle.models, key=int)}
    print(f"threshold {bundle.threshold!r}")
    print("accuracy " + " ".join(f"{c}:{a:.3f}" for c, a in accs.items()))
    return 0


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    choices = [(oid, select_heuristic(bundle, fv)) for oid, fv in read_feature_csv(args.features)]
    _write_selections(choices, args.out)
    return 0


def _cmd_report(args) -> int:
    learned = _cost_table(args.learned)
    standard = _cost_table(args.standard)
    rep = speedup_report(learned, standard)
    lines = [
        "speedup of learned selection over standard configuration",
        f"  ontologies            {len(rep.ids)}",
        f"  max ratio             {rep.max_ratio:.2f}",
        f"  mean ratio            {rep.mean_ratio:.2f}",
        f"  geometric mean ratio  {rep.geomean_ratio:.2f}",
        f"  learned cost sum      {rep.learned_sum:.0f} (mean {rep.learned_mean:.1f},"
        f" timeouts {rep.learned_timeouts})",
        f"  standard cost sum     {rep.standard_sum:.0f} (mean {rep.standard_mean:.1f},"
        f" timeouts {rep.standard_timeouts})",
    ]
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_pipeline(args) -> int:
    # fail before the corpus is generated and swept, not at training time
    # or when the artifacts are written
    _check_seed(args.seed)
    check_folds(args.folds)
    check_test_fraction(args.test_fraction)
    check_budget(args.budget)
    spec = _load_spec(args.spec)
    check_split(spec.count, args.test_fraction)  # no more ids are eligible
    os.makedirs(args.out_dir, exist_ok=True)
    corpus = generate_corpus(spec)
    grid = QUICK_GRID if args.quick else None
    result = run_pipeline(
        [(c.ontology_id, c.text) for c in corpus],
        budget=args.budget,
        seed=args.seed,
        grid=grid,
        n_folds=args.folds,
        test_fraction=args.test_fraction,
    )
    join = lambda name: os.path.join(args.out_dir, name)  # noqa: E731
    write_runtime_csv(result.bench.rows, join("runtimes.csv"))
    write_feature_csv(sorted(result.bench.features.items()), join("features.csv"))
    write_csv(join("exclusions.csv"), EXCLUSION_HEADER, result.exclusions)
    _write_ids(result.train_ids, join("train.csv"))
    _write_ids(result.test_ids, join("test.csv"))
    save_bundle(result.bundle, join("model.json"))
    _write_selections(sorted(result.selections.items()), join("selections.csv"))
    _write_or_print(result.report_text, join("report.txt"))
    print(
        f"eligible {len({r.ontology_id for r in result.eligible_rows})}"
        f" train {len(result.train_ids)} test {len(result.test_ids)}"
        f" geomean speedup {result.report.geomean_ratio:.2f}"
    )
    return 0


# ----------------------------------------------------------------- parser


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--config",
        default=DEFAULT_LABEL,
        help="ordering: 3-letter label, 1..12, 0 for unsorted,"
        f" or '{DEFAULT_LABEL}' for the fixed rule bench applies (default)",
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ordsel",
        description="Tableau reasoner with learned disjunct-ordering selection",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="satisfiability of one class or the whole TBox")
    p.add_argument("--ontology", required=True)
    _add_config_flag(p)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--class", dest="class_name", default=None, help="class name (default: TBox)")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("sweep", help="per-class satisfiability sweep as CSV")
    p.add_argument("--ontology", required=True)
    _add_config_flag(p)
    p.add_argument("--budget", type=int, default=1_000_000, help="step budget per test")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("features", help="39-feature vector of one ontology")
    p.add_argument("--ontology", required=True)
    p.add_argument("--out", default=None, help="CSV path (default: name,value to stdout)")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("gen-corpus", help="generate a seeded synthetic corpus")
    p.add_argument("--spec", default=None, help="JSON file of corpus parameters")
    p.add_argument("--out", required=True, help="directory for .krss files")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("bench", help="benchmark every ordering over a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--budget", type=int, default=12_000, help="step budget per test")
    p.add_argument("--out", required=True, help="runtime CSV (id,config,cost,outcome)")
    p.add_argument("--configs", default=None, help="comma list, e.g. '1,5,default'")
    p.add_argument("--features-out", default=None, help="also write the feature CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("filter", help="drop inconsistent / all-timeout ontologies")
    p.add_argument("--runtimes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", required=True, help="exclusion log CSV (id,reason)")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("split", help="seeded train/test split of ontology ids")
    p.add_argument("--runtimes", required=True)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit threshold, classifiers, and priorities")
    p.add_argument("--features", required=True)
    p.add_argument("--runtimes", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--quick", action="store_true", help="reduced hyperparameter grid")
    p.add_argument("--out", required=True, help="model bundle path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="choose an ordering per ontology")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("report", help="speedup aggregates from two cost tables")
    p.add_argument("--learned", required=True, help="runtime CSV, one row per ontology")
    p.add_argument("--standard", required=True, help="runtime CSV, one row per ontology")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="end-to-end: corpus to speedup report")
    p.add_argument("--spec", default=None, help="JSON file of corpus parameters")
    p.add_argument("--budget", type=int, default=12_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--quick", action="store_true", help="reduced hyperparameter grid")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pipeline)

    return top


# ParseError, ConfigError, MismatchedIds, TooFewExamples, VersionMismatch,
# CorruptModel, and CliError are all ValueError subclasses.
_VALIDATION_ERRORS = (ValueError, GenerationError, OSError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
