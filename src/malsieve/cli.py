"""Command-line entry point.

Subcommands mirror the pipeline stages so each intermediate artifact is
a file with a documented format:

    extract     APKs -> records file
    vectorize   records -> vocabulary + dataset files
    train-pool  dataset -> pool directory
    select      pool + dataset -> selection file (GA search)
    evaluate    pool + selection + dataset -> metrics line
    predict     pool + selection + vocabulary + records -> labels
    experiment  config -> repeated-experiment report

Diagnostics go to stderr, data to stdout or the requested file. All
randomness is controlled by explicit --seed flags or config keys. Exit
codes: 0 success, 1 processing failure, 2 bad usage or bad config.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ensemble as ens
from . import experiment as exp
from .errors import DimensionMismatch, FormatError, InvalidConfig, MalsieveError, open_text
from .evaluation import compute_metrics
from .ga import GAConfig, format_ga_report, run_ga
from .learners import LearnerSpec
from .records import format_record, load_records
from .vectorize import (
    Dataset,
    build_vocabulary,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    vectorize,
    vectorize_all,
)

_EXIT_OK = 0
_EXIT_FAILURE = 1
_EXIT_USAGE = 2

_PREDICT_BLOCK = 32  # samples densified at once by predict


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# --- extract ---

def _iter_apk_paths(inputs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.rglob("*.apk")))
        else:
            paths.append(p)
    return paths


def cmd_extract(args: argparse.Namespace) -> int:
    from .archive import open_apk
    from .records import extract_features

    paths = _iter_apk_paths(args.inputs)
    if not paths:
        _log("extract: no inputs")
        return _EXIT_USAGE
    label = {"+1": 1, "-1": -1, "?": None}[args.label]
    lines: list[str] = []
    failures = 0
    for path in paths:
        try:
            record = extract_features(open_apk(path), app_id=path.stem, label=label)
            lines.append(format_record(record))
        except (MalsieveError, OSError) as exc:
            failures += 1
            _log(f"extract: {path}: {type(exc).__name__}: {exc}")
            if args.strict:
                return _EXIT_FAILURE
    _write_text(args.out, "".join(line + "\n" for line in lines))
    _log(f"extract: {len(lines)} records, {failures} failures")
    if not lines:
        return _EXIT_FAILURE
    return _EXIT_OK


# --- vectorize ---

def cmd_vectorize(args: argparse.Namespace) -> int:
    records = load_records(args.records)
    if any(r.label is None for r in records):
        _log("vectorize: records must be labeled (+1/-1); use predict for unlabeled")
        return _EXIT_FAILURE
    if args.vocab:
        vocab = load_vocabulary(args.vocab)
    else:
        vocab = build_vocabulary(
            records,
            min_doc_freq=args.min_doc_freq,
            max_api_features=args.max_api_features,
        )
        if args.vocab_out:
            save_vocabulary(vocab, args.vocab_out)
    save_dataset(vectorize_all(records, vocab), args.dataset_out)
    _log(
        f"vectorize: {len(records)} records, dimension {vocab.dimension} "
        f"({vocab.perm_count} perm / {vocab.action_count} action / {vocab.api_count} api)"
    )
    return _EXIT_OK


# --- train-pool ---

def _learner_spec(args: argparse.Namespace, seed: int) -> LearnerSpec:
    return LearnerSpec(
        kind=args.learner,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        hidden_units=args.hidden_units,
        l2=args.l2,
        rng_seed=seed,
        batch_size=None if args.batch_size == 0 else args.batch_size,
    )


def cmd_train_pool(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset)
    pool = ens.train_pool(
        data, args.pool_size, _learner_spec(args, args.seed), master_seed=args.seed
    )
    ens.save_pool(pool, args.out)
    _log(f"train-pool: {pool.size} learners, dimension {pool.dim} -> {args.out}")
    return _EXIT_OK


# --- select ---

def cmd_select(args: argparse.Namespace) -> int:
    pool = ens.load_pool(args.pool)
    data = load_dataset(args.dataset)
    config = GAConfig(
        pop_size=args.pop_size,
        max_iter=args.max_iter,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        elite_count=args.elite_count,
        rng_seed=args.seed,
        diversity_norm=args.diversity_norm,
    )
    result = run_ga(pool, data, config=config)
    ens.save_selection(result.omega, args.out)
    report = format_ga_report(result, config)
    if args.report:
        _write_text(args.report, report)
    _log(
        f"select: picked {result.omega.selected_count}/{pool.size} learners, "
        f"fitness {result.fitness:.6f}"
    )
    return _EXIT_OK


# --- evaluate ---

def cmd_evaluate(args: argparse.Namespace) -> int:
    pool = ens.load_pool(args.pool)
    data = load_dataset(args.dataset)
    omega = (
        ens.load_selection(args.selection)
        if args.selection
        else ens.WeightVector.ones(pool.size)
    )
    votes = ens.majority_vote_matrix(ens.precompute_predictions(pool, data), omega.bits)
    report = compute_metrics(votes, data.label_array())
    sys.stdout.write(
        f"selected={omega.selected_count}/{pool.size} {report.as_fields()}\n"
    )
    return _EXIT_OK


# --- predict ---

def cmd_predict(args: argparse.Namespace) -> int:
    pool = ens.load_pool(args.pool)
    omega = (
        ens.load_selection(args.selection)
        if args.selection
        else ens.WeightVector.ones(pool.size)
    )
    with open_text(args.input) as fh:
        first = fh.readline()
    if first.startswith("dim="):
        data = load_dataset(args.input)
        if data.dimension != pool.dim:
            raise DimensionMismatch(
                f"input dimension {data.dimension} != model dimension {pool.dim}"
            )
        ids = [f"sample_{i}" for i in range(len(data))]
        vectors = data.vectors
    else:
        if not args.vocab:
            _log("predict: records input requires --vocab")
            return _EXIT_USAGE
        vocab = load_vocabulary(args.vocab)
        if vocab.dimension != pool.dim:
            raise DimensionMismatch(
                f"vocabulary dimension {vocab.dimension} != model dimension {pool.dim}"
            )
        records = load_records(args.input)
        ids = [r.app_id for r in records]
        vectors = [vectorize(r, vocab) for r in records]
    out_lines = []
    # densify a block of samples at a time, so memory stays flat in the
    # batch size
    for start in range(0, len(vectors), _PREDICT_BLOCK):
        block = Dataset(vectors[start : start + _PREDICT_BLOCK], dimension=pool.dim)
        votes = ens.majority_vote_matrix(ens.precompute_predictions(pool, block), omega.bits)
        for app_id, label in zip(ids[start:], votes):
            out_lines.append(f"{app_id}\t{'+1' if label == 1 else '-1'}")
    _write_text(args.out, "".join(line + "\n" for line in out_lines))
    return _EXIT_OK


# --- experiment ---

def cmd_experiment(args: argparse.Namespace) -> int:
    if args.print_default_config:
        sys.stdout.write(exp.DEFAULT_CONFIG_TEXT)
        return _EXIT_OK
    if not args.config:
        _log("experiment: config path required")
        return _EXIT_USAGE
    with open_text(args.config, InvalidConfig) as fh:
        config = exp.parse_config(fh.read())
    summary = exp.repeated_experiment(config)
    _write_text(args.out, exp.format_report(summary, config))
    _log(f"experiment: {config.repeats} repeats done")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malsieve",
        description="Selective-ensemble Android malware detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract feature records from APKs")
    p.add_argument("inputs", nargs="+", help="APK files or directories")
    p.add_argument("--out", default=None, help="records file (default stdout)")
    p.add_argument("--label", choices=["+1", "-1", "?"], default="?")
    p.add_argument("--strict", action="store_true",
                   help="fail the whole batch on the first bad APK")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("vectorize", help="build vocabulary and dataset files")
    p.add_argument("records")
    p.add_argument("--dataset-out", required=True)
    p.add_argument("--vocab-out", default=None)
    p.add_argument("--vocab", default=None, help="reuse an existing vocabulary")
    p.add_argument("--min-doc-freq", type=int, default=2)
    p.add_argument("--max-api-features", type=int, default=2000)
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("train-pool", help="train a bootstrap pool of learners")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="pool directory")
    p.add_argument("--pool-size", type=int, default=20)
    p.add_argument("--learner", choices=["linear", "mlp"], default="mlp")
    p.add_argument("--learning-rate", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--hidden-units", type=int, default=16)
    p.add_argument("--l2", type=float, default=0.0001)
    p.add_argument("--batch-size", type=int, default=32, help="0 = full batch")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_pool)

    p = sub.add_parser("select", help="GA-search the best sub-ensemble")
    p.add_argument("pool", help="pool directory")
    p.add_argument("dataset", help="dataset the fitness is evaluated on")
    p.add_argument("--out", required=True, help="selection file")
    p.add_argument("--report", default=None, help="GA run report file")
    p.add_argument("--pop-size", type=int, default=30)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--crossover-rate", type=float, default=0.8)
    p.add_argument("--mutation-rate", type=float, default=0.05)
    p.add_argument("--elite-count", type=int, default=2)
    p.add_argument("--diversity-norm", choices=["selected", "pairs"], default="selected")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="score an ensemble on a labeled dataset")
    p.add_argument("pool")
    p.add_argument("dataset")
    p.add_argument("--selection", default=None, help="default: all learners")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label records or dataset samples")
    p.add_argument("pool")
    p.add_argument("input", help="records file or dataset file")
    p.add_argument("--selection", default=None)
    p.add_argument("--vocab", default=None, help="required for records input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="run the repeated robustness experiment")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--out", default=None, help="report file (default stdout)")
    p.add_argument("--print-default-config", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, FormatError) as exc:
        _log(f"{args.command}: {type(exc).__name__}: {exc}")
        return _EXIT_USAGE
    except (MalsieveError, OSError) as exc:
        _log(f"{args.command}: {type(exc).__name__}: {exc}")
        return _EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
