"""Command-line entry point.

Subcommands mirror the pipeline stages so each intermediate artifact is
a file with a documented format:

    extract     APKs -> records file
    vectorize   records -> vocabulary + dataset files
    train-pool  dataset -> pool directory
    select      pool + dataset -> selection file (GA search)
    evaluate    pool + selection + dataset -> metrics line
    predict     pool + selection + (vocabulary + records | dataset) -> labels
    experiment  config -> repeated-experiment report

`select`, `evaluate` and `predict` leave the check that an input's
dimension is the pool's to `ensemble.precompute_predictions`.

Diagnostics go to stderr, data to stdout or the requested file. All
randomness is controlled by explicit --seed flags or config keys. Exit
codes: 0 success, 1 processing failure, 2 bad usage or bad config.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from dataclasses import fields
from itertools import chain
from pathlib import Path

from . import ensemble as ens
from . import experiment as exp
from .errors import (
    FIELD_PARSERS,
    FormatError,
    InvalidConfig,
    MalsieveError,
    open_text,
    value_text,
)
from .evaluation import compute_metrics
from .ga import GAConfig, format_ga_report, run_ga
from .learners import LearnerSpec
from .records import LABEL_TEXT, LABELS, format_record, load_records, read_records
from .vectorize import (
    Dataset,
    build_vocabulary,
    is_dataset_header,
    load_dataset,
    load_vocabulary,
    read_dataset,
    save_dataset,
    save_vocabulary,
    vectorize,
    vectorize_all,
)

_EXIT_OK = 0
_EXIT_FAILURE = 1
_EXIT_USAGE = 2


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    """Write the strings in order to the file at path, or to stdout for
    no path or -, so no caller has to join them into one text first."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


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
    label = LABELS[args.label]
    lines: list[str] = []
    failures = 0
    for path in paths:
        try:
            record = extract_features(open_apk(path), app_id=path.stem, label=label)
            lines.append(format_record(record) + "\n")
        except (MalsieveError, OSError) as exc:
            failures += 1
            _log(f"extract: {path}: {type(exc).__name__}: {exc}")
            if args.strict:
                return _EXIT_FAILURE
    _write_text(args.out, lines)
    _log(f"extract: {len(lines)} records, {failures} failures")
    if not lines:
        return _EXIT_FAILURE
    return _EXIT_OK


# --- vectorize ---

# the ExperimentConfig keys that shape a vocabulary vectorize builds
_VOCAB_KEYS = ("min_doc_freq", "max_api_features")


def cmd_vectorize(args: argparse.Namespace) -> int:
    if args.vocab and (given := [_flag(key) for key in _VOCAB_KEYS if key in args]):
        _log(f"vectorize: {' and '.join(given)} cannot act with --vocab, "
             "which reuses a vocabulary instead of building one")
        return _EXIT_USAGE
    unlabeled = "vectorize: records must be labeled (+1/-1); use predict for unlabeled"
    if args.vocab:
        # each record is dropped once vectorized, as in predict
        vocab = load_vocabulary(args.vocab)
        with open_text(args.records) as fh:
            data = vectorize_all(read_records(fh), vocab)
        if None in data.labels():
            _log(unlabeled)
            return _EXIT_FAILURE
    else:
        records = load_records(args.records)
        if any(r.label is None for r in records):
            _log(unlabeled)
            return _EXIT_FAILURE
        config = _config(args, _VOCAB_KEYS)
        vocab = build_vocabulary(
            records,
            min_doc_freq=config.min_doc_freq,
            max_api_features=config.max_api_features,
        )
        if args.vocab_out:
            save_vocabulary(vocab, args.vocab_out)
        data = vectorize_all(records, vocab)
    save_dataset(data, args.dataset_out)
    _log(
        f"vectorize: {len(data)} records, dimension {vocab.dimension} "
        f"({vocab.perm_count} perm / {vocab.action_count} action / {vocab.api_count} api)"
    )
    return _EXIT_OK


# --- train-pool ---

# train-pool's and select's flags: the fields of the spec each builds that
# are config keys (a learner's kind is the `learner` key, a seed is --seed)
_POOL_KEYS = ("pool_size", "learner", *(f.name for f in fields(LearnerSpec)))
_GA_KEYS = tuple(f.name for f in fields(GAConfig))


def _config(args: argparse.Namespace, keys: tuple[str, ...]) -> exp.ExperimentConfig:
    """The config of the given flags among keys, every other key at its default."""
    return exp.ExperimentConfig(**{key: getattr(args, key) for key in keys if key in args})


def cmd_train_pool(args: argparse.Namespace) -> int:
    config = _config(args, _POOL_KEYS)
    data = load_dataset(args.dataset)
    pool = ens.train_pool(data.to_dense(), data.label_array(), config.pool_size,
                          config.learner_spec(args.seed), master_seed=args.seed)
    ens.save_pool(pool, args.out)
    _log(f"train-pool: {pool.size} learners, dimension {pool.dim} -> {args.out}")
    return _EXIT_OK


# --- select ---

def cmd_select(args: argparse.Namespace) -> int:
    config = _config(args, _GA_KEYS).ga_config(args.seed)
    pool = ens.load_pool(args.pool)
    data = load_dataset(args.dataset)
    result = run_ga(pool, data, config=config)
    ens.save_selection(result.omega, args.out)
    if args.report:
        _write_text(args.report, [format_ga_report(result, config)])
    _log(
        f"select: picked {result.omega.selected_count}/{pool.size} learners, "
        f"fitness {result.fitness:.6f}"
    )
    return _EXIT_OK


# --- evaluate ---

def _selection(args: argparse.Namespace, pool: ens.EnsemblePool) -> ens.WeightVector:
    """--selection, or every learner of the pool."""
    if args.selection:
        return ens.load_selection(args.selection)
    return ens.WeightVector((1,) * pool.size)


def cmd_evaluate(args: argparse.Namespace) -> int:
    pool = ens.load_pool(args.pool)
    data = load_dataset(args.dataset)
    omega = _selection(args, pool)
    report = compute_metrics(ens.vote(pool, omega, data), data.label_array())
    sys.stdout.write(
        f"selected={omega.selected_count}/{pool.size} {report.as_fields()}\n"
    )
    return _EXIT_OK


# --- predict ---

def cmd_predict(args: argparse.Namespace) -> int:
    with open_text(args.input) as fh:  # opened once, so a pipe works
        first = fh.readline()
        if is_dataset_header(first) != (args.vocab is None):
            _log("predict: a records input requires --vocab, and a dataset input takes none")
            return _EXIT_USAGE
        pool = ens.load_pool(args.pool)
        omega = _selection(args, pool)
        if args.vocab is None:
            data = read_dataset(chain([first], fh))
            ids = [f"sample_{i}" for i in range(len(data))]
        else:
            # each record is dropped once vectorized: only ids and vectors stay
            vocab = load_vocabulary(args.vocab)
            ids, vectors = [], []
            for record in read_records(chain([first], fh)):
                ids.append(record.app_id)
                vectors.append(vectorize(record, vocab))
            data = Dataset(vectors, dimension=vocab.dimension)
    votes = ens.vote(pool, omega, data)
    _write_text(args.out, (
        f"{app_id}\t{LABEL_TEXT[label]}\n" for app_id, label in zip(ids, votes.tolist())
    ))
    return _EXIT_OK


# --- experiment ---

def cmd_experiment(args: argparse.Namespace) -> int:
    if args.print_default_config:
        _write_text(args.out, [exp.DEFAULT_CONFIG_TEXT])
        return _EXIT_OK
    with open_text(args.config, InvalidConfig) as fh:
        config = exp.parse_config(fh.read())
    summary = exp.repeated_experiment(config)
    _write_text(args.out, [exp.format_report(summary, config)])
    _log(f"experiment: {config.repeats} repeats done")
    return _EXIT_OK


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    """One flag per ExperimentConfig key (pool_size is --pool-size), read
    as the config reads it. A flag not given is absent from the parsed
    arguments, so `_config` leaves its key at the config's default."""
    for f in fields(exp.ExperimentConfig):
        if f.name in keys:
            parser.add_argument(
                _flag(f.name),
                type=FIELD_PARSERS[f.type],
                default=argparse.SUPPRESS,
                help=f"default {value_text(f.default)}",
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malsieve",
        description="Selective-ensemble Android malware detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract feature records from APKs")
    p.add_argument("inputs", nargs="+", help="APK files or directories")
    p.add_argument("--out", help="records file (default stdout)")
    p.add_argument("--label", choices=list(LABELS), default="?")
    p.add_argument("--strict", action="store_true",
                   help="fail the whole batch on the first bad APK")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("vectorize", help="build vocabulary and dataset files")
    p.add_argument("records")
    p.add_argument("--dataset-out", required=True)
    vocab = p.add_mutually_exclusive_group()
    vocab.add_argument("--vocab-out", help="write the vocabulary built from the records")
    vocab.add_argument("--vocab", help="reuse an existing vocabulary")
    _add_config_flags(p, _VOCAB_KEYS)
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("train-pool", help="train a bootstrap pool of learners")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="pool directory")
    _add_config_flags(p, _POOL_KEYS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_pool)

    p = sub.add_parser("select", help="GA-search the best sub-ensemble")
    p.add_argument("pool", help="pool directory")
    p.add_argument("dataset", help="dataset the fitness is evaluated on")
    p.add_argument("--out", required=True, help="selection file")
    p.add_argument("--report", help="GA run report file")
    _add_config_flags(p, _GA_KEYS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="score an ensemble on a labeled dataset")
    p.add_argument("pool")
    p.add_argument("dataset")
    p.add_argument("--selection", help="default: all learners")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label records or dataset samples")
    p.add_argument("pool")
    p.add_argument("input", help="records file or dataset file")
    p.add_argument("--selection")
    p.add_argument("--vocab", help="required for records input, refused for dataset input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="run the repeated robustness experiment")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("config", nargs="?")
    source.add_argument("--print-default-config", action="store_true")
    p.add_argument("--out", help="report or default-config file (default stdout)")
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
