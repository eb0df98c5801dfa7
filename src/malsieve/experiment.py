"""Repeated-experiment harness.

One run = split, corrupt the train/validation labels, train a bootstrap
pool and a single learner on one dense matrix of the training split
(uint8 0/1, one byte per entry; `train` widens each minibatch to float64),
GA-select a sub-ensemble, and score three methods on the held-out test
split through one prediction matrix (the pool's rows, then the single
learner's), so robustness can be compared:

  single      one learner trained on the (noisy) training split
  full_pool   majority vote of every learner in the pool
  selective   majority vote of the GA-selected sub-ensemble

Every run r derives all of its seeds from (master_seed, r), so a whole
experiment is reproducible byte for byte. dataset=synthetic flips
SYNTHETIC_CONCEPT_NOISE of each class's planted concept. Test labels
stay clean unless noise_test=true, which reproduces the
corrupt-everything-then-split protocol some evaluations use (scores are
then against noisy test labels, and mean less).

A run holds one split at a time, besides the source. Both kinds of
source, a dataset and a list of records, are lists of labelled items, and
take one path; they differ only in an item's columns: a vector's own
indices, or a record's under the vocabulary fitted on the training split.

  set-up      the split, as lists of the source's items, and for records
              the vocabulary; errors of either come before any training
  training    the training matrix, filled straight from each item's
              columns with no FeatureVector made, and its noisy labels.
              The matrix is dropped before the GA
  GA          the noisy validation split, vectorized only now
  scoring     the test split, vectorized after the GA, and noisy only
              under noise_test

A split's labels are its items' own labels, which are its clean labels,
passed through `inject_label_noise` where the split is noisy; a held-out
split is built once, with those labels. So a held-out split that lacks a
class, which noise refuses, fails only after training.

Configs are flat key=value text files; see DEFAULT_CONFIG_TEXT.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from operator import attrgetter

import numpy as np

from .ensemble import (
    WeightVector,
    majority_vote_matrix,
    precompute_predictions,
    train_pool,
)
from .errors import FIELD_PARSERS, InvalidConfig, open_text, value_text, with_context
from .evaluation import (
    METRIC_NAMES,
    MetricsReport,
    MetricSummary,
    NoiseSpec,
    SplitSpec,
    compute_metrics,
    equal_count_flips,
    inject_label_noise,
    split,  # not called here: bench/spans.py BINDINGS wraps it
    stratified_split_indices,
    summarize_metric,
)
from .ga import GAConfig, GAResult, run_ga
from .learners import KINDS, LearnerSpec, train
from .records import FeatureRecord, read_records
from .rng import derive_seed, make_rng
from .vectorize import (
    Dataset,
    FeatureVector,
    build_vocabulary,
    dense_matrix,
    feature_indices,
    is_dataset_header,
    read_dataset,
    vectorize_all,  # not called here: bench/spans.py BINDINGS wraps it
)

METHODS = ("single", "full_pool", "selective")
FITNESS_SPLITS = ("validation",)
SYNTHETIC_CONCEPT_NOISE = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """The keys of a config file, with their defaults. `fitness_split`
    has one value, `validation`: the GA scores sub-ensembles on the noisy
    validation split, never on the rows the pool trained on."""

    repeats: int = 30
    master_seed: int = 0
    dataset: str = "synthetic"
    synthetic_samples: int = 2000
    synthetic_features: int = 50
    train_fraction: float = 0.6
    validation_fraction: float = 0.2
    test_fraction: float = 0.2
    noise_fraction: float = 0.1
    noise_test: bool = False
    min_doc_freq: int = 2
    max_api_features: int = 2000
    pool_size: int = 20
    learner: str = "mlp"
    learning_rate: float = 0.3
    epochs: int = 40
    hidden_units: int = 16
    l2: float = 0.0001
    batch_size: int = 32
    pop_size: int = 30
    max_iter: int = 50
    crossover_rate: float = 0.8
    mutation_rate: float = 0.05
    elite_count: int = 2
    fitness_split: str = "validation"
    diversity_norm: str = "selected"
    allow_partial: bool = False

    def __post_init__(self):
        if self.repeats < 1:
            raise InvalidConfig("repeats must be >= 1")
        if self.synthetic_samples < 10:
            raise InvalidConfig("synthetic_samples must be >= 10")
        if self.synthetic_features < 1:
            raise InvalidConfig("synthetic_features must be >= 1")
        # build_vocabulary's checks too, so that a bad value fails before any run
        if self.min_doc_freq < 1:
            raise InvalidConfig("min_doc_freq must be >= 1")
        if self.max_api_features < 0:
            raise InvalidConfig("max_api_features must be >= 0")
        if self.pool_size < 1:
            raise InvalidConfig("pool_size must be >= 1")
        if self.learner not in KINDS:
            raise InvalidConfig(f"learner must be one of {KINDS}")
        if self.fitness_split not in FITNESS_SPLITS:
            raise InvalidConfig(f"fitness_split must be one of {FITNESS_SPLITS}")
        # delegate range checks on shared fields
        self.split_spec(0)
        self.noise_spec(0)
        self.learner_spec(0)
        self.ga_config(0)

    def split_spec(self, seed: int) -> SplitSpec:
        return _spec(SplitSpec, self, seed=seed)

    def noise_spec(self, seed: int) -> NoiseSpec:
        return _spec(NoiseSpec, self, seed=seed)

    def learner_spec(self, seed: int) -> LearnerSpec:
        return _spec(LearnerSpec, self, kind=self.learner, rng_seed=seed)

    def ga_config(self, seed: int) -> GAConfig:
        return _spec(GAConfig, self, rng_seed=seed)


def _spec(cls, config: ExperimentConfig, **given):
    """A cls with the config's values for its fields, except those `given`."""
    values = {f.name: getattr(config, f.name) for f in fields(cls) if f.name not in given}
    return cls(**values, **given)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value config; unknown or repeated keys and bad
    values raise InvalidConfig naming the key."""
    spec_fields = {f.name: f for f in fields(ExperimentConfig)}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or key not in spec_fields:
            raise InvalidConfig(f"unknown or malformed key at line {lineno}: {key!r}")
        if key in values:
            raise InvalidConfig(f"{key} given twice (line {lineno})")
        try:
            values[key] = FIELD_PARSERS[spec_fields[key].type](raw)
        except ValueError as exc:
            raise InvalidConfig(f"bad value for {key}: {raw!r} ({exc})") from exc
    return ExperimentConfig(**values)


def config_text(config: ExperimentConfig) -> str:
    """The config as the key=value lines `parse_config` reads back."""
    return "".join(f"{f.name}={value_text(getattr(config, f.name))}\n"
                   for f in fields(ExperimentConfig))


def synthetic_dataset(
    n_samples: int, n_features: int, concept_noise: float, seed: int
) -> Dataset:
    """Exactly balanced binary-feature dataset with a planted noisy
    linear concept.

    Features are fair coin flips; the clean label is whether the sample's
    score under a hidden Gaussian weight vector lands in the top half;
    then the `equal_count_flips` of concept_noise, drawn from the same
    generator, are swapped, keeping the data balanced while making the
    concept unlearnable past that noise floor.
    """
    rng = make_rng(seed, "synthetic")
    w = rng.normal(size=n_features)
    X = rng.integers(0, 2, size=(n_samples, n_features))
    scores = (X - 0.5) @ w
    order = np.argsort(scores, kind="stable")
    labels = np.ones(n_samples, dtype=np.int64)
    labels[order[: n_samples // 2]] = -1

    labels[equal_count_flips(labels, concept_noise, (rng, rng))] *= -1

    vectors = [
        FeatureVector(tuple(np.flatnonzero(row).tolist()), label)
        for row, label in zip(X, labels.tolist())
    ]
    return Dataset(vectors, dimension=n_features)


def _load_source(config: ExperimentConfig) -> Dataset | list[FeatureRecord]:
    if config.dataset == "synthetic":
        return synthetic_dataset(
            config.synthetic_samples,
            config.synthetic_features,
            SYNTHETIC_CONCEPT_NOISE,
            derive_seed(config.master_seed, "synthetic"),
        )
    with open_text(config.dataset) as fh:
        first = fh.readline()  # opened once, so a pipe works
        if is_dataset_header(first):
            return read_dataset(chain([first], fh))
        records = list(read_records(chain([first], fh), {}))
    if any(r.label is None for r in records):
        raise InvalidConfig("experiment requires labeled records")
    return records


@dataclass(frozen=True)
class RunOutcome:
    metrics: dict[str, MetricsReport]
    omega: WeightVector
    ga: GAResult


@dataclass(frozen=True)
class RepeatSummary:
    repeats: int
    outcomes: tuple[RunOutcome | None, ...]
    failures: tuple[tuple[int, str], ...]
    summaries: dict[tuple[str, str], MetricSummary]


def run_one(
    source: Dataset | list[FeatureRecord],
    config: ExperimentConfig,
    run_index: int,
) -> RunOutcome:
    """Run `run_index` of the experiment: split, inject noise, train the
    pool and the single learner on the noisy training split, GA-select on
    the noisy validation split, and score the three methods on the test
    split. Each split is built when its stage starts (module docstring)."""
    run_seed = derive_seed(config.master_seed, "run", run_index)
    from_dataset = isinstance(source, Dataset)
    items = source.vectors if from_dataset else source
    parts = stratified_split_indices([x.label for x in items],
                                     config.split_spec(derive_seed(run_seed, "split")))
    train_part, validation_part, test_part = ([items[i] for i in part] for part in parts)
    # an item's columns: a vector's own, or a record's under the vocabulary
    # fitted on the training split only
    if from_dataset:
        dimension, columns = source.dimension, attrgetter("indices")
    else:
        vocab = build_vocabulary(train_part, min_doc_freq=config.min_doc_freq,
                                 max_api_features=config.max_api_features)
        dimension, columns = vocab.dimension, partial(feature_indices, vocab=vocab)

    def labels(part: list, name: str) -> np.ndarray:
        """The labels of split `name` as int8, noisy unless the noise is zero
        or the split is test without noise_test. Noise refuses a split that
        lacks a class; its seed derives from the split's name."""
        y = np.array([x.label for x in part], dtype=np.int8)
        if config.noise_fraction == 0 or (name == "test" and not config.noise_test):
            return y
        return inject_label_noise(y, y, config.noise_spec(derive_seed(run_seed, "noise", name)))

    def held_out(part: list, name: str) -> Dataset:
        return Dataset([FeatureVector(columns(x), label)
                        for x, label in zip(part, labels(part, name).tolist())], dimension)

    X = dense_matrix(map(columns, train_part), len(train_part), dimension)
    y = labels(train_part, "train")
    # 0 was the default of the deleted learner_seed key: every seed is as it was
    pool = train_pool(X, y, config.pool_size, config.learner_spec(0),
                      master_seed=derive_seed(run_seed, "pool"))
    single_spec = config.learner_spec(derive_seed(run_seed, "single", 0))
    single = train(single_spec, X, y)
    del X  # not held through the GA and the test predictions

    ga_result = run_ga(pool, held_out(validation_part, "validation"),
                       config=config.ga_config(derive_seed(run_seed, "ga")))

    test_set = held_out(test_part, "test")
    y_test = test_set.label_array()
    test_matrix = precompute_predictions(pool.learners + (single,), test_set)
    predictions = {
        "single": test_matrix[-1],
        "full_pool": majority_vote_matrix(test_matrix[:-1], np.ones(pool.size)),
        "selective": majority_vote_matrix(test_matrix[:-1], ga_result.omega.bits),
    }
    metrics = {m: compute_metrics(predictions[m], y_test) for m in METHODS}
    return RunOutcome(metrics=metrics, omega=ga_result.omega, ga=ga_result)


def repeated_experiment(
    config: ExperimentConfig,
    source: Dataset | list[FeatureRecord] | None = None,
) -> RepeatSummary:
    """Run the pipeline `repeats` times and aggregate worst/best/mean/std
    per method and metric. A run failure aborts unless allow_partial."""
    if source is None:
        source = _load_source(config)
    outcomes: list[RunOutcome | None] = []
    failures: list[tuple[int, str]] = []
    for r in range(config.repeats):
        try:
            outcomes.append(run_one(source, config, r))
        except Exception as exc:
            if not config.allow_partial:
                raise with_context(exc, f"run {r}") from exc
            outcomes.append(None)
            failures.append((r, f"{type(exc).__name__}: {exc}"))

    summaries: dict[tuple[str, str], MetricSummary] = {}
    completed = [o for o in outcomes if o is not None]
    if completed:
        for method in METHODS:
            reports = [o.metrics[method] for o in completed]
            for metric in METRIC_NAMES:
                summaries[(method, metric)] = summarize_metric(reports, metric)
    return RepeatSummary(
        repeats=config.repeats,
        outcomes=tuple(outcomes),
        failures=tuple(failures),
        summaries=summaries,
    )


def format_report(summary: RepeatSummary, config: ExperimentConfig) -> str:
    lines = ["malsieve-experiment-report v1"]
    lines += ["config " + line for line in config_text(config).splitlines()]
    for r, outcome in enumerate(summary.outcomes):
        if outcome is None:
            continue
        for method in METHODS:
            extra = ""
            if method == "selective":
                extra = (
                    f" omega={outcome.omega.to_string()}"
                    f" selected={outcome.omega.selected_count}"
                )
            lines.append(
                f"run {r} method={method}{extra} {outcome.metrics[method].as_fields()}"
            )
    for r, message in summary.failures:
        lines.append(f"run {r} failed {message}")
    for method in METHODS:
        for metric in METRIC_NAMES:
            s = summary.summaries.get((method, metric))
            if s is None:
                continue
            lines.append(
                f"summary method={method} metric={metric} "
                f"worst={s.worst!r} best={s.best!r} mean={s.mean!r} std={s.std!r}"
            )
    return "\n".join(lines) + "\n"


DEFAULT_CONFIG_TEXT = config_text(ExperimentConfig())
