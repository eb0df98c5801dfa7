"""Repeated-experiment harness.

One run = split, corrupt the train/validation labels, train a bootstrap
pool, GA-select a sub-ensemble, score on the held-out test split. Three
methods are scored each run so robustness can be compared:

  single      one learner trained on the (noisy) training split
  full_pool   majority vote of every learner in the pool
  selective   majority vote of the GA-selected sub-ensemble

Every run r derives all of its seeds from (master_seed, r), so a whole
experiment is reproducible byte for byte. Test labels stay clean unless
noise_test=true, which reproduces the corrupt-everything-then-split
protocol some evaluations use (scores are then against noisy test
labels, and mean less).

Configs are flat key=value text files; see DEFAULT_CONFIG_TEXT.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (
    WeightVector,
    majority_vote_matrix,
    precompute_predictions,
    train_pool,
)
from .errors import InvalidConfig, open_text, with_context
from .evaluation import (
    METRIC_NAMES,
    MetricsReport,
    MetricSummary,
    NoiseSpec,
    SplitSpec,
    compute_metrics,
    inject_label_noise,
    split,
    stratified_split_indices,
    summarize_metric,
)
from .ga import GAConfig, GAResult, run_ga
from .learners import LearnerSpec, predict_labels, train
from .records import FeatureRecord, load_records
from .rng import derive_seed, make_rng
from .vectorize import (
    Dataset,
    FeatureVector,
    build_vocabulary,
    load_dataset,
    vectorize_all,
)

METHODS = ("single", "full_pool", "selective")
FITNESS_SPLITS = ("train", "validation")


@dataclass(frozen=True)
class ExperimentConfig:
    repeats: int = 30
    master_seed: int = 0
    dataset: str = "synthetic"
    synthetic_samples: int = 2000
    synthetic_features: int = 50
    synthetic_concept_noise: float = 0.1
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
    batch_size: int | None = 32
    learner_seed: int = 0
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
        if not 0.0 <= self.synthetic_concept_noise <= 0.5:
            raise InvalidConfig("synthetic_concept_noise must be in [0, 0.5]")
        if self.pool_size < 1:
            raise InvalidConfig("pool_size must be >= 1")
        if self.fitness_split not in FITNESS_SPLITS:
            raise InvalidConfig(f"fitness_split must be one of {FITNESS_SPLITS}")
        # delegate range checks on shared fields
        self.split_spec(0)
        self.noise_spec(0)
        self.learner_spec(0)
        self.ga_config(0)

    def split_spec(self, seed: int) -> SplitSpec:
        return SplitSpec(
            self.train_fraction, self.validation_fraction, self.test_fraction, seed
        )

    def noise_spec(self, seed: int) -> NoiseSpec:
        return NoiseSpec(self.noise_fraction, seed)

    def learner_spec(self, seed: int) -> LearnerSpec:
        return LearnerSpec(
            kind=self.learner,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            hidden_units=self.hidden_units,
            l2=self.l2,
            rng_seed=seed,
            batch_size=self.batch_size,
        )

    def ga_config(self, seed: int) -> GAConfig:
        return GAConfig(
            pop_size=self.pop_size,
            max_iter=self.max_iter,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            elite_count=self.elite_count,
            rng_seed=seed,
            diversity_norm=self.diversity_norm,
        )


_BOOL_TEXT = {"true": True, "false": False, "1": True, "0": False}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value config; unknown keys and bad values raise
    InvalidConfig naming the key."""
    spec_fields = {f.name: f.type for f in fields(ExperimentConfig)}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or key not in spec_fields:
            raise InvalidConfig(f"unknown or malformed key at line {lineno}: {key!r}")
        try:
            values[key] = _convert(key, raw)
        except ValueError as exc:
            raise InvalidConfig(f"bad value for {key}: {raw!r} ({exc})") from exc
    return ExperimentConfig(**values)


def _convert(key: str, raw: str) -> object:
    if key in ("dataset", "learner", "fitness_split", "diversity_norm"):
        return raw
    if key in ("noise_test", "allow_partial"):
        if raw.lower() not in _BOOL_TEXT:
            raise ValueError("expected true/false")
        return _BOOL_TEXT[raw.lower()]
    if key == "batch_size":
        return None if raw.lower() == "none" else int(raw)
    if key in (
        "synthetic_concept_noise", "train_fraction", "validation_fraction",
        "test_fraction", "noise_fraction", "learning_rate", "l2",
        "crossover_rate", "mutation_rate",
    ):
        return float(raw)
    return int(raw)


def config_lines(config: ExperimentConfig) -> list[str]:
    out = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif value is None:
            text = "none"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        out.append(f"config {f.name}={text}")
    return out


def synthetic_dataset(
    n_samples: int, n_features: int, concept_noise: float, seed: int
) -> Dataset:
    """Exactly balanced binary-feature dataset with a planted noisy
    linear concept.

    Features are fair coin flips; the clean label is whether the sample's
    score under a hidden Gaussian weight vector lands in the top half;
    then an equal count per class (concept_noise of each) is swapped,
    keeping the data balanced while making the concept unlearnable past
    that noise floor.
    """
    rng = make_rng(seed, "synthetic")
    w = rng.normal(size=n_features)
    X = rng.integers(0, 2, size=(n_samples, n_features))
    scores = (X - 0.5) @ w
    order = np.argsort(scores, kind="stable")
    labels = np.empty(n_samples, dtype=np.int64)
    labels[order[: n_samples // 2]] = -1
    labels[order[n_samples // 2 :]] = 1

    concept = labels.copy()
    k = int(concept_noise * min(np.sum(concept == 1), np.sum(concept == -1)))
    for cls in (1, -1):
        members = np.flatnonzero(concept == cls)
        picked = members[rng.permutation(members.shape[0])[:k]]
        labels[picked] = -cls

    vectors = [
        FeatureVector(
            dimension=n_features,
            indices=tuple(int(j) for j in np.flatnonzero(X[i])),
            label=int(labels[i]),
        )
        for i in range(n_samples)
    ]
    return Dataset(vectors, dimension=n_features)


def _load_source(config: ExperimentConfig) -> Dataset | list[FeatureRecord]:
    if config.dataset == "synthetic":
        return synthetic_dataset(
            config.synthetic_samples,
            config.synthetic_features,
            config.synthetic_concept_noise,
            derive_seed(config.master_seed, "synthetic"),
        )
    with open_text(config.dataset) as fh:
        first = fh.readline()
    if first.startswith("dim="):
        return load_dataset(config.dataset)
    records = load_records(config.dataset)
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
    run_seed = derive_seed(config.master_seed, "run", run_index)
    train_set, val_set, test_set = _prepare_splits(source, config, run_seed)

    noisy_train = train_set
    noisy_val = val_set
    if config.noise_fraction > 0:
        noisy_train = inject_label_noise(
            train_set, config.noise_spec(derive_seed(run_seed, "noise", "train"))
        )
        noisy_val = inject_label_noise(
            val_set, config.noise_spec(derive_seed(run_seed, "noise", "validation"))
        )
        if config.noise_test:
            test_set = inject_label_noise(
                test_set, config.noise_spec(derive_seed(run_seed, "noise", "test"))
            )

    pool = train_pool(
        noisy_train,
        config.pool_size,
        config.learner_spec(config.learner_seed),
        master_seed=derive_seed(run_seed, "pool"),
    )
    single = train(
        config.learner_spec(derive_seed(run_seed, "single", config.learner_seed)),
        noisy_train,
    )

    fit_data = noisy_val if config.fitness_split == "validation" else noisy_train
    ga_result = run_ga(
        pool, fit_data, config=config.ga_config(derive_seed(run_seed, "ga"))
    )

    X_test = test_set.to_dense()
    y_test = test_set.label_array()
    test_matrix = precompute_predictions(pool, test_set)
    predictions = {
        "single": predict_labels(single, X_test),
        "full_pool": majority_vote_matrix(test_matrix, WeightVector.ones(pool.size)),
        "selective": majority_vote_matrix(test_matrix, ga_result.omega),
    }
    metrics = {m: compute_metrics(predictions[m], y_test) for m in METHODS}
    return RunOutcome(metrics=metrics, omega=ga_result.omega, ga=ga_result)


def _prepare_splits(
    source: Dataset | list[FeatureRecord],
    config: ExperimentConfig,
    run_seed: int,
) -> tuple[Dataset, Dataset, Dataset]:
    split_spec = config.split_spec(derive_seed(run_seed, "split"))
    if isinstance(source, Dataset):
        return split(source, split_spec)
    # record input: split first, then fit the vocabulary on train only
    labels = [r.label for r in source]
    train_idx, val_idx, test_idx = stratified_split_indices(labels, split_spec)
    train_records = [source[i] for i in train_idx]
    vocab = build_vocabulary(
        train_records,
        min_doc_freq=config.min_doc_freq,
        max_api_features=config.max_api_features,
    )
    return (
        vectorize_all(train_records, vocab),
        vectorize_all([source[i] for i in val_idx], vocab),
        vectorize_all([source[i] for i in test_idx], vocab),
    )


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
    lines += config_lines(config)
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


DEFAULT_CONFIG_TEXT = "".join(
    line.removeprefix("config ") + "\n" for line in config_lines(ExperimentConfig())
)
